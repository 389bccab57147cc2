"""Command-line interface: argument handling, exit codes, reproducible output."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import sievelab
from sievelab import __version__, cells, primes, sieve, variational
from sievelab.cli import (
    float_list,
    main,
    offsets_arg,
    positive_sci_int,
    sci_int,
)
from sievelab.errors import InvariantViolationError, ParameterConditionError
from sievelab.tuples import as_tuple


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as e:
        code = e.code
    return code, out.getvalue(), err.getvalue()


SIEVE_ARGS = [
    "sieve",
    "--N", "20000",
    "--delta", "0.3",
    "--tuple", "0,2,6",
    "--base", "1.1",
    "--slope", "3.0",
    "--cutoff", "2.9",
    "--threads", "2",
]


class TestArgumentTypes:
    def test_sci_int_plain_and_exponent(self):
        assert sci_int("123") == 123
        assert sci_int("1e7") == 10**7
        assert sci_int("2.5e3") == 2500
        assert sci_int("1e23") == 10**23  # exact, not float-rounded

    def test_sci_int_rejects_fractional(self):
        with pytest.raises(argparse.ArgumentTypeError):
            sci_int("1e3.5")
        with pytest.raises(argparse.ArgumentTypeError):
            sci_int("10.7")
        with pytest.raises(argparse.ArgumentTypeError):
            sci_int("12345678.9")
        with pytest.raises(argparse.ArgumentTypeError):
            sci_int("1000000.4")

    def test_positive_sci_int(self):
        assert positive_sci_int("1e2") == 100
        with pytest.raises(argparse.ArgumentTypeError):
            positive_sci_int("0")
        with pytest.raises(argparse.ArgumentTypeError):
            positive_sci_int("-3")

    def test_float_list(self):
        assert float_list("0,0.5,1.25") == (0.0, 0.5, 1.25)
        with pytest.raises(argparse.ArgumentTypeError):
            float_list("0,abc")

    def test_offsets_arg(self):
        assert offsets_arg("0,2,6").k == 3
        with pytest.raises(argparse.ArgumentTypeError):
            offsets_arg("0,1")  # not admissible


class TestExitCodes:
    def test_usage_errors_exit_2(self):
        assert run_cli(["primes", "--limit", "100"])[0] == 2  # no mode
        assert run_cli(["variational"])[0] == 2  # missing --k
        assert run_cli(["primes", "--limit", "0", "--stats"])[0] == 2
        assert run_cli(["nonsense"])[0] == 2

    def test_parameter_errors_exit_4(self):
        code, _, err = run_cli(["variational", "--k", "10", "--psi", "loglog"])
        assert code == 4 and "parameter error" in err
        code, _, err = run_cli(
            ["goldbach-scan", "--N", "2000", "--tuple", "0,2",
             "--allow-small-window", "--target", "601"]
        )
        assert code == 4 and "even" in err
        code, _, err = run_cli(["gaps", "--lo", "3", "--hi", "100"])
        assert code == 4 and "--tuple" in err

    def test_negative_mc_seed_is_named(self):
        code, out, err = run_cli(
            ["variational", "--k", "2", "--mc-samples", "1e4", "--seed", "-1"]
        )
        assert code == 4 and out == "" and "seed" in err
        # without --mc-samples the seed is only recorded in the config
        code, out, _ = run_cli(["variational", "--k", "2", "--seed", "-1"])
        assert code == 0 and json.loads(out)["config"]["seed"] == -1

    def test_strict_window_exit_4(self):
        # N = 500, delta = 0.45 gives R = 16, and 100 R > N
        code, _, err = run_cli(["sieve", "--N", "500", "--delta", "0.45"])
        assert code == 4
        assert "strict" in err

    def test_resource_budget_exit_3(self):
        code, _, err = run_cli(["density", "--limit", "1e10"])
        assert code == 3 and "budget" in err

    def test_goldbach_scan_refuses_its_table_before_placing_weights(self):
        # N/2 weights at N = 4e9 are 14.9 GiB: under a 2 GiB address-space
        # cap the scan must meet the table's budget before that allocation
        code = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            "from sievelab.cli import main; sys.exit(main(['goldbach-scan', '--N', '4e9', "
            "'--delta', '0.2', '--tuple', '0,2', '--allow-small-window']))"
        )
        src = str(pathlib.Path(sievelab.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (out.returncode, out.stdout) == (3, "")
        assert out.stderr == (
            "resource budget exceeded: sieve_range(-2, 4000000003) needs 4000000005 "
            "cells, over the budget DEFAULT_SIEVE_BUDGET = 200000000; lower --limit or --N\n"
        )

    def test_failed_allocation_exits_3(self):
        # 1e10 samples draw a 500,000,000 x 3 float64 batch (11.2 GiB): under
        # a 2 GiB address-space cap numpy's MemoryError is a budget refusal
        code = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            "from sievelab.cli import main; "
            "sys.exit(main(['variational', '--k', '3', '--mc-samples', '1e10']))"
        )
        src = str(pathlib.Path(sievelab.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (out.returncode, out.stdout) == (3, "")
        assert out.stderr.startswith("resource budget exceeded: Unable to allocate")

    @pytest.mark.parametrize(
        "argv",
        [
            SIEVE_ARGS[:-2] + ["--threads", "0"],
            SIEVE_ARGS[:-2] + ["--threads", "-3"],
            SIEVE_ARGS + ["--satz", "0"],
            SIEVE_ARGS + ["--satz", "-1"],
            ["gaps", "--tuple", "0,2,6", "--lo", "3", "--hi", "200", "--modulus", "0"],
            ["gaps", "--tuple", "0,2,6", "--lo", "3", "--hi", "200",
             "--modulus", "-6", "--residue", "5"],
        ],
        ids=["threads-0", "threads-neg", "satz-0",
             "satz-neg", "modulus-0", "modulus-neg"],
    )
    def test_count_flags_must_be_positive(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert "expected a positive integer" in err

    def test_residue_without_modulus_refused(self):
        argv = ["gaps", "--tuple", "0,2,6", "--lo", "3", "--hi", "200"]
        code, out, err = run_cli(argv + ["--residue", "5"])
        assert code == 4 and out == ""
        assert "--residue" in err and "--modulus" in err
        code, out, _ = run_cli(argv + ["--residue", "0"])
        assert code == 0 and "# residue=0" in out

    def test_primorial_refusal_names_constant_and_flag(self):
        code, out, err = run_cli(["sieve", "--N", "1e6", "--w-bound", "60"])
        assert code == 4 and out == ""
        assert "at prime 53" in err
        assert "PRIMORIAL_BITS = 64" in err and "--w-bound" in err

    @pytest.mark.parametrize("bound", ["1e9", "1e13"])
    def test_primorial_refusal_sieves_nothing_up_to_the_bound(self, bound):
        # the overflow comes at prime 53 whatever the bound, so a bound of
        # 10^13 is refused as fast as 60, not after a sieve of its length
        t0 = time.perf_counter()
        code, out, err = run_cli(["sieve", "--N", "2e4", "--w-bound", bound])
        assert time.perf_counter() - t0 < 1.0
        assert code == 4 and out == ""
        assert err == (
            f"parameter error: primorial({int(float(bound))}) needs 65 bits at "
            "prime 53, over PRIMORIAL_BITS = 64; lower --w-bound\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["primes", "--limit", "100", "--gap-counts", "--max-diff", "1e9"],
            ["density", "--limit", "100", "--max-diff", "1e9"],
        ],
        ids=["primes", "density"],
    )
    def test_max_diff_cap_exit_3(self, argv):
        code, out, err = run_cli(argv)
        assert code == 3 and out == ""
        assert "max_diff 1000000000" in err
        assert "MAX_GAP_DIFF" in err and "--max-diff" in err

    @pytest.mark.parametrize("mode", ["--stats", "--goldbach-gaps", "--normalized-gaps"])
    def test_max_diff_refused_outside_gap_counts(self, mode):
        argv = ["primes", "--limit", "30", mode]
        code, out, err = run_cli(argv + ["--max-diff", "7"])
        assert code == 4 and out == ""
        assert err.rstrip().endswith(f"{mode} ignores the flag --max-diff")
        # given at its default value, it is refused all the same
        code, out, err = run_cli(["primes", "--limit", "100", mode, "--max-diff", "100"])
        assert code == 4 and out == ""
        assert err.rstrip().endswith(f"{mode} ignores the flag --max-diff")

    @pytest.mark.parametrize("offsets", ["0,4,6,10,16,22,24,30", "0,4,6,10,12,16"])
    def test_wide_tuple_configs_run(self, offsets):
        # an estimate of 314^3 divisor tuples used to refuse these with
        # exit code 3; the exact counts are 8,049 and 4,839
        code, out, err = run_cli(
            ["sieve", "--N", "1e7", "--delta", "0.45", "--tuple", offsets]
        )
        assert code == 0, err
        assert out.splitlines()[-1].startswith("10000000,0.45,")

    def test_tuple_budget_refusal_names_count_and_limit(self, monkeypatch):
        monkeypatch.setattr(sieve, "MAX_SUPPORT_TUPLES", 4838)
        sieve.build_support.cache_clear()
        code, _, err = run_cli(
            ["sieve", "--N", "1e7", "--delta", "0.45", "--tuple", "0,4,6,10,12,16"]
        )
        assert code == 3
        assert "4839 tuples" in err and "MAX_SUPPORT_TUPLES = 4838" in err
        assert "--delta" in err

    def test_invariant_violation_exit_5(self, monkeypatch):
        def boom(*a, **kw):
            raise InvariantViolationError("forced")

        monkeypatch.setattr(variational, "report", boom)
        code, _, err = run_cli(["variational", "--k", "3"])
        assert code == 5 and "invariant" in err

    def test_version_flag(self):
        code, out, _ = run_cli(["--version"])
        assert code == 0
        assert __version__ in out


class TestOutputShapes:
    def test_primes_stats(self):
        code, out, _ = run_cli(["primes", "--limit", "1000", "--stats"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"# tool_version={__version__}"
        assert "prime_count,168" in lines
        assert "largest_prime,997" in lines

    def test_primes_gap_counts_match_library(self):
        code, out, _ = run_cli(
            ["primes", "--limit", "2000", "--gap-counts", "--max-diff", "12"]
        )
        assert code == 0
        counts = primes.gap_counts(2000, 12)
        rows = [l for l in out.splitlines() if l and not l.startswith(("#", "diff"))]
        diffs, parsed = zip(*((int(a), int(b)) for a, b in (r.split(",") for r in rows)))
        assert list(diffs) == list(range(1, 13))
        assert list(parsed) == counts[1:].tolist()

    def test_primes_normalized_gaps_columns(self):
        code, out, _ = run_cli(["primes", "--limit", "100", "--normalized-gaps"])
        assert code == 0
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body[0] == "p,gap,normalized"
        first = body[1].split(",")
        assert first[0] == "2" and first[1] == "1"

    def test_variational_json(self):
        # defaults keep the mass center under the tail threshold
        code, out, _ = run_cli(
            ["variational", "--k", "3", "--mc-samples", "1e4", "--seed", "7"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["tool_version"] == __version__
        assert doc["config"]["k"] == 3 and doc["config"]["seed"] == 7
        forms = variational.closed_forms(
            variational.KernelParams(k=3, base=2.0, slope=10.0, cutoff=0.4)
        )
        assert doc["result"]["closed_forms"]["energy"] == pytest.approx(
            forms.energy, rel=1e-10
        )
        assert doc["result"]["ratios"]["proj_over_square"] > 0
        assert doc["result"]["mc_estimates"]

    def test_variational_fourier_section(self):
        code, out, _ = run_cli(["variational", "--k", "5", "--fourier-check"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["fourier"]["all_passed"] is True

    def test_sieve_csv_matches_library(self):
        code, out, _ = run_cli(SIEVE_ARGS + ["--satz", "2"])
        assert code == 0
        cfg = sieve.make_config(
            20000, delta=0.3, offsets=(0, 2, 6),
            params=variational.KernelParams(k=3, base=1.1, slope=3.0, cutoff=2.9),
        )
        rep = sieve.moment_sums(cfg, 1, 20000, threads=2)
        body = [l for l in out.splitlines() if not l.startswith("#")]
        header, row = body[0].split(","), body[1].split(",")
        record = dict(zip(header, row))
        assert float(record["sum_w2"]) == pytest.approx(rep.sum_w2, rel=1e-12)
        assert float(record["satz_2"]) == pytest.approx(rep.satz(2), rel=1e-12)
        assert record["N"] == "20000"

    def test_sieve_json_upper_half(self):
        code, out, _ = run_cli(
            SIEVE_ARGS + ["--range-half", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["lo"] == 20000
        assert doc["config"]["hi"] == 39999
        assert doc["result"]["n_count"] > 0

    def test_goldbach_scan_witness_is_a_prime_split(self):
        code, out, _ = run_cli(
            ["goldbach-scan", "--N", "2000", "--tuple", "0,2",
             "--base", "1.01", "--slope", "1.0", "--cutoff", "3.0",
             "--allow-small-window", "--target", "600"]
        )
        assert code == 0
        doc = json.loads(out)
        n, h_i, h_j = doc["result"]["witness"]
        table = primes.sieve_range(0, 700)
        assert (n + h_i) in table and (600 - n - h_j) in table
        assert doc["config"]["target"] == 600

    def test_goldbach_scan_target_defaults_to_N(self):
        code, out, _ = run_cli(
            ["goldbach-scan", "--N", "2000", "--tuple", "0,2",
             "--base", "1.01", "--slope", "1.0", "--cutoff", "3.0",
             "--allow-small-window"]
        )
        assert code == 0
        assert json.loads(out)["config"]["target"] == 2000

    def test_density_csv_flags_exceptions(self):
        code, out, _ = run_cli(
            ["density", "--limit", "2000", "--max-diff", "40",
             "--threshold", "70", "--format", "csv"]
        )
        assert code == 0
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body[0] == "diff,count,is_exception"
        flagged = {
            int(r.split(",")[0]) for r in body[1:] if r.split(",")[2] == "1"
        }
        under = {
            int(r.split(",")[0]) for r in body[1:] if int(r.split(",")[1]) < 70
        }
        assert flagged == under and flagged  # threshold 70 trips at this scale

    def test_density_json_drops_bulk_counts(self):
        code, out, _ = run_cli(["density", "--limit", "5e4", "--max-diff", "100"])
        assert code == 0
        doc = json.loads(out)
        assert "counts" not in doc["result"]
        assert doc["result"]["exception_count"] == 0
        assert "proxy" in doc["result"]["label"]

    def test_gaps_scan_matches_library(self):
        code, out, _ = run_cli(
            ["gaps", "--tuple", "0,2,6,8", "--theta", "0.6666666667",
             "--lo", "3", "--hi", "300", "--min-singletons", "4"]
        )
        assert code == 0
        part = cells.partition_tuple(as_tuple((0, 2, 6, 8)), theta=0.6666666667, m=1)
        scan = cells.scan_singleton_cells(part, 3, 300, min_singletons=4)
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body[0] == "n,cell_0,cell_1,cell_2,cell_3"
        assert [int(r.split(",")[0]) for r in body[1:]] == list(scan.ns)

    def test_gaps_beta_mode(self):
        code, out, _ = run_cli(
            ["gaps", "--beta", "0,0.25,0.75,1.5", "--gap-limit", "1e5",
             "--tol", "0.01", "--min-len", "3"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["found"] is True
        assert doc["result"]["length"] >= 3
        assert "proxy" in doc["result"]["label"]

    @pytest.mark.parametrize("flags, named", [
        (["--modulus", "6", "--residue", "5", "--tuple", "0,2,6"],
         "--tuple, --modulus, --residue"),
        (["--theta", "0.5"], "--theta"),
        (["--lo", "3", "--hi", "200", "--m", "2"], "--m, --lo, --hi"),
        (["--n-cells", "3", "--min-singletons", "2"], "--n-cells, --min-singletons"),
    ])
    def test_gaps_beta_mode_refuses_scan_flags(self, flags, named):
        argv = ["gaps", "--beta", "0.5,1.0", "--gap-limit", "1e4"]
        code, out, err = run_cli(argv + flags)
        assert code == 4 and out == ""
        assert err.rstrip().endswith(f"scan flags {named}")
        # scan flags given at their default values are refused all the same
        code, out, err = run_cli(argv + ["--theta", "1.0", "--residue", "0"])
        assert code == 4 and out == ""
        assert err.rstrip().endswith("scan flags --theta, --residue")

    @pytest.mark.parametrize("flags, named", [
        (["--tol", "1"], "--tol"),
        (["--min-len", "3", "--gap-limit", "1e4"], "--gap-limit, --min-len"),
    ])
    def test_gaps_scan_mode_refuses_beta_flags(self, flags, named):
        argv = ["gaps", "--tuple", "0,2,6", "--hi", "200"]
        code, out, err = run_cli(argv + flags)
        assert code == 4 and out == ""
        assert err.rstrip().endswith(f"scan mode ignores the flags {named}")
        # beta-mode flags given at their default values are refused all the same
        code, out, err = run_cli(argv + ["--tol", "0.05", "--min-len", "2"])
        assert code == 4 and out == ""
        assert err.rstrip().endswith("scan mode ignores the flags --tol, --min-len")

    def test_n_cells_refuses_theta(self, tmp_path):
        # split_into_cells takes no theta, so the flag moved no byte
        argv = ["gaps", "--tuple", "0,2,6,8", "--n-cells", "4", "--hi", "50"]
        code, out, err = run_cli(argv + ["--theta", "0.5"])
        assert code == 4 and out == ""
        assert err.rstrip().endswith("--n-cells ignores the flag --theta")
        ini = tmp_path / "w.ini"
        ini.write_text("[gaps]\ntheta = 0.5\n")
        code, out, err = run_cli(["--config", str(ini)] + argv)
        assert code == 4 and out == ""
        assert err.rstrip().endswith("--n-cells ignores the flag --theta")
        code, out, err = run_cli(argv + ["--theta", "1.0"])  # the default value
        assert code == 4 and out == ""
        assert err.rstrip().endswith("--n-cells ignores the flag --theta")

    @pytest.mark.parametrize("argv, why", [
        (["sieve", "--N", "2e4", "--unrestricted"], "--unrestricted ignores"),
        (["goldbach-scan", "--N", "2000", "--tuple", "0,2", "--allow-small-window"],
         "goldbach-scan ignores"),
    ], ids=["sieve-unrestricted", "goldbach-scan"])
    def test_b0_refused_where_every_n_is_scanned(self, argv, why):
        code, out, err = run_cli(argv + ["--b0", "221"])
        assert code == 4 and out == ""
        assert err.rstrip().endswith(f"{why} the flag --b0")
        # the restricted grid steps over n = b0 mod W, so there b0 counts
        restricted = ["sieve", "--N", "2e4"]
        code, out, err = run_cli(restricted + ["--b0", "221"])
        assert code == 0, err
        assert "# b0=221" in out.splitlines() and out != run_cli(restricted)[1]

    def test_variational_refuses_flags_its_mode_ignores(self):
        code, out, err = run_cli(["variational", "--k", "3", "--c", "0.5"])
        assert code == 4 and out == ""
        assert err.rstrip().endswith("variational without --psi ignores the flag --c")
        argv = ["variational", "--k", "20", "--psi", "loglog"]
        kernel = ["--base", "1.5", "--slope", "3", "--cutoff", "1"]
        code, out, err = run_cli(argv + kernel)
        assert code == 4 and out == ""
        assert err.rstrip().endswith("--psi ignores the flags --base, --slope, --cutoff")
        # given at their default values, they are refused all the same
        code, out, err = run_cli(argv + ["--base", "2"])
        assert code == 4 and out == ""
        assert err.rstrip().endswith("--psi ignores the flags --base")
        code, out, err = run_cli(argv + ["--base", "2", "--slope", "10"])
        assert code == 4 and out == ""
        assert err.rstrip().endswith("--psi ignores the flags --base, --slope")
        code, out, err = run_cli(["variational", "--k", "3", "--c", "1"])
        assert code == 4 and out == ""
        assert err.rstrip().endswith("variational without --psi ignores the flag --c")

    def test_c_is_not_an_abbreviated_config(self):
        argv = ["variational", "--k", "20", "--psi", "loglog"]
        code, out, err = run_cli(argv + ["--c", "0.5"])
        assert code == 0, err
        assert json.loads(out)["config"]["c"] == 0.5
        assert out != run_cli(argv)[1]  # c moves the schedule

    def test_output_file_instead_of_stdout(self, tmp_path):
        target = tmp_path / "stats.csv"
        code, out, _ = run_cli(
            ["primes", "--limit", "100", "--stats", "--output", str(target)]
        )
        assert code == 0
        assert out == ""
        assert "prime_count,25" in target.read_text()


# sha256 of stdout for light-size CLI runs, so that tier-1 checks the output
# bytes on its own; the first five also appear in the benchmark's digests
PINNED_STDOUT = {
    "primes --limit 2e4 --goldbach-gaps":
        "3116dc84fce34345179fbc68c3f4264c98a77f5f332d0634c7214ecc47c72732",
    "primes --limit 2e4 --normalized-gaps":
        "3c02abe42b560028e86d91c60d60095e5a320ab0a3f9dfff2e7d4d0d9e256d6e",
    "density --limit 2e4 --max-diff 200 --format csv":
        "3bc9b43361e0669441261ae60f29e619507625089d11d0968e85f6dfb5ef3724",
    "gaps --tuple 0,2,6,8,12,18,20,26 --theta 0.667 --lo 3 --hi 2e4 --min-singletons 2":
        "ea125a24f2fd403a86689478a4b0f477890e46f2d5602c96eafde0428cf262e5",
    "sieve --N 2e5 --delta 0.25 --tuple 0,2,6 --base 1.1 --slope 3 --cutoff 2.9":
        "c52cb3fef18a64cb9cc0d36c1704c16fc5af3513c2564da04b68d4e30c2b03e2",
    # the all-pair counts, odd differences included, written off the array
    "primes --limit 2e4 --gap-counts --max-diff 200":
        "5ab677f5310f327b982aff717d6ea4b1db0cf081fbd11c060936424fd6a56346",
    "sieve --N 2e5 --delta 0.3 --tuple 0,2,6 --base 1.1 --slope 3 --cutoff 2.9 --unrestricted":
        "2814a67af8db88b14d7d90781063c020e46566af58a91a5771512e94e1023431",
    # windows of 10^6 points: the weight placement spans several cache blocks
    "sieve --N 1e6 --delta 0.33 --tuple 0,4,6,10,12,16 --base 1.1 --slope 3 --cutoff 5.7 --unrestricted":
        "914d84c34615ca28346445d4e249e0bab300edb10ca2821da7725ac951488875",
    "sieve --N 1e6 --delta 0.39 --tuple 0,2,6,8 --base 1.1 --slope 3 --cutoff 3.8 --unrestricted --threads 2":
        "6d2be1580c7bf68d9324206b0247f17e7d0fe4e991fb21c20051c7b2a63d7c83",
    "goldbach-scan --N 2000 --tuple 0,2 --allow-small-window":
        "d92e2ed8ce5fddb6a8ccb75676322cbb6eaef6219ffc766c4164f051ccd9d044",
    "goldbach-scan --N 4e4 --tuple 0,2,6 --base 1.1 --slope 3 --cutoff 2.9":
        "180d747bdba84d13b8efc6d7d24655021a4c42c9b5f4f904f7d4bef27be0b2fb",
    "variational --k 4 --mc-samples 1e4 --seed 11":
        "d77ff2602fac1f1cb208f964ab1fdf176ee5da5d65699ae4fbe24ab4be978ce3",
    # the biproj estimate interpolates the k = 8 pair-mass table
    "variational --k 8 --base 2 --slope 64 --cutoff 0.5 --mc-samples 2e5 --seed 3":
        "f77c8f5d449a96f6082e7f7dfed34b43242f9d3737ba8e1a14535cf5e1a7e347",
    # JSON views of MomentReport, PolignacDensityReport, KernelParams,
    # KernelIntegrals, FourierCheckReport and the beta-subsequence payload
    "sieve --N 2e5 --delta 0.3 --tuple 0,2,6 --base 1.1 --slope 3 --cutoff 2.9 --format json --satz 2":
        "b6ba6d55f5afd048e317c902bbbe94136d6bb5b5fd5f11790a9c818ef46de0e8",
    "density --limit 1e5 --max-diff 1000":
        "c1585e5200792d861da26388507a0f2b64955e2d6732c2a1efcb1485869a8737",
    "variational --k 3 --fourier-check":
        "d5cb5e47c6d18843dee88266c90ca8a119302e8b63869bccfb0dad2fb58113e9",
    "variational --k 20 --psi loglog":
        "ad700c94400148778761719fac6bd9a7d40968c2461242e9afd49d410aedab10",
    "gaps --beta 0.1,0.5,1.2,2.0 --gap-limit 1e4":
        "5630b03c9343e3fe35fa5e3ea914a31b7ab57a36a73b88088f1e79bc1da5b9c0",
    # 10,004 exceptions in the JSON; the satz column in the CSV row; a scan
    # on a residue class with the cell columns of split_into_cells
    "density --limit 2e4 --max-diff 4e4":
        "2d49152ebfbe576f79c58a493befc75034ec735a86c14bbe1040da79e4009a23",
    "sieve --N 2e5 --delta 0.25 --tuple 0,2,6 --base 1.1 --slope 3 --cutoff 2.9 --satz 2":
        "317387432b8073796f2026516f758111998f1b45665e2dd20ad45d54ea679a0f",
    "gaps --tuple 0,2,6,8 --n-cells 4 --lo 3 --hi 2000 --min-singletons 4 --modulus 6 --residue 5":
        "ef46966d80b1da1e1100526751b97f134d9759c013c1e6c8959c1a44bb44a492",
    # bodies of several CSV_BLOCK_ROWS blocks: 175,998 lines in three blocks,
    # and 78,501 lines in two with a float column
    "primes --limit 3e5 --goldbach-gaps":
        "db0e6ca544e6a86611b9f42b1e81b73ed8b24263a6debfdf506805ce65ef912f",
    "primes --limit 1e6 --normalized-gaps":
        "9b4de9c14c54148c828b7791ba528a6a40f91f3e70b5ce46066e3cf21b4c3cba",
    # negative offsets: n + h, and the mirrored N - n - h, read values below 2
    "sieve --N 2e5 --delta 0.3 --tuple=-2,0,4 --base 1.1 --slope 3 --cutoff 2.9 --unrestricted":
        "38fb7227d9c919596e7e1b9f1311e0fa6d87efec4d919d382547fc938a82b61c",
    "gaps --tuple=-2,0,4,6 --n-cells 2 --lo 1 --hi 2000 --min-singletons 1":
        "9550aa67a885e07d2e1a286100ab1005b5ae8b4d0b7d0624007d7b72c950fe1c",
    "goldbach-scan --N 2000 --tuple=-2,0 --allow-small-window":
        "2ebbecdf3e4ad00b3c435d9875378d24ccbefa891b58012fc86987f551f7c461",
    # a scan whose weight is not constant: R = 86, 25 tuples in the support
    # of the mirrored 6-point union
    "goldbach-scan --N 2e4 --delta 0.45 --tuple 0,2,6 --base 1.05 --slope 3 --cutoff 4":
        "69ea2f43d2bc54f4ce7030cb04bbc2c0ab54b9cc30300871af6667cd342a2d06",
}


class TestDeterminism:
    @pytest.mark.parametrize("argv", sorted(PINNED_STDOUT))
    def test_stdout_bytes_pinned(self, argv):
        code, out, err = run_cli(argv.split())
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(SIEVE_ARGS + ["--output", str(a)])[0] == 0
        assert run_cli(SIEVE_ARGS + ["--output", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_rerun_byte_identical(self):
        argv = ["variational", "--k", "4", "--mc-samples", "1e4", "--seed", "11"]
        code, first, err = run_cli(argv)
        assert code == 0, err
        assert json.loads(first)["result"]["mc_estimates"]
        assert run_cli(argv)[1] == first

    def test_sieve_defaults_to_one_thread(self, monkeypatch):
        pools = []
        real_pool = sieve.ThreadPoolExecutor

        def spy(max_workers):
            pools.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(sieve, "ThreadPoolExecutor", spy)
        code, out, err = run_cli(SIEVE_ARGS[:-2])  # drop the --threads pair
        assert code == 0, err
        assert pools == [1]
        assert out == run_cli(SIEVE_ARGS)[1]

    def test_thread_count_does_not_change_bytes(self):
        base = SIEVE_ARGS[:-2]  # drop the --threads pair
        _, out1, _ = run_cli(base + ["--threads", "1"])
        _, out4, _ = run_cli(base + ["--threads", "4"])
        assert out1 == out4


class TestConfigFile:
    def write_ini(self, tmp_path, text):
        path = tmp_path / "workbench.ini"
        path.write_text(text)
        return str(path)

    def test_section_supplies_required_flags(self, tmp_path):
        ini = self.write_ini(
            tmp_path,
            "[sieve]\nN = 20000\ndelta = 0.3\ntuple = 0,2,6\n"
            "base = 1.1\nslope = 3.0\ncutoff = 2.9\nthreads = 2\n",
        )
        code, out, _ = run_cli(["--config", ini, "sieve"])
        assert code == 0
        assert "# N=20000" in out.splitlines()
        assert "# delta=0.3" in out.splitlines()

    def test_explicit_flag_beats_config(self, tmp_path):
        ini = self.write_ini(
            tmp_path,
            "[sieve]\nN = 20000\ndelta = 0.3\ntuple = 0,2,6\n"
            "base = 1.1\nslope = 3.0\ncutoff = 2.9\nthreads = 2\n",
        )
        code, out, _ = run_cli(["--config", ini, "sieve", "--delta", "0.28"])
        assert code == 0
        assert "# delta=0.28" in out.splitlines()

    @pytest.mark.parametrize("section, argv", [
        # a mode key and an int key
        ("limit = 2000\ngap-counts = true\nmax-diff = 50\n",
         ["primes", "--limit", "2000", "--gap-counts", "--max-diff", "50"]),
        ("k = 4\nmc-samples = 1e4\nseed = 11\n",
         ["variational", "--k", "4", "--mc-samples", "1e4", "--seed", "11"]),
        # a store_true key; the section holds every other SIEVE_ARGS flag
        ("N = 20000\ndelta = 0.3\ntuple = 0,2,6\nbase = 1.1\nslope = 3.0\n"
         "cutoff = 2.9\nthreads = 2\nunrestricted = on\n",
         SIEVE_ARGS + ["--unrestricted"]),
        ("N = 2000\ntuple = 0,2\nallow-small-window = yes\ntarget = 600\n",
         ["goldbach-scan", "--N", "2000", "--tuple", "0,2",
          "--allow-small-window", "--target", "600"]),
        ("limit = 2e4\nmax-diff = 200\nformat = csv\n",
         ["density", "--limit", "2e4", "--max-diff", "200", "--format", "csv"]),
        # a negative offset, which after a space the parser reads as a flag
        ("tuple = -2,0,4\nhi = 200\nmin_singletons = 2\n",
         ["gaps", "--tuple=-2,0,4", "--hi", "200", "--min-singletons", "2"]),
    ], ids=["primes", "variational", "sieve", "goldbach-scan", "density", "gaps"])
    def test_config_equals_flags_byte_for_byte(self, tmp_path, section, argv):
        ini = self.write_ini(tmp_path, f"[{argv[0]}]\n{section}")
        code, via_config, err = run_cli(["--config", ini, argv[0]])
        assert code == 0, err
        assert via_config == run_cli(argv)[1]

    def test_config_equals_sign_form(self, tmp_path):
        ini = self.write_ini(tmp_path, "[primes]\nlimit = 100\nstats = true\n")
        code, out, err = run_cli([f"--config={ini}", "primes"])
        assert code == 0, err
        assert out == run_cli(["primes", "--limit", "100", "--stats"])[1]

    def test_mode_key_yields_to_explicit_mode_flag(self, tmp_path):
        ini = self.write_ini(tmp_path, "[primes]\nlimit = 100\nstats = true\n")
        code, out, err = run_cli(["--config", ini, "primes", "--gap-counts"])
        assert code == 0, err
        assert out == run_cli(["primes", "--limit", "100", "--gap-counts"])[1]

    def test_false_mode_key_leaves_the_mode_required(self, tmp_path):
        ini = self.write_ini(tmp_path, "[primes]\nlimit = 30\nstats = false\n")
        code, out, err = run_cli(["--config", ini, "primes"])
        assert code == 2 and out == ""
        assert "one of the arguments --stats" in err
        assert run_cli(["primes", "--limit", "30"])[0] == 2
        code, out, _ = run_cli(["--config", ini, "primes", "--goldbach-gaps"])
        assert code == 0 and "# mode=goldbach-gaps" in out.splitlines()

    def test_two_mode_keys_refused_like_two_mode_flags(self, tmp_path):
        ini = self.write_ini(
            tmp_path, "[primes]\nlimit = 30\nstats = true\ngap-counts = true\n"
        )
        code, out, err = run_cli(["--config", ini, "primes"])
        assert code == 2 and out == ""
        assert "not allowed with argument" in err
        assert run_cli(["primes", "--limit", "30", "--stats", "--gap-counts"])[0] == 2

    def test_mode_flag_and_boolean_in_config(self, tmp_path):
        ini = self.write_ini(tmp_path, "[primes]\nlimit = 1000\nstats = true\n")
        code, out, _ = run_cli(["--config", ini, "primes"])
        assert code == 0
        assert "prime_count,168" in out

    def test_boolean_store_true_in_config(self, tmp_path):
        ini = self.write_ini(
            tmp_path,
            "[goldbach-scan]\nN = 2000\ntuple = 0,2\nallow-small-window = yes\n"
            "base = 1.01\nslope = 1.0\ncutoff = 3.0\ntarget = 600\n",
        )
        code, out, _ = run_cli(["--config", ini, "goldbach-scan"])
        assert code == 0
        assert json.loads(out)["result"]["witness_count"] > 0

    def test_threads_key_must_be_positive(self, tmp_path):
        ini = self.write_ini(tmp_path, "[sieve]\nN = 20000\nthreads = 0\n")
        code, out, err = run_cli(["--config", ini, "sieve"])
        assert code == 4 and out == ""
        assert "'threads' in [sieve]" in err and "positive" in err

    def test_unknown_key_rejected(self, tmp_path):
        ini = self.write_ini(tmp_path, "[sieve]\nN = 20000\nbogus = 1\n")
        code, _, err = run_cli(["--config", ini, "sieve"])
        assert code == 4 and "bogus" in err

    @pytest.mark.parametrize(
        "key, value", [("N", "1.5"), ("tuple", "0,1,2"), ("format", "xml")]
    )
    def test_bad_value_rejected_like_its_flag(self, tmp_path, key, value):
        # a non-integer, an inadmissible tuple, a value outside the choices
        ini = self.write_ini(tmp_path, f"[sieve]\n{key} = {value}\n")
        code, out, err = run_cli(["--config", ini, "sieve", "--N", "20000"])
        assert code == 4 and out == ""
        assert f"'{key}' in [sieve]" in err
        assert run_cli(["sieve", "--N", "20000", f"--{key}", value])[0] == 2

    def test_malformed_file_rejected(self, tmp_path):
        ini = self.write_ini(tmp_path, "[sieve]\nN = 20000\nN = 30000\n")
        code, _, err = run_cli(["--config", ini, "sieve"])
        assert code == 4 and "already exists" in err

    def test_bad_boolean_rejected(self, tmp_path):
        ini = self.write_ini(
            tmp_path, "[primes]\nlimit = 100\nstats = maybe\n"
        )
        code, _, err = run_cli(["--config", ini, "primes", "--stats"])
        assert code == 4 and "boolean" in err

    def test_missing_file_rejected(self, tmp_path):
        code, _, err = run_cli(
            ["--config", str(tmp_path / "nope.ini"), "primes",
             "--limit", "10", "--stats"]
        )
        assert code == 4 and "not found" in err

    def test_max_diff_key_refused_outside_gap_counts(self, tmp_path):
        ini = self.write_ini(tmp_path, "[primes]\nlimit = 30\nmax-diff = 7\n")
        code, out, err = run_cli(["--config", ini, "primes", "--stats"])
        assert code == 4 and out == ""
        assert err.rstrip().endswith("--stats ignores the flag --max-diff")
        code, out, _ = run_cli(["--config", ini, "primes", "--gap-counts"])
        assert code == 0 and "# max_diff=7" in out.splitlines()
        # a key set to the flag's default value is given all the same
        ini = self.write_ini(tmp_path, "[primes]\nlimit = 100\nmax-diff = 100\n")
        code, out, err = run_cli(["--config", ini, "primes", "--stats"])
        assert code == 4 and out == ""
        assert err.rstrip().endswith("--stats ignores the flag --max-diff")

    def test_mode_flags_are_never_abbreviated(self, tmp_path):
        # an abbreviated mode flag would dodge the yield rule's exact match
        # and run the section's mode
        ini = self.write_ini(tmp_path, "[primes]\nlimit = 100\nstats = true\n")
        code, out, err = run_cli(["--config", ini, "primes", "--gap-c"])
        assert code == 2 and out == ""
        assert "unrecognized arguments: --gap-c" in err
        code, out, err = run_cli(["sieve", "--N", "2e4", "--del", "0.3"])
        assert code == 2 and out == ""
        assert "unrecognized arguments: --del 0.3" in err

    def test_config_flag_is_never_abbreviated(self, tmp_path):
        ini = self.write_ini(tmp_path, "[primes]\nlimit = 30\n")
        code, out, err = run_cli(["--conf", ini, "primes", "--limit", "100", "--stats"])
        assert code == 2 and out == ""
        # the misspelled flag is named, not its value as a bad command
        assert err.rstrip().endswith("unrecognized arguments: --conf")
        code, out, _ = run_cli(["--config", ini, "primes", "--stats"])
        assert code == 0 and "# limit=30" in out.splitlines()

    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        ini = self.write_ini(tmp_path, "[primes]\nlimit = 100\n")
        argv = ["--config", ini, "primes", "--stats"]
        assert run_cli(argv)[0] == 0
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        code, out, err = run_cli(argv)
        assert code == 0, err
        assert "# limit=100" in out.splitlines()
        assert len(built) == 1  # the --config pre-parser

    def test_keys_the_mode_ignores_refused(self, tmp_path):
        ini = self.write_ini(
            tmp_path,
            "[variational]\nk = 3\nc = 0.5\n"
            "[gaps]\ntuple = 0,2,6\nhi = 200\ntol = 1\n",
        )
        code, out, err = run_cli(["--config", ini, "variational"])
        assert code == 4 and out == ""
        assert err.rstrip().endswith("variational without --psi ignores the flag --c")
        code, out, err = run_cli(["--config", ini, "gaps"])
        assert code == 4 and out == ""
        assert err.rstrip().endswith("scan mode ignores the flags --tol")

    def test_unrelated_section_ignored(self, tmp_path):
        ini = self.write_ini(tmp_path, "[density]\nlimit = 999\n")
        code, out, _ = run_cli(["--config", ini, "primes", "--limit", "100", "--stats"])
        assert code == 0
        assert "prime_count,25" in out


def test_cli_import_leaves_scipy_out():
    # importing scipy was most of the start-up time of every CLI call
    src = str(pathlib.Path(sievelab.__file__).parents[1])
    code = (
        "import sys, sievelab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
