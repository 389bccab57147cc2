"""Command-line workbench: one subcommand per module, reproducible outputs.

Every run resolves its full configuration up front and embeds it in the
output (CSV comment header or JSON config block) along with the tool
version.  No timestamps, no environment leakage: identical arguments give
byte-identical files.  Exit codes: 0 success, 2 usage, 3 resource budget
or failed allocation, 4 parameter condition, 5 internal invariant.

One parser, built once per process and never changed, reads every run.
`--config file.ini` turns the subcommand's section into flags placed
before the explicit ones, so both pass the same checks and explicit
flags win.
"""

from __future__ import annotations

import argparse
import configparser
import decimal
import functools
import sys

import numpy as np

from . import __version__, cells, graphs, primes, sieve, variational
from .errors import (
    InvariantViolationError,
    ParameterConditionError,
    ResourceBudgetError,
)
from .reportio import csv_cell, csv_lines, stable_json, view_names
from .tuples import as_tuple, is_admissible


def sci_int(text: str) -> int:
    """Integer argument, scientific notation allowed (1e7 -> 10000000).
    Parsed exactly: 10.7 or 1000000.4 is rejected, never rounded."""
    try:
        v = decimal.Decimal(text)
    except decimal.InvalidOperation:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if not v.is_finite() or v != v.to_integral_value():
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if v.adjusted() >= 4300:  # int() refuses longer digit strings as well
        raise argparse.ArgumentTypeError(f"{text!r} has over 4300 digits")
    return int(v)


def positive_sci_int(text: str) -> int:
    v = sci_int(text)
    if v <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return v


def float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}: {e}")


def offsets_arg(text: str):
    try:
        t = as_tuple(text)
    except (ValueError, ParameterConditionError) as e:
        raise argparse.ArgumentTypeError(f"bad offset tuple {text!r}: {e}")
    verdict = is_admissible(t)
    if not verdict:
        raise argparse.ArgumentTypeError(
            f"offset tuple {text!r} is not admissible "
            f"(covers every residue class mod {verdict.prime})"
        )
    return t


def emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def csv_document(config: dict, body: str) -> str:
    """The tool version and the config as `# key=value` comment lines
    (keys sorted), then the CSV body."""
    lines = [f"# tool_version={__version__}"]
    lines += [f"# {key}={csv_cell(config[key])}" for key in sorted(config)]
    return "\n".join(lines) + "\n" + body


def json_document(config: dict, result) -> str:
    """result: a report, or a dict that may hold reports and arrays."""
    return stable_json(
        {"tool_version": __version__, "config": config, "result": result}
    )


def refuse_ignored(args, dests, why: str) -> None:
    """Refuse each of the dests given on the command line or as a
    config-file key (args.given), whatever its value.
    ParameterConditionError (exit 4) names the flags after `why`."""
    stray = [d for d in dests if d in args.given]
    if stray:
        flags = ", ".join("--" + d.replace("_", "-") for d in stray)
        raise ParameterConditionError(f"{why} {flags}")


# ---------------------------------------------------------------------------
# primes


def cmd_primes(args) -> str:
    if args.mode != "gap-counts":
        refuse_ignored(args, ["max_diff"], f"--{args.mode} ignores the flag")
    config = {"limit": args.limit, "mode": args.mode}
    if args.mode == "stats":
        table = primes.sieve_range(0, args.limit + 1)
        is_p, span = table.is_prime, 1  # span doubles until its tail holds a prime
        while span < is_p.size and not is_p[-span:].any():
            span = min(2 * span, is_p.size)
        last = np.flatnonzero(is_p[-span:])
        largest = is_p.size - span + int(last[-1]) if last.size else 0
        body = csv_lines(
            ["stat", "value"],
            [["prime_count", "largest_prime"], [table.count(), largest]],
        )
    elif args.mode == "goldbach-gaps":
        rep = primes.goldbach_gaps(args.limit)
        body = csv_lines(["value", "gap"], [rep.values[:-1], rep.gaps])
    elif args.mode == "gap-counts":
        config["max_diff"] = args.max_diff
        counts = primes.gap_counts(args.limit, args.max_diff)
        body = csv_lines(["diff", "count"], [np.arange(1, counts.size), counts[1:]])
    else:  # normalized-gaps
        seq = primes.normalized_gaps(args.limit)
        body = csv_lines(["p", "gap", "normalized"], [seq.p, seq.gap, seq.normalized])
    return csv_document(config, body)


# ---------------------------------------------------------------------------
# variational


def cmd_variational(args) -> str:
    if args.psi is not None:
        refuse_ignored(args, ["base", "slope", "cutoff"], "--psi ignores the flags")
        psi = None if args.psi == "loglog" else float(args.psi)
        params = variational.schedule_params(args.k, c=args.c, psi=psi)
    else:
        refuse_ignored(args, ["c"], "variational without --psi ignores the flag")
        params = variational.KernelParams(
            k=args.k, base=args.base, slope=args.slope, cutoff=args.cutoff
        )
    config = {
        "k": args.k,
        "psi": args.psi,
        "c": args.c,
        "base": params.base,
        "slope": params.slope,
        "cutoff": params.cutoff,
        "mc_samples": args.mc_samples,
        "seed": args.seed,
        "fourier_check": args.fourier_check,
    }
    payload = variational.report(params, n_samples=args.mc_samples, seed=args.seed)
    if args.fourier_check:
        payload["fourier"] = variational.fourier_kernel_check(seed=args.seed)
    return json_document(config, payload)


# ---------------------------------------------------------------------------
# sieve


def _sieve_config(args) -> sieve.SieveConfig:
    params = variational.KernelParams(
        k=args.tuple.k, base=args.base, slope=args.slope, cutoff=args.cutoff
    )
    return sieve.make_config(
        args.N,
        delta=args.delta,
        offsets=args.tuple,
        params=params,
        w_bound=args.w_bound,
        b0=args.b0,
        strict=not args.allow_small_window,
    )


def _flat_sieve_config(cfg: sieve.SieveConfig) -> dict:
    """Scalar-only view of a sieve config, same shape in CSV and JSON."""
    out = cfg.as_dict()
    params = out.pop("params")
    out.update((key, params[key]) for key in ("k", "base", "slope", "cutoff"))
    return out


def cmd_sieve(args) -> str:
    if args.unrestricted:  # every n is scanned, so b0 selects nothing
        refuse_ignored(args, ["b0"], "--unrestricted ignores the flag")
    cfg = _sieve_config(args)
    if args.range_half:
        lo, hi = cfg.N, 2 * cfg.N - 1
    else:
        lo, hi = 1, cfg.N
    rep = sieve.moment_sums(
        cfg, lo, hi, restrict=not args.unrestricted, threads=args.threads
    )
    config = _flat_sieve_config(cfg)
    config.update(
        {
            "lo": lo,
            "hi": hi,
            "restricted": not args.unrestricted,
            "satz_m": args.satz,
        }
    )
    if args.format == "json":
        payload = rep.as_dict()
        if args.satz:
            payload["satz"] = rep.satz(args.satz)
        return json_document(config, payload)
    row = dict(N=cfg.N, delta=cfg.delta, k=cfg.k, W=cfg.W, b0=cfg.b0, sum_w2=rep.sum_w2)
    row.update((f"sum_prime_w2_{i}", s) for i, s in enumerate(rep.prime_sq_sums))
    row.update((f"ratio_{i}", r) for i, r in enumerate(rep.ratios))
    row["pair_max_ratio"] = rep.pair_max_ratio
    if args.satz:
        row[f"satz_{args.satz}"] = rep.satz(args.satz)
    return csv_document(config, csv_lines(list(row), [[v] for v in row.values()]))


# ---------------------------------------------------------------------------
# goldbach scan


def cmd_goldbach_scan(args) -> str:
    refuse_ignored(args, ["b0"], "goldbach-scan ignores the flag")
    cfg = _sieve_config(args)
    rep = sieve.goldbach_window_scan(cfg, N=args.target)
    config = _flat_sieve_config(cfg)
    config["target"] = rep.N
    return json_document(config, rep)


# ---------------------------------------------------------------------------
# density


def cmd_density(args) -> str:
    rep = graphs.empirical_polignac_density(
        args.limit, threshold=args.threshold, max_diff=args.max_diff
    )
    config = {
        "limit": args.limit,
        "threshold": args.threshold,
        "max_diff": args.max_diff,
    }
    if args.format == "csv":
        evens = rep.counts[2::2]
        body = csv_lines(
            ["diff", "count", "is_exception"],
            [np.arange(2, rep.counts.size, 2), evens, evens < rep.threshold],
        )
        return csv_document(config, body)
    # counts is bulky; the per-difference columns live in CSV mode
    names = [name for name in view_names(rep) if name != "counts"]
    return json_document(config, {name: getattr(rep, name) for name in names})


# ---------------------------------------------------------------------------
# gaps


def cmd_gaps(args) -> str:
    if args.beta is not None:
        scan = "tuple theta m n_cells lo hi min_singletons modulus residue".split()
        refuse_ignored(args, scan, "--beta mode ignores the scan flags")
        gap_seq = primes.normalized_gaps(args.gap_limit)
        gap_vals = sorted(set(np.round(gap_seq.normalized, 6).tolist()))
        res = cells.beta_subsequence_check(
            args.beta, gap_vals, args.tol, args.min_len
        )
        config = {
            "beta": list(args.beta),
            "gap_limit": args.gap_limit,
            "tol": args.tol,
            "min_len": args.min_len,
            "gap_value_count": len(gap_vals),
        }
        payload = {
            "found": res.found,
            "length": res.length,
            "indices": res.indices,
            "values": res.values,
            "label": "gap set is the empirical normalized-gap value set, a proxy",
        }
        return json_document(config, payload)
    # singleton-cell scan mode
    refuse_ignored(args, ["gap_limit", "tol", "min_len"], "scan mode ignores the flags")
    if args.tuple is None:
        raise ParameterConditionError("scan mode needs --tuple (or pass --beta)")
    if args.n_cells is not None:
        refuse_ignored(args, ["theta"], "--n-cells ignores the flag")
        part = cells.split_into_cells(args.tuple, args.n_cells, m=args.m)
    else:
        part = cells.partition_tuple(args.tuple, theta=args.theta, m=args.m)
    scan = cells.scan_singleton_cells(
        part,
        args.lo,
        args.hi,
        min_singletons=args.min_singletons,
        modulus=args.modulus,
        residue=args.residue,
    )
    config = {
        "tuple": part.offsets.serialize(),
        "theta": part.theta,
        "m": part.m,
        "n_cells": part.n_cells,
        "lo": args.lo,
        "hi": args.hi,
        "min_singletons": args.min_singletons,
        "modulus": args.modulus,
        "residue": args.residue,
    }
    header = ["n"] + [f"cell_{j}" for j in range(scan.counts.shape[1])]
    return csv_document(config, csv_lines(header, [scan.ns, *scan.counts.T]))


# ---------------------------------------------------------------------------
# parser assembly


@functools.cache  # one parser per process, never changed once built
def build_parser():
    parser = argparse.ArgumentParser(
        prog="sievelab",
        description="number-theory workbench: sieve weights, tuples, graphs, gaps",
        allow_abbrev=False,  # --c, --conf are not --config
    )
    parser.add_argument("--config", help="INI file with one section per subcommand")
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    submap = {}

    def add_kernel_flags(p):
        for name in ("base", "slope", "cutoff"):
            default = getattr(variational.KernelParams, name)
            p.add_argument(f"--{name}", type=float, default=default)

    def add(name, func, **kw):
        # abbreviations off: --gap-c is no --gap-counts, --del no --delta
        sp = subs.add_parser(name, allow_abbrev=False, **kw)
        sp.set_defaults(func=func)
        sp.add_argument("--output", help="write here instead of stdout")
        submap[name] = sp
        return sp

    p = add("primes", cmd_primes, help="prime tables and gap statistics")
    p.add_argument("--limit", type=positive_sci_int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    for name in ("stats", "goldbach-gaps", "gap-counts", "normalized-gaps"):
        mode.add_argument(f"--{name}", dest="mode", action="store_const", const=name)
    p.add_argument("--max-diff", type=positive_sci_int, default=100)

    p = add("variational", cmd_variational, help="kernel closed forms and ratios")
    p.add_argument("--k", type=positive_sci_int, required=True)
    p.add_argument("--psi", help="'loglog' or a value in (0,1); enables the schedule")
    p.add_argument("--c", type=float, default=1.0)
    add_kernel_flags(p)
    p.add_argument("--mc-samples", type=positive_sci_int, default=None)
    p.add_argument("--seed", type=sci_int, default=0)
    p.add_argument("--fourier-check", action="store_true")

    def add_sieve_flags(p):
        p.add_argument("--N", type=positive_sci_int, required=True)
        p.add_argument("--delta", type=float, default=0.25)
        p.add_argument("--tuple", type=offsets_arg, default=as_tuple((0, 2, 6)))
        add_kernel_flags(p)
        p.add_argument("--w-bound", type=sci_int, default=7)
        p.add_argument("--b0", type=sci_int, default=None)
        p.add_argument("--allow-small-window", action="store_true")

    p = add("sieve", cmd_sieve, help="divisor-sum weights and moment sums")
    add_sieve_flags(p)
    p.add_argument(
        "--range-half",
        action="store_true",
        help="scan the upper half [N, 2N) of the doubled window (default [1, N])",
    )
    p.add_argument("--unrestricted", action="store_true")
    p.add_argument("--threads", type=positive_sci_int, default=1)
    p.add_argument("--satz", type=positive_sci_int, default=None, metavar="M")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("goldbach-scan", cmd_goldbach_scan, help="mirrored-window prime scan")
    add_sieve_flags(p)
    p.add_argument(
        "--target",
        type=positive_sci_int,
        default=None,
        help="even number to split (default: N)",
    )

    p = add("density", cmd_density, help="prime-difference census with threshold")
    p.add_argument("--limit", type=positive_sci_int, required=True)
    p.add_argument("--threshold", type=positive_sci_int, default=1)
    p.add_argument("--max-diff", type=positive_sci_int, default=10_000)
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = add("gaps", cmd_gaps, help="cell scans and gap-compatible subsequences")
    p.add_argument("--beta", type=float_list, default=None)
    p.add_argument("--gap-limit", type=positive_sci_int, default=10**6)
    p.add_argument("--tol", type=float, default=0.05)
    p.add_argument("--min-len", type=sci_int, default=2)
    p.add_argument("--tuple", type=offsets_arg, default=None)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--m", type=sci_int, default=1)
    p.add_argument("--n-cells", type=sci_int, default=None)
    p.add_argument("--lo", type=positive_sci_int, default=1)
    p.add_argument("--hi", type=positive_sci_int, default=10**4)
    p.add_argument("--min-singletons", type=sci_int, default=1)
    p.add_argument("--modulus", type=positive_sci_int, default=None)
    p.add_argument("--residue", type=sci_int, default=0)

    return parser, submap


def _config_value(action, key: str, text: str, command: str) -> None:
    """Check a config-file value as argparse checks the flag: its type,
    then its choices."""
    try:
        value = text if action.type is None else action.type(text)
    except (argparse.ArgumentTypeError, ValueError) as e:
        raise ParameterConditionError(f"bad value for {key!r} in [{command}]: {e}")
    if action.choices is not None and value not in action.choices:
        raise ParameterConditionError(
            f"{key!r} in [{command}] must be one of {list(action.choices)}, "
            f"got {value!r}"
        )


def _given_dests(command: str, tokens) -> set[str]:
    """The dests of the flags among tokens, matched exactly (`--x` or
    `--x=value`)."""
    actions = build_parser()[1][command]._option_string_actions
    named = {tok.split("=", 1)[0] for tok in tokens}
    return {actions[opt].dest for opt in named if opt in actions}


def _config_flags(path: str, command: str, explicit) -> list[str]:
    """The [command] section of the INI file as flag tokens: a true boolean
    key adds its flag, a false one nothing, and a key yields to an explicit
    flag that sets the same dest (a mode key to any mode flag)."""
    ini = configparser.ConfigParser()
    ini.optionxform = str  # keep key case, --N and --n-cells must stay distinct
    try:
        read = ini.read(path)
    except configparser.Error as e:
        raise ParameterConditionError(f"bad config file: {e}")
    if not read:
        raise ParameterConditionError(f"config file {path!r} not found")
    if command not in ini:
        return []
    # keys are long option names (dashes or underscores), e.g. `max-diff = 200`
    actions = build_parser()[1][command]._option_string_actions
    flags = {opt[2:].replace("-", "_"): opt for opt in actions if opt[:2] == "--"}
    given = _given_dests(command, explicit)
    section = ini[command]
    tokens = []
    for raw_key, raw_val in section.items():
        opt = flags.get(raw_key.replace("-", "_"))
        if opt is None:
            raise ParameterConditionError(
                f"unknown option {raw_key!r} in config section [{command}]"
            )
        action = actions[opt]
        if action.nargs == 0:
            try:
                on = section.getboolean(raw_key)
            except ValueError:
                raise ParameterConditionError(
                    f"flag {raw_key!r} in [{command}] must be boolean, got {raw_val!r}"
                )
            if on and action.dest not in given:
                tokens.append(opt)
        else:
            _config_value(action, raw_key, raw_val, command)
            tokens.append(f"{opt}={raw_val}")
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, submap = build_parser()
    try:
        # the config section goes in as flags just after the command, so
        # the explicit flags that follow it win
        pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
        pre.add_argument("--config")
        pre.add_argument("rest", nargs=argparse.REMAINDER)
        known, stray = pre.parse_known_args(argv)
        # an unknown flag before the command (--conf): name it, rather than
        # the value after it as a bad command
        stray = [tok for tok in stray if tok not in parser._option_string_actions]
        if stray:
            parser.error(f"unrecognized arguments: {' '.join(stray)}")
        command = known.rest[0] if known.rest else None
        at = len(argv) - len(known.rest) + 1
        if known.config and command in submap:
            argv[at:at] = _config_flags(known.config, command, argv[at:])
        args = parser.parse_args(argv)
        # every flag after the command, config keys included, counts as
        # given whatever its value; refuse_ignored reads this set
        args.given = _given_dests(args.command, argv[at:])
        emit(args, args.func(args))
        return 0
    except (ResourceBudgetError, MemoryError) as e:  # numpy's names the array
        print(f"resource budget exceeded: {e}", file=sys.stderr)
        return 3
    except InvariantViolationError as e:
        print(f"invariant violated: {e}", file=sys.stderr)
        return 5
    except (ValueError, OverflowError) as e:  # ParameterConditionError too
        print(f"parameter error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
