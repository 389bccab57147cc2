"""Command-line workbench: one subcommand per module, reproducible outputs.

Every run resolves its full configuration up front and embeds it in the
output (CSV comment header or JSON config block) along with the tool
version.  No timestamps, no environment leakage: identical arguments give
byte-identical files.  Exit codes: 0 success, 2 usage, 3 resource budget,
4 parameter condition, 5 internal invariant.
"""

from __future__ import annotations

import argparse
import configparser
import decimal
import os
import sys

import numpy as np

from . import __version__, cells, graphs, primes, sieve, variational
from .errors import (
    InvariantViolationError,
    ParameterConditionError,
    ResourceBudgetError,
)
from .reportio import csv_cell, csv_lines, stable_json
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


def config_header_lines(config: dict) -> list[str]:
    lines = [f"# tool_version={__version__}"]
    for key in sorted(config):
        lines.append(f"# {key}={csv_cell(config[key])}")
    return lines


def json_document(config: dict, payload: dict) -> str:
    return stable_json(
        {"tool_version": __version__, "config": config, "result": payload}
    )


# ---------------------------------------------------------------------------
# primes


def cmd_primes(args) -> int:
    config = {"limit": args.limit, "mode": args.mode}
    if args.mode == "stats":
        table = primes.sieve_range(0, args.limit + 1)
        largest = int(table.primes[-1]) if table.count() else 0
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
        diffs, n_pairs = np.array(sorted(counts.items()), dtype=np.int64).T
        body = csv_lines(["diff", "count"], [diffs, n_pairs])
    else:  # normalized-gaps
        seq = primes.normalized_gaps(args.limit)
        body = csv_lines(["p", "gap", "normalized"], [seq.p, seq.gap, seq.normalized])
    emit(args, "\n".join(config_header_lines(config)) + "\n" + body)
    return 0


# ---------------------------------------------------------------------------
# variational


def cmd_variational(args) -> int:
    if args.psi is not None:
        psi = None if args.psi == "loglog" else float(args.psi)
        params = variational.schedule_params(args.k, c=args.c, psi=psi)
    else:
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
        payload["fourier"] = variational.fourier_kernel_check(seed=args.seed).as_dict()
    emit(args, json_document(config, payload))
    return 0


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


def cmd_sieve(args) -> int:
    cfg = _sieve_config(args)
    if args.range_half:
        lo, hi = cfg.N, 2 * cfg.N - 1
    else:
        lo, hi = 1, cfg.N
    threads = args.threads or os.cpu_count() or 1
    rep = sieve.moment_sums(
        cfg, lo, hi, restrict=not args.unrestricted, threads=threads
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
        emit(args, json_document(config, payload))
        return 0
    header = sieve.MomentReport.csv_header(cfg.k)
    row = rep.csv_row(cfg)
    if args.satz:
        header = header + [f"satz_{args.satz}"]
        row = row + [rep.satz(args.satz)]
    body = csv_lines(header, [[v] for v in row])
    emit(args, "\n".join(config_header_lines(config)) + "\n" + body)
    return 0


# ---------------------------------------------------------------------------
# goldbach scan


def cmd_goldbach_scan(args) -> int:
    cfg = _sieve_config(args)
    rep = sieve.goldbach_window_scan(cfg, N=args.target)
    config = _flat_sieve_config(cfg)
    config["target"] = rep.N
    emit(args, json_document(config, rep.as_dict()))
    return 0


# ---------------------------------------------------------------------------
# density


def cmd_density(args) -> int:
    rep = graphs.empirical_polignac_density(
        args.limit, threshold=args.threshold, max_diff=args.max_diff
    )
    config = {
        "limit": args.limit,
        "threshold": args.threshold,
        "max_diff": args.max_diff,
    }
    payload = rep.as_dict()
    payload.pop("counts")  # bulky; the per-difference columns live in CSV mode
    if args.format == "csv":
        diffs, counts = np.array(sorted(rep.counts.items()), dtype=np.int64).T
        body = csv_lines(
            ["diff", "count", "is_exception"],
            [diffs, counts, np.isin(diffs, rep.exceptions)],
        )
        emit(args, "\n".join(config_header_lines(config)) + "\n" + body)
        return 0
    emit(args, json_document(config, payload))
    return 0


# ---------------------------------------------------------------------------
# gaps


def cmd_gaps(args) -> int:
    if args.beta is not None:
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
            "indices": list(res.indices),
            "values": list(res.values),
            "label": "gap set is the empirical normalized-gap value set, a proxy",
        }
        emit(args, json_document(config, payload))
        return 0
    # singleton-cell scan mode
    if args.tuple is None:
        raise ParameterConditionError("scan mode needs --tuple (or pass --beta)")
    if args.n_cells is not None:
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
    emit(args, "\n".join(config_header_lines(config)) + "\n" + scan.csv())
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sievelab",
        description="number-theory workbench: sieve weights, tuples, graphs, gaps",
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
        sp = subs.add_parser(name, **kw)
        sp.set_defaults(func=func)
        sp.add_argument("--output", help="write here instead of stdout")
        submap[name] = sp
        return sp

    p = add("primes", cmd_primes, help="prime tables and gap statistics")
    p.add_argument("--limit", type=positive_sci_int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--stats", dest="mode", action="store_const", const="stats"
    )
    mode.add_argument(
        "--goldbach-gaps", dest="mode", action="store_const", const="goldbach-gaps"
    )
    mode.add_argument(
        "--gap-counts", dest="mode", action="store_const", const="gap-counts"
    )
    mode.add_argument(
        "--normalized-gaps",
        dest="mode",
        action="store_const",
        const="normalized-gaps",
    )
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
    p.add_argument("--threads", type=positive_sci_int, default=None)
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


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _config_value(action, key: str, text: str, command: str):
    """A config-file value checked as argparse checks the flag: its type,
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
    return value


def _apply_config_file(path: str, command: str, subparser) -> None:
    ini = configparser.ConfigParser()
    ini.optionxform = str  # keep key case, --N and --n-cells must stay distinct
    try:
        read = ini.read(path)
    except configparser.Error as e:
        raise ParameterConditionError(f"bad config file: {e}")
    if not read:
        raise ParameterConditionError(f"config file {path!r} not found")
    if command not in ini:
        return
    # keys are long option names (dashes or underscores), e.g. `max-diff = 200`
    actions = {}
    for a in subparser._actions:
        for opt in a.option_strings:
            if opt.startswith("--"):
                actions[opt[2:].replace("-", "_")] = a
    overrides = {}
    for raw_key, raw_val in ini[command].items():
        key = raw_key.replace("-", "_")
        if key not in actions:
            raise ParameterConditionError(
                f"unknown option {raw_key!r} in config section [{command}]"
            )
        action = actions[key]
        if isinstance(
            action, (argparse._StoreTrueAction, argparse._StoreConstAction)
        ):
            low = raw_val.strip().lower()
            if low in _BOOL_TRUE:
                overrides[action.dest] = (
                    True
                    if isinstance(action, argparse._StoreTrueAction)
                    else action.const
                )
            elif low in _BOOL_FALSE:
                overrides[action.dest] = action.default
            else:
                raise ParameterConditionError(
                    f"flag {raw_key!r} in [{command}] must be boolean, got {raw_val!r}"
                )
        else:
            overrides[action.dest] = _config_value(action, raw_key, raw_val, command)
        action.required = False  # the config value satisfies required flags
    for group in subparser._mutually_exclusive_groups:
        if group.required and any(a.dest in overrides for a in group._group_actions):
            group.required = False
    subparser.set_defaults(**overrides)


def _find_command(argv, submap) -> str | None:
    skip_next = False
    for tok in argv:
        if skip_next:
            skip_next = False
            continue
        if tok == "--config":
            skip_next = True
            continue
        if tok.startswith("-"):
            continue
        return tok if tok in submap else None
    return None


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, submap = build_parser()
    try:
        # apply config-file defaults before the real parse so explicit flags win
        pre = argparse.ArgumentParser(add_help=False)
        pre.add_argument("--config")
        pre_args, _ = pre.parse_known_args(argv)
        if pre_args.config:
            command = _find_command(argv, submap)
            if command:
                _apply_config_file(pre_args.config, command, submap[command])
        args = parser.parse_args(argv)
        return args.func(args)
    except ParameterConditionError as e:
        print(f"parameter error: {e}", file=sys.stderr)
        return 4
    except ResourceBudgetError as e:
        print(f"resource budget exceeded: {e}", file=sys.stderr)
        return 3
    except InvariantViolationError as e:
        print(f"invariant violated: {e}", file=sys.stderr)
        return 5
    except (ValueError, OverflowError) as e:
        print(f"parameter error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
