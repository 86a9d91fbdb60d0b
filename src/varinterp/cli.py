"""Command line entry point.

Subcommands map onto the library: ``norm`` evaluates a variable-exponent
norm of a sampled function, ``kfunc`` evaluates K-functionals, ``rearrange``
prints a non-increasing rearrangement profile, ``check`` runs one suite
check, and ``suite`` runs a configured batch and writes report files.
The JSON of couples and functions is decoded here, and only here.

Exit codes: 0 success/pass, 1 check failure, 2 usage or config error,
3 numerical divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys

from .couples import Couple, NormSpec, k_functional
from .errors import (
    ConfigError,
    ConstructionError,
    DivergenceError,
    InvalidExponentError,
)
from .exponents import ExponentFunction
from .rearrange import AtomFunction, rearrangement
from .suite import CheckSuiteConfig, run_check, run_check_suite
from .varleb import HaarGrid, SampledFunction, luxemburg_norm

__all__ = ["main", "parse_exponent"]


def parse_exponent(source):
    """Parse DSL source with optional ``@0=`` / ``@inf=`` limit annotations.

    The annotations are from_expression's p_at_zero and p_at_infinity: one
    is needed only at an end where the expression is indeterminate, and
    one at any other end must agree with the expression's limit there.
    """
    head, *annotations = source.split("@")
    limits = {}
    for ann in annotations:
        ann = ann.strip()
        if ann.startswith("0="):
            limits["p_at_zero"] = float(ann[2:])
        elif ann.startswith("inf="):
            limits["p_at_infinity"] = float(ann[4:])
        else:
            raise InvalidExponentError(f"unknown annotation '@{ann}'")
    return ExponentFunction.from_expression(head.strip(), **limits)


def _load_json(arg):
    """Accept inline JSON or a path to a JSON file."""
    text = arg.strip()
    if not text.startswith(("{", "[")):
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="varinterp",
        description="Variable-exponent real interpolation toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="Luxemburg norm of a sampled function")
    p_norm.add_argument("--exponent", required=True,
                        help="exponent DSL source, e.g. '2 + 1/log(e + 1/t)'")
    p_norm.add_argument("--function", required=True,
                        help="sampled-function JSON (inline or a file path)")

    p_kfunc = sub.add_parser("kfunc", help="K-functional values on a couple")
    p_kfunc.add_argument("--couple", required=True,
                         help="couple JSON (inline or a file path)")
    p_kfunc.add_argument("--function", required=True,
                         help="element JSON: vector or atom list")
    p_kfunc.add_argument("--t", required=True,
                         help="comma-separated positive parameters")

    p_rearr = sub.add_parser("rearrange",
                             help="non-increasing rearrangement of an atom function")
    p_rearr.add_argument("--function", required=True,
                         help="atom-function JSON (inline or a file path)")

    p_check = sub.add_parser("check", help="run a single named check")
    p_check.add_argument("check_id")
    p_check.add_argument("--seed", type=int, default=CheckSuiteConfig.seed)
    p_check.add_argument("--trials", type=int, default=CheckSuiteConfig.trials)

    p_suite = sub.add_parser("suite", help="run a configured check suite")
    p_suite.add_argument("--config", required=True,
                         help="suite config JSON (inline or a file path)")
    p_suite.add_argument("--out", default=None,
                         help="report directory (overrides the config)")

    return parser


@contextlib.contextmanager
def _fields(what):
    """Raise a missing, mistyped or invalid field of the JSON for what as
    ConfigError."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{what} JSON has no field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {what} JSON: {exc}") from exc


def _numbers(values):
    """values, a JSON list, if each is an int, a float or "inf" (a norm's p
    takes it, finite fields reject it), not a bool or another string."""
    for x in values:
        if type(x) not in (int, float) and x != "inf":
            raise TypeError(f"{json.dumps(x)} is not a JSON number")
    return values


# the couple JSON of each "kind"; a finite_generic norm is
# {"p": a number >= 1 or "inf", "weights": [...]}
_COUPLES = {
    "weighted_seq": lambda d: Couple.weighted_seq(_numbers(d["w0"]),
                                                  _numbers(d["w1"])),
    "l1_linf": lambda d: Couple.l1_linf(),
    "finite_generic": lambda d: Couple.finite_generic(*(
        NormSpec(*_numbers([d[key]["p"]]), _numbers(d[key]["weights"]))
        for key in ("norm0", "norm1"))),
}


def _couple_from_json(data):
    with _fields("couple"):
        build = _COUPLES.get(data["kind"])
        if build is None:
            raise ConfigError(f"unknown couple kind {data['kind']!r}")
        return build(data)


def _function_from_json(data):
    """A vector [x, ...], an atom function {"atoms": [[value, mass], ...]}
    or a sampled function {"grid": {"V": v, "samples_per_octave": s},
    "values": [...]}. A vector's length and finiteness are the couple's to
    check."""
    with _fields("function"):
        if isinstance(data, list):
            return _numbers(data)
        if "atoms" in data:
            pairs = [_numbers(pair) for pair in data["atoms"]]
            return AtomFunction([v for v, _ in pairs], [m for _, m in pairs])
        if "values" in data:
            return SampledFunction(HaarGrid(**data["grid"]),
                                   _numbers(data["values"]))
    raise ValueError("unrecognized function JSON: expected a vector, an "
                     "atom list, or a sampled function")


def _cmd_norm(args):
    exponent = parse_exponent(args.exponent)
    fn = _function_from_json(_load_json(args.function))
    if not isinstance(fn, SampledFunction):
        raise ValueError("norm expects a sampled function; use rearrange or "
                         "kfunc for atom functions and vectors")
    value = luxemburg_norm(fn, exponent)
    json.dump({"norm": value,
               "exponent": args.exponent,
               "grid": dataclasses.asdict(fn.grid)}, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _cmd_kfunc(args):
    couple = _couple_from_json(_load_json(args.couple))
    fn = _function_from_json(_load_json(args.function))
    ts = [float(part) for part in args.t.split(",") if part.strip()]
    if not ts:
        raise ValueError("--t needs at least one value")
    values = [k_functional(couple, t, fn) for t in ts]
    json.dump({"t": ts, "K": values}, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _cmd_rearrange(args):
    fn = _function_from_json(_load_json(args.function))
    if not isinstance(fn, AtomFunction):
        raise ValueError("rearrange expects an atom function "
                         '({"atoms": [[value, mass], ...]})')
    profile = rearrangement(fn)
    json.dump({"breakpoints": list(profile.breakpoints),
               "levels": list(profile.levels),
               "total_mass": profile.total_mass,
               "l1": profile.l1}, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _cmd_check(args):
    report = run_check(args.check_id, seed=args.seed, trials=args.trials)
    sys.stdout.write(report.to_json())
    return 0 if report.passed else 1


def _cmd_suite(args):
    config = CheckSuiteConfig.from_json_dict(_load_json(args.config))
    if args.out is not None:
        config = dataclasses.replace(config, output_dir=args.out)
    exit_code, reports = run_check_suite(config)
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        sys.stdout.write(f"{report.check}: {status} "
                         f"(instances={report.instances}, "
                         f"constant={report.constant:.6g})\n")
    return exit_code


_COMMANDS = {
    "norm": _cmd_norm,
    "kfunc": _cmd_kfunc,
    "rearrange": _cmd_rearrange,
    "check": _cmd_check,
    "suite": _cmd_suite,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DivergenceError, ConstructionError) as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
