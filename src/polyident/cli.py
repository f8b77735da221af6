"""Command-line interface: `verify <suite>`, `eval <fn> <args...>`, `list`.

Exit codes: 0 all checks pass, 1 at least one failed, 2 on configuration,
usage or precision errors.  Rationals cross this boundary as "p/q"
strings; nothing on the exact side ever parses floating point.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp

from . import classical, continuous, racah
from .errors import ConfigError, PolyidentError
from .exact import format_rational, parse_rational
from .report import emit, exit_status
from .suites import REGISTRY, SUITE_NAMES, SuiteConfig, run_suite

_CONFIG_KEYS = {
    "alphas": str,
    "l_max": int,
    "m_max": int,
    "addition_n_max": int,
    "hermite_lm_max": int,
    "biorthogonality_max": int,
    "alpha_powers": str,
    "limit_lm_max": int,
    "precision_digits": int,
    "integral_tolerance": str,
    "pointwise_tolerance": str,
    "t_max": str,
    "truncation_budget": int,
    "jobs": int,
    "format": str,
    "timings": bool,
}


def _parse_alphas(text: str) -> tuple[Fraction, ...]:
    values = tuple(parse_rational(p) for p in text.split(",") if p.strip())
    if not values:
        raise ConfigError("alphas must contain at least one rational")
    return values


def _parse_powers(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for alpha_powers: {text!r}") from exc


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def load_config_file(path: str) -> dict:
    """Flat key-value text: one `key = value` per line, `#` comments."""
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        caster = _CONFIG_KEYS[key]
        try:
            values[key] = _BOOLEANS[value.lower()] if caster is bool else caster(value)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def build_config(args) -> tuple[SuiteConfig, str]:
    """Merge config file values and command-line flags; flags win."""
    values: dict = {}
    if args.config:
        values.update(load_config_file(args.config))
    fmt = values.pop("format", "text")
    flag_map = {
        "alphas": args.alphas,
        "l_max": args.l_max,
        "m_max": args.m_max,
        "addition_n_max": args.n_max,
        "hermite_lm_max": args.hermite_lm_max,
        "biorthogonality_max": args.bio_max,
        "alpha_powers": args.alpha_powers,
        "limit_lm_max": args.limit_lm_max,
        "precision_digits": args.precision_digits,
        "integral_tolerance": args.integral_tolerance,
        "pointwise_tolerance": args.pointwise_tolerance,
        "t_max": args.t_max,
        "truncation_budget": args.truncation_budget,
        "jobs": args.jobs,
        "timings": args.timings or None,
    }
    for key, value in flag_map.items():
        if value is not None:
            values[key] = value
    if args.format is not None:
        fmt = args.format
    if "alphas" in values and isinstance(values["alphas"], str):
        values["alphas"] = _parse_alphas(values["alphas"])
    if "alpha_powers" in values and isinstance(values["alpha_powers"], str):
        values["alpha_powers"] = _parse_powers(values["alpha_powers"])
    if "timings" in values:
        values["timings"] = bool(values["timings"])
    try:
        config = SuiteConfig(**values)
    except TypeError as exc:
        raise ConfigError(f"bad configuration: {exc}") from exc
    if fmt not in ("text", "json-lines"):
        raise ConfigError(f"unknown format {fmt!r}")
    return config, fmt


def cmd_verify(args) -> int:
    config, fmt = build_config(args)
    reports = run_suite(args.suite, config)
    sys.stdout.write(emit(reports, fmt))
    return exit_status(reports)


def _eval_rational_list(values) -> str:
    return ", ".join(format_rational(v) for v in values)


#: eval function -> names of its positional arguments
_EVAL_ARGUMENTS = {
    "gegenbauer": ("n", "alpha"),
    "hermite": ("n",),
    "racah": ("n", "x", "alpha", "beta", "gamma", "delta"),
    "phi": ("lambda", "alpha", "beta", "t"),
    "wilson": ("n", "x^2", "lambda", "mu", "alpha"),
}


def _eval_arguments(args) -> tuple[list[str], int]:
    """The function's arguments and the precision in digits.

    ``--precision-digits`` may also follow the arguments, which reach here
    unparsed so that negative rationals such as -1/2 stay arguments.
    """
    tail = argparse.ArgumentParser(prog=f"polyident eval {args.fn}", add_help=False)
    tail.add_argument("--precision-digits", dest="precision_digits", type=int,
                      default=args.precision_digits)
    known, rest = tail.parse_known_args(args.args)
    prec = 60 if known.precision_digits is None else known.precision_digits
    if prec < 1:
        raise ConfigError(f"--precision-digits must be a positive integer, got {prec}")
    names = _EVAL_ARGUMENTS[args.fn]
    if len(rest) != len(names):
        raise ConfigError(
            f"eval {args.fn} takes {len(names)} argument(s) ({' '.join(names)}), "
            f"got {len(rest)}: {' '.join(rest)}"
        )
    return rest, prec


def cmd_eval(args) -> int:
    fn = args.fn
    rest, prec = _eval_arguments(args)
    try:
        if fn == "gegenbauer":
            n, alpha = int(rest[0]), parse_rational(rest[1])
            print(_eval_rational_list(classical.gegenbauer_r(n, alpha).coeffs))
        elif fn == "hermite":
            (n,) = (int(rest[0]),)
            print(_eval_rational_list(classical.hermite(n).coeffs))
        elif fn == "racah":
            n, x = int(rest[0]), int(rest[1])
            alpha, beta, gamma, delta = (parse_rational(p) for p in rest[2:6])
            if gamma.denominator != 1 or -gamma - 1 < 1:
                raise ConfigError("gamma must be a negative integer -N-1 with N >= 1")
            sys_ = racah.RacahSystem(alpha, beta, gamma, delta, N=int(-gamma - 1))
            print(format_rational(racah.racah_eval(n, x, sys_)))
        elif fn == "phi":
            lam, alpha, beta, t = (parse_rational(p) for p in rest[:4])
            value = continuous.phi(
                continuous.to_mpf(lam, prec), alpha, beta, t, prec
            )
            if abs(mp.im(value)) < mp.mpf(10) ** (-prec + 10) * (1 + abs(value)):
                value = mp.re(value)
            print(mp.nstr(value, prec))
        elif fn == "wilson":
            n = int(rest[0])
            xsq, lam, mu, alpha = (parse_rational(p) for p in rest[1:5])
            params = continuous.WilsonParams.from_spectral(lam, mu, alpha, prec)
            value = continuous.wilson_poly(n, xsq, params, prec)
            print(mp.nstr(value, prec))
        else:
            raise ConfigError(f"unknown function {fn!r}")
    except ValueError as exc:
        raise ConfigError(f"bad arguments for {fn}: {exc}") from exc
    return 0


def cmd_list(args) -> int:
    width = max(len(identity) for identity in REGISTRY)
    suite_w = max(len(declared.suite) for declared in REGISTRY.values())
    for identity, declared in sorted(REGISTRY.items()):
        suite = declared.suite.ljust(suite_w)
        print(f"{identity.ljust(width)}  {suite}  {declared.description}")
    return 0


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alphas", help="comma-separated rationals, e.g. 0,1/2,1,7/3")
    p.add_argument("--l-max", dest="l_max", type=int)
    p.add_argument("--m-max", dest="m_max", type=int)
    p.add_argument("--n-max", dest="n_max", type=int,
                   help="degree cap for the classical addition checks")
    p.add_argument("--hermite-lm-max", dest="hermite_lm_max", type=int)
    p.add_argument("--bio-max", dest="bio_max", type=int)
    p.add_argument("--alpha-powers", dest="alpha_powers",
                   help="dyadic exponents, e.g. 4..16 or 4,6,8")
    p.add_argument("--limit-lm-max", dest="limit_lm_max", type=int)
    p.add_argument("--precision-digits", dest="precision_digits", type=int)
    p.add_argument("--integral-tolerance", dest="integral_tolerance")
    p.add_argument("--pointwise-tolerance", dest="pointwise_tolerance")
    p.add_argument("--t-max", dest="t_max")
    p.add_argument("--truncation-budget", dest="truncation_budget", type=int)
    p.add_argument("--jobs", type=int, help="worker processes (default: all cores)")
    p.add_argument("--format", choices=("text", "json-lines"))
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--timings", action="store_true", default=False,
                   help="record wall-clock milliseconds (off keeps output byte-stable)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyident",
        description="verify orthogonal-polynomial identities exactly or to high precision",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    _add_grid_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_eval = sub.add_parser("eval", help="evaluate one function")
    p_eval.add_argument("fn", choices=tuple(_EVAL_ARGUMENTS))
    p_eval.add_argument("args", nargs=argparse.REMAINDER)
    p_eval.add_argument("--precision-digits", dest="precision_digits", type=int)
    p_eval.set_defaults(func=cmd_eval)

    p_list = sub.add_parser("list", help="enumerate identity ids")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except PolyidentError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
