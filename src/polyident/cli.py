"""Command-line interface: `verify <suite>`, `eval <fn> <args...>`, `list`.

Exit codes: 0 all checks pass, 1 at least one failed, 2 on configuration,
usage or precision errors.  Rationals cross this boundary as text that
:func:`~polyident.exact.parse_rational` reads exactly (integers, "p/q" and
finite decimals); nothing on the exact side ever parses floating point.

Each command returns its exit status and its output text; :func:`main`
writes the text, so a reader that stops early (``| head``) costs no
traceback and leaves the status as it was.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import typing
from fractions import Fraction
from pathlib import Path

from . import classical, continuous, racah
from .errors import ConfigError, DomainError, PolyidentError
from .exact import format_rational, parse_rational
from .lazy import lazy_import
from .report import emit, exit_status
from .suites import PRECISION_CEILING, REGISTRY, SUITE_NAMES, SuiteConfig, run_suite

mp = lazy_import("mpmath")


def _parse_alphas(text: str) -> tuple[Fraction, ...]:
    values = tuple(parse_rational(p) for p in text.split(",") if p.strip())
    if not values:
        raise ConfigError("alphas must contain at least one rational")
    return values


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}

#: SuiteConfig field -> its type: the one list of `verify` flags and
#: config-file keys
_HINTS = typing.get_type_hints(SuiteConfig)
_FIELDS = {f.name: _HINTS[f.name] for f in dataclasses.fields(SuiteConfig)}

#: field type -> reader of a flag's or a config line's text; alphas stays
#: text until build_config parses it
_READERS = {int: int, bool: lambda text: _BOOLEANS[text.lower()]}

#: config-file key -> reader of its value: every field, plus the output format
_CONFIG_READERS = {name: _READERS.get(hint, str) for name, hint in _FIELDS.items()}
_CONFIG_READERS["format"] = str

#: the flags' help strings
_FLAG_HELP = {
    "alphas": "comma-separated rationals, e.g. 0,1/2,1,7/3",
    "jobs": "worker processes (default: all cores)",
    "timings": "record wall-clock milliseconds (off keeps output byte-stable)",
}


def load_config_file(path: str) -> dict:
    """Flat key-value text: one `key = value` per line, `#` comments."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ConfigError(f"{path}: cannot read config file: {reason}") from exc
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_READERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_READERS[key](value)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def build_config(args) -> tuple[SuiteConfig, str]:
    """Merge config file values and command-line flags; flags win."""
    values = load_config_file(args.config) if args.config else {}
    fmt = values.pop("format", "text")
    if args.format is not None:
        fmt = args.format
    for name in _FIELDS:
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)
    if "alphas" in values:
        values["alphas"] = _parse_alphas(values["alphas"])
    config = SuiteConfig(**values)
    if fmt not in ("text", "json-lines"):
        raise ConfigError(f"unknown format {fmt!r}")
    return config, fmt


def cmd_verify(args) -> tuple[int, str]:
    config, fmt = build_config(args)
    reports = run_suite(args.suite, config)
    return exit_status(reports), emit(reports, fmt)


def _exact_text(values) -> str:
    """Rationals as comma-separated "p/q" text."""
    try:
        return ", ".join(map(format_rational, values))
    except ValueError as exc:  # an integer beyond sys.get_int_max_str_digits()
        raise DomainError(f"the result has an integer of more than "
                          f"{sys.get_int_max_str_digits()} digits, too long to print") from exc


def _eval_gegenbauer(n, alpha, *, prec) -> str:
    return _exact_text(classical.gegenbauer_r(n, alpha).coeffs)


def _eval_hermite(n, *, prec) -> str:
    return _exact_text(classical.hermite(n).coeffs)


def _eval_racah(n, x, alpha, beta, gamma, delta, *, prec) -> str:
    if gamma.denominator != 1 or gamma >= 0:
        raise ConfigError("gamma must be a negative integer -N-1, N >= 0")
    N = int(-gamma - 1)
    if N > MAX_RACAH_N:
        raise DomainError(f"eval racah takes N = -gamma-1 <= {MAX_RACAH_N}, got N = {N}")
    system = racah.RacahSystem(alpha, beta, gamma, delta, N=N)
    return _exact_text([racah.racah_eval(n, x, system)])


def _eval_phi(lam, alpha, beta, t, *, prec) -> str:
    with continuous.working_precision(prec):
        value = continuous.phi(continuous.to_mpf(lam), alpha, beta, t)
        if abs(mp.im(value)) < continuous.agreement_bound() * (1 + abs(value)):
            value = mp.re(value)
        return mp.nstr(value, prec)


def _eval_wilson(n, xsq, lam, mu, alpha, *, prec) -> str:
    with continuous.working_precision(prec):
        params = continuous.WilsonParams.from_spectral(lam, mu, alpha)
        return mp.nstr(continuous.wilson_poly(n, xsq, params), prec)


#: eval function -> (names of its positional arguments, evaluator of their
#: parsed values to a number of digits; phi and wilson compute at that
#: working precision, the exact ones load no mpmath)
_EVALUATORS = {
    "gegenbauer": (("n", "alpha"), _eval_gegenbauer),
    "hermite": (("n",), _eval_hermite),
    "racah": (("n", "x", "alpha", "beta", "gamma", "delta"), _eval_racah),
    "phi": (("lambda", "alpha", "beta", "t"), _eval_phi),
    "wilson": (("n", "x^2", "lambda", "mu", "alpha"), _eval_wilson),
}

#: the eval arguments read as integers; every other one is a rational
_INTEGER_ARGUMENTS = frozenset({"n", "x"})

#: polynomial eval -> the largest degree n it takes.  Beyond the bound one
#: value takes seconds: gegenbauer at n = 3000 takes 4.4 s, and wilson,
#: whose sum needs more digits as n grows, 2.3 s at n = 1000 and 16 s at
#: n = 2000.
MAX_DEGREE = {"gegenbauer": 2000, "hermite": 2000, "wilson": 1000}

#: the largest Racah system size N = -gamma-1 that eval racah takes: its
#: validation grows with N, and one value at N = 2000 takes 5 s
MAX_RACAH_N = 1000


def _eval_arguments(args) -> tuple[list, int]:
    """The function's arguments, parsed, and the precision in digits.

    ``--precision-digits`` may also follow the arguments, which reach here
    unparsed so that negative rationals such as -1/2 stay arguments.  Only
    an integer argument that does not parse reads "bad arguments"; a
    rational one that does not parse is a DomainError.
    """
    tail = argparse.ArgumentParser(prog=f"polyident eval {args.fn}", add_help=False,
                                   allow_abbrev=False)
    tail.add_argument("--precision-digits", dest="precision_digits", type=int,
                      default=args.precision_digits)
    known, rest = tail.parse_known_args(args.args)
    prec = known.precision_digits
    if prec < 1:
        raise ConfigError(f"--precision-digits must be a positive integer, got {prec}")
    if prec > PRECISION_CEILING:
        raise ConfigError(f"precision_digits must be <= {PRECISION_CEILING}, got {prec}")
    names = _EVALUATORS[args.fn][0]
    if len(rest) != len(names):
        raise ConfigError(
            f"eval {args.fn} takes {len(names)} argument(s) ({' '.join(names)}), "
            f"got {len(rest)}: {' '.join(rest)}"
        )
    values = []
    for name, text in zip(names, rest):
        if name not in _INTEGER_ARGUMENTS:
            values.append(parse_rational(text))
            continue
        try:
            values.append(int(text))
        except ValueError as exc:
            raise ConfigError(f"bad arguments for {args.fn}: {exc}") from exc
    bound = MAX_DEGREE.get(args.fn)
    if bound is not None and values[0] > bound:  # each of them takes n first
        raise DomainError(f"eval {args.fn} takes a degree n <= {bound}, got {values[0]}")
    return values, prec


def cmd_eval(args) -> tuple[int, str]:
    values, prec = _eval_arguments(args)
    return 0, _EVALUATORS[args.fn][1](*values, prec=prec) + "\n"


def cmd_list(args) -> tuple[int, str]:
    width = max(len(identity) for identity in REGISTRY)
    suite_w = max(len(declared.suite) for declared in REGISTRY.values())
    return 0, "".join(
        f"{identity.ljust(width)}  {declared.suite.ljust(suite_w)}  {declared.description}\n"
        for identity, declared in sorted(REGISTRY.items())
    )


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    """One flag per SuiteConfig field, its name with `_` spelled `-`; an
    absent flag leaves the field to the config file."""
    for name, hint in _FIELDS.items():
        flag = "--" + name.replace("_", "-")
        if hint is bool:
            p.add_argument(flag, dest=name, action="store_true", default=None,
                           help=_FLAG_HELP.get(name))
        else:
            p.add_argument(flag, dest=name, type=_READERS.get(hint, str),
                           help=_FLAG_HELP.get(name))
    p.add_argument("--format", choices=("text", "json-lines"))
    p.add_argument("--config", help="flat key = value configuration file")


def make_parser() -> argparse.ArgumentParser:
    """The command line; every parser takes only full flag names, so a flag
    that is a prefix of another (``--prec``) is unrecognized, exit 2."""
    parser = argparse.ArgumentParser(
        prog="polyident",
        description="verify orthogonal-polynomial identities exactly or to high precision",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite", allow_abbrev=False)
    p_verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    _add_grid_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_eval = sub.add_parser("eval", help="evaluate one function", allow_abbrev=False)
    p_eval.add_argument("fn", choices=tuple(_EVALUATORS))
    p_eval.add_argument("args", nargs=argparse.REMAINDER)
    p_eval.add_argument("--precision-digits", dest="precision_digits", type=int,
                        default=SuiteConfig.precision_digits)
    p_eval.set_defaults(func=cmd_eval)

    p_list = sub.add_parser("list", help="enumerate identity ids", allow_abbrev=False)
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        status, text = args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except PolyidentError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early; what is left goes to devnull, so the
        # interpreter's flush at exit finds no broken pipe to report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
