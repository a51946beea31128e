"""Command-line front end.

Exit codes: 0 success, 2 parse/config error or an input the caps cut
down, 3 unsupported configuration for the requested command.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .bases import (
    BASES,
    BaseSpec,
    DiagonalAut,
    Exactness,
    IdentityAut,
    ScaleAut,
    ShiftAut,
    UnsupportedAutomorphism,
)
from .ore import LaurentOrePoly, localizability_probe
from .parsing import (
    ConfigError,
    ParseError,
    format_element,
    parse_config_text,
    parse_expr,
    parse_scalar,
)
from .quotient import (
    CannotCertifyError,
    canonical_representative,
    ideal_member,
    phi,
    phi_table,
    quotient_norm,
    reduce_to_ore,
    vanishing_test,
)
from .tensor import DEFAULT_MAX_DEGREE, DEFAULT_MAX_WORD_LEN, TwistedSeries, twisted_norm


@dataclass(frozen=True)
class SessionConfig:
    spec: BaseSpec
    caps: dict


_CONFIG_KEYS = ("base", "automorphism", "q", "L", "D")
# "free" or "free(<int>)"; the count is checked by BaseSpec
_FREE_BASE = re.compile(r"free(?:\((-?[0-9]+)\))?")


def _build_config(values: dict) -> SessionConfig:
    unknown = [key for key in values if key not in _CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} (known: {', '.join(_CONFIG_KEYS)})")
    base = values.get("base", "entire")
    ngens = 2
    if base.startswith("free"):
        match = _FREE_BASE.fullmatch(base)
        if match is None:
            raise ConfigError(f"bad base spec {base!r}")
        if match[1] is not None:
            ngens = int(match[1])
        base = "free"
    if base not in BASES:
        raise ConfigError(f"unknown base {base!r}")
    aut_name = values.get("automorphism", BASES[base][1][0])

    # malformed values (a zero or unparsable q, a non-integer cap, an
    # automorphism the base does not support) are configuration errors
    try:
        if aut_name == "identity":
            aut = IdentityAut()
        elif aut_name == "shift":
            aut = ShiftAut()
        elif aut_name == "scale":
            aut = ScaleAut(parse_scalar(values.get("q", "2")))
        elif aut_name == "diagonal":
            qs = [parse_scalar(part) for part in values.get("q", "2, 1/2").split(",")]
            aut = DiagonalAut(tuple(qs))
        else:
            raise ConfigError(f"unknown automorphism {aut_name!r}")
        spec = BaseSpec(base, aut, ngens)
        caps = {}
        for key, name, default in (("L", "max_word_len", DEFAULT_MAX_WORD_LEN),
                                   ("D", "max_degree", DEFAULT_MAX_DEGREE)):
            caps[name] = int(values.get(key, default))
            if caps[name] < 0:
                raise ConfigError(f"{key} must be nonnegative, got {caps[name]}")
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc)) from exc
    return SessionConfig(spec, caps)


def load_config(path: str | None) -> SessionConfig:
    values = {}
    if path is not None:
        with open(path) as handle:
            values = parse_config_text(handle.read())
    return _build_config(values)


def _fraction(text: str) -> Fraction:
    """An option's exact value; a zero denominator is as invalid as bad syntax."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _grid(text: str | None, flag: str, single: Fraction) -> list:
    """A grid option's values, or its single-value option's when it is absent."""
    if text is None:
        return [single]
    try:
        return [_fraction(part.strip()) for part in text.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"argument {flag}: {exc}") from None


def _fmt_value(value, spec: str = "") -> str:
    """value as a float in format spec (repr by default); inf and nan are overflows."""
    value = float(value)
    if not math.isfinite(value):
        raise OverflowError
    return format(value, spec)


class UnsupportedCommand(RuntimeError):
    pass


def _base_element(parsed):
    if isinstance(parsed, LaurentOrePoly):
        raise UnsupportedCommand("expected a base-algebra element")
    if any(w for w in parsed.terms):
        raise UnsupportedCommand("expected a base-algebra element without x1/x2")
    return parsed.coefficient(())


def _tagged_norm(parsed, lam, rho) -> tuple[float, Exactness]:
    """norm's and table's value: a series' weighted norm with its tag, or
    the quotient seminorm of a t input's class, which is exact."""
    if isinstance(parsed, LaurentOrePoly):
        return quotient_norm(parsed, lam, rho), Exactness.EXACT
    return twisted_norm(parsed, lam, rho)


# per command: the expression operands it reads, and each option it reads
# besides --config, with its default (None: no default);
# naming another option is an error
_COMMANDS = {
    "mul": (2, {}),
    "norm": (1, {"--lambda": Fraction(1), "--rho": Fraction(1)}),
    "qnorm": (1, {"--lambda": Fraction(1), "--rho": Fraction(1)}),
    "reduce": (1, {"--rho": Fraction(1)}),
    "phi": (1, {"--m": None, "--n": None}),
    "ideal-test": (1, {}),
    "to-ore": (1, {}),
    "localizability": (0, {"--lambda": Fraction(1), "--lambda-grid": None, "--depth": 8}),
    "vanishing": (0, {"--lambda": Fraction(1), "--rho": Fraction(1), "--lambda-grid": None,
                      "--rho-grid": None, "--depth": 12, "--r": "1", "--format": "text"}),
    "table": (1, {"--lambda": Fraction(1), "--rho": Fraction(1), "--lambda-grid": None,
                  "--rho-grid": None}),
}

def run_command(args, config: SessionConfig) -> int:
    cmd = args.command
    needed, options = _COMMANDS[cmd]
    if len(args.exprs) != needed:
        raise ValueError(f"{cmd} takes {needed} expression{'' if needed == 1 else 's'},"
                         f" got {len(args.exprs)}")
    unread = [flag for flag in args.given if flag not in options]
    if unread:
        raise ValueError(f"{cmd} does not read {', '.join(unread)}")
    for single, grid in (("--lambda", "--lambda-grid"), ("--rho", "--rho-grid")):
        if single in args.given and grid in args.given:
            raise ValueError(f"{cmd} takes {single} or {grid}, not both")
    truncated = False

    def admit(obj):
        # norm and table tag a value the caps cut down; the others refuse it
        nonlocal truncated
        if obj.truncated:
            if cmd not in ("norm", "table"):
                raise ValueError(f"terms beyond the caps L = {config.caps['max_word_len']}"
                                 f" and D = {config.caps['max_degree']} were dropped")
            truncated = True
        return obj

    def parse(source: str):
        return admit(parse_expr(source, config.spec, config.caps))

    # every line is formatted before any is printed, so a failure prints nothing
    lines = []
    if cmd == "mul":
        lhs, rhs = parse(args.exprs[0]), parse(args.exprs[1])
        if type(lhs) is not type(rhs):
            # a factor without t or x1/x2 lives in the base algebra and
            # can be lifted into the Ore picture of the other factor
            def lift(obj):
                if isinstance(obj, TwistedSeries) and not any(obj.terms):
                    return LaurentOrePoly(config.spec, {0: obj.coefficient(())})
                return obj

            lhs, rhs = lift(lhs), lift(rhs)
        if type(lhs) is not type(rhs):
            raise UnsupportedCommand("operands must both use x1/x2 or both use t")
        lines.append(format_element(admit(lhs * rhs)))
    elif cmd == "norm":
        parsed = parse(args.exprs[0])
        value, exactness = _tagged_norm(parsed, args.lam, args.rho)
        lines.append(f"{_fmt_value(value)} ({exactness.value})")
    elif cmd == "qnorm":
        value = quotient_norm(parse(args.exprs[0]), args.lam, args.rho)
        lines.append(_fmt_value(value))
    elif cmd == "reduce":
        rep = canonical_representative(parse(args.exprs[0]), args.rho)
        lines.append(format_element(rep.series))
        if rep.dropped:
            dropped = ", ".join(f"(m={m}, n={n})" for m, n in sorted(rep.dropped))
            lines.append(f"dropped classes: {dropped}")
    elif cmd == "phi":
        if (args.m is None) != (args.n is None):
            raise ValueError("phi takes --m and --n together, or neither")
        parsed = parse(args.exprs[0])
        if args.m is not None:
            lines.append(str(phi(parsed, args.m, args.n)))
        else:
            lines = [f"phi({m},{n}) = {value}"
                     for (m, n), value in sorted(phi_table(parsed).items())] or ["0"]
    elif cmd == "ideal-test":
        lines.append("true" if ideal_member(parse(args.exprs[0])) else "false")
    elif cmd == "to-ore":
        lines.append(format_element(reduce_to_ore(parse(args.exprs[0]))))
    elif cmd == "localizability":
        lams = _grid(args.lambda_grid, "--lambda-grid", args.lam)
        for report in localizability_probe(config.spec, lams, args.depth):
            fwd, bwd = report.forward, report.backward
            lines.append(
                f"lambda={_fmt_value(report.lam)}: forward {fwd.verdict}"
                f" (sup ratio {_fmt_value(fwd.sup_ratio, '.6g')})"
                f", inverse {bwd.verdict} (sup ratio {_fmt_value(bwd.sup_ratio, '.6g')})"
            )
            if not report.family_bounded:
                lines.append("  family not certified bounded at this seminorm"
                             " (no negative certificate implied)")
    elif cmd == "vanishing":
        r = _base_element(parse(args.r))
        lams = _grid(args.lambda_grid, "--lambda-grid", args.lam)
        rhos = _grid(args.rho_grid, "--rho-grid", args.rho)
        report = vanishing_test(config.spec, r, lams, rhos, args.depth)
        if args.format == "csv":
            lines.append("lambda,rho,k,value,verdict")
            verdict = report.verdict.value
            lines += [f"{_fmt_value(lam)},{_fmt_value(rho)},{k},{_fmt_value(value)},{verdict}"
                      for lam, rho, k, value in report.rows]
        else:
            lines.append(report.verdict.value)
            if not report.r_invertible and report.verdict.value != "NoDecay":
                lines.append("note: r is not invertible; only membership of the"
                             " closed ideal follows")
    elif cmd == "table":
        parsed = parse(args.exprs[0])
        lams = _grid(args.lambda_grid, "--lambda-grid", args.lam)
        rhos = _grid(args.rho_grid, "--rho-grid", args.rho)
        lines.append("lambda,rho,value,exactness")
        for lam in sorted(lams, key=float):
            for rho in sorted(rhos, key=float):
                value, exactness = _tagged_norm(parsed, lam, rho)
                lines.append(f"{_fmt_value(lam)},{_fmt_value(rho)},{_fmt_value(value)},"
                             f"{exactness.value}")
    for line in lines:
        print(line)
    if truncated:
        print("warning: terms beyond the caps were dropped", file=sys.stderr)
    return 0


class _StoreOnce(argparse.Action):
    """The parser's default action: store the value, unless the argument
    already has one.  Every argument starts at None, and no stored value is
    None, so a repeated option is an error rather than a silent override."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "given more than once")
        setattr(namespace, self.dest, values)


def _build_parser() -> tuple:
    """The parser, and the flag of each command option by its name on the
    parsed namespace."""
    parser = argparse.ArgumentParser(
        prog="skewcalc",
        allow_abbrev=False,
        description="Seminorm analytics for skew polynomial and twisted series algebras",
    )
    parser.register("action", None, _StoreOnce)
    parser.add_argument("--config", metavar="PATH")
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("exprs", nargs="*")
    # no defaults here: an option left at None was not given (see _parse_args)
    options = [
        parser.add_argument("--lambda", dest="lam", type=_fraction),
        parser.add_argument("--rho", type=_fraction),
        parser.add_argument("--lambda-grid", dest="lambda_grid"),
        parser.add_argument("--rho-grid", dest="rho_grid"),
        parser.add_argument("--depth", type=int),
        parser.add_argument("--m", type=int),
        parser.add_argument("--n", type=int),
        parser.add_argument("--r"),
        parser.add_argument("--format", choices=["text", "csv"]),
    ]
    return parser, {option.dest: option.option_strings[0] for option in options}


_PARSER, _FLAGS = _build_parser()


def _parse_args(argv=None) -> argparse.Namespace:
    """The parsed command line; options and operands may come in any order.

    ``parse_known_args`` returns, in argv order, the tokens that neither an
    option nor a positional took: operands after an option, and operands
    that start with '-'.  They follow ``args.exprs``.  Among them, a token
    that starts with '--' is an unknown option unless a '--' came before
    it, and a token that came before the command is rejected, since it
    would be read after the operands that follow the command.  The flags
    of the command options given go to ``args.given``, before the options
    not given take their defaults in ``_COMMANDS``.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args, rest = _PARSER.parse_known_args(argv)
    if rest:
        args.exprs += _leftover_operands(argv, args, rest)
    args.given = [flag for dest, flag in _FLAGS.items() if getattr(args, dest) is not None]
    defaults = _COMMANDS[args.command][1]
    for dest, flag in _FLAGS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, defaults.get(flag))
    return args


def _leftover_operands(argv, args: argparse.Namespace, rest: list) -> list:
    # the leftovers must come after the command and the operands argparse
    # gave it; membership on the iterator consumes it, so this checks that
    # rest is a subsequence of what follows them in argv
    start = 0
    for token in (args.command, *args.exprs):
        start = argv.index(token, start) + 1
    after_exprs = iter(argv[start:])
    operands, unknown = [], []
    separated = False
    for token in rest:
        if token not in after_exprs:
            unknown.append(token)
        elif separated:
            operands.append(token)
        elif token == "--":
            separated = True
        elif token.startswith("--"):
            unknown.append(token)
        else:
            operands.append(token)
    if unknown:
        _PARSER.error(f"unrecognized arguments: {' '.join(unknown)}")
    return operands


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        config = load_config(args.config)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        status = run_command(args, config)
        sys.stdout.flush()  # a reader that closed stdout raises here, not at exit
        return status
    except BrokenPipeError:
        # the reader took what it wanted (e.g. `| head -1`); the flush at
        # exit writes the rest of the buffer to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (UnsupportedAutomorphism, UnsupportedCommand) as exc:
        print(f"unsupported configuration: {exc}", file=sys.stderr)
        return 3
    except CannotCertifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OverflowError:
        # one message in place of an errno tuple or an inf
        print(f"error: a value overflows the float range (largest magnitude"
              f" {sys.float_info.max:.4g})", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
