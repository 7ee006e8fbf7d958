"""Command-line front end: single evaluations, period tables, identity sweeps.

Exit codes are CI-oriented: 0 success, 1 usage or resource errors, 2 for
verification failures (and for findings under --strict-findings), 3 for an
internal consistency error, a bug in this library.  All output is
deterministic; the --jobs flag changes wall time, never bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .arith import factorize, gen_gcd, jordan_totient
from .csum import DEFAULT_CAP, _digit_budget, csum_eval, csum_table, theta
from .errors import InternalConsistencyError, ResourceLimitError, _refuse_past_digit_limit
from .exactnum import _bernoulli_budget, bernoulli_number, rat_str
from .identities import (
    ALL_IDENTITIES,
    DEFAULT_K_MAX,
    DEFAULT_SWEEP_CAP,
    SuiteConfig,
    _decimal_int,
    render_report,
    resolve_identities,
    run_suite,
)


class _Parser(argparse.ArgumentParser):
    # argparse's default usage-error exit code is 2, reserved here for
    # verification failures; remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_at_least(lo: int):
    """argparse type for an int flag no smaller than lo; argparse names the
    flag in the usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return parse


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite float no smaller than 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite float at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ramsum", description="Generalized Ramanujan sums and their weighted-average identities")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_eval = sub.add_parser("eval", help="evaluate one quantity")
    ev = p_eval.add_subparsers(dest="what", required=True, parser_class=_Parser)

    p = ev.add_parser("csum", help="c_k^(s)(j)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--method", choices=("moebius", "hoelder", "direct"), default="moebius")
    p.add_argument("--cap", type=_int_at_least(1), default=DEFAULT_CAP, help="largest k^s any evaluation may touch")

    p = ev.add_parser("jordan", help="Jordan totient J_s(n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=1)

    p = ev.add_parser("bernoulli", help="Bernoulli number B_m")
    p.add_argument("--m", type=_int_at_least(0), required=True)

    p = ev.add_parser("gengcd", help="generalized gcd (j, k^s)_s")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, default=1)

    p = ev.add_parser("theta", help="indicator theta_k^(s)(n)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=1)

    p = sub.add_parser("table", help="one full period of c_k^(s)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--cap", type=_int_at_least(1), default=DEFAULT_CAP, help="largest k^s any evaluation may touch")

    p = sub.add_parser("verify", help="sweep identity checks over a parameter grid")
    p.add_argument("identity", choices=ALL_IDENTITIES + ("all",))
    p.add_argument("--k-min", type=_int_at_least(1), default=1)
    p.add_argument("--k-max", type=_int_at_least(1), default=None)
    p.add_argument("--s", type=_int_at_least(1), default=None, help="fix s (overrides --s-max)")
    p.add_argument("--s-max", type=_int_at_least(1), default=None)
    p.add_argument("--r-max", type=_int_at_least(1), default=None)
    p.add_argument("--m-max", type=_int_at_least(0), default=None)
    p.add_argument("--n-max", type=_int_at_least(1), default=None)
    p.add_argument("--ks", type=str, default=None, help="multivariate moduli, e.g. '2,3;4,6'")
    p.add_argument("--weights", type=str, default=None, help="comma list: power:T|power:s|phi|jordan:T|tau|sigma")
    p.add_argument("--tuples", type=_int_at_least(0), default=20, help="random tuple count for g-multiplicative")
    p.add_argument("--seed", type=int, default=91)
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help="worker processes, at most one per CPU and point")
    p.add_argument("--format", choices=("json", "csv", "human"), default="human")
    p.add_argument("--tol", type=_tolerance, default=None, help="override floating tolerances")
    p.add_argument("--strict-findings", action="store_true", help="treat findings as failures")
    p.add_argument(
        "--cap", type=_int_at_least(1), default=DEFAULT_SWEEP_CAP, help="largest k^s any evaluation may touch"
    )

    return parser


def _parse_ks(text: str) -> tuple:
    groups = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        values = tuple(_decimal_int(v.strip()) for v in part.split(","))
        if None in values or any(v < 1 for v in values):
            raise ValueError(f"bad moduli group {part!r}")
        groups.append(values)
    if not groups:
        raise ValueError("empty --ks list")
    return tuple(groups)


def _cmd_eval(args) -> int:
    # csum, jordan and bernoulli refuse a value past the int-to-str digit limit
    # before building it; c_k^(s)(j) is about e^s for its gcd class e = gen_gcd(j, k, s)
    if args.what == "csum":
        _digit_budget(gen_gcd(args.j, args.k, args.s), args.s, f"c_k^(s)(j) at k={args.k}, s={args.s}")
        value = csum_eval(args.k, args.j, args.s, method=args.method, cap=args.cap).value
    elif args.what == "jordan":
        _digit_budget(args.n, args.s, f"J_s(n) at n={args.n}, s={args.s}")
        value = jordan_totient(args.s, factorize(args.n))
    elif args.what == "bernoulli":
        _bernoulli_budget(args.m)
        value = bernoulli_number(args.m)
    elif args.what == "gengcd":
        value = gen_gcd(args.j, args.k, args.s)
    else:
        value = theta(args.k, args.n, args.s)
    try:
        text = rat_str(value)
    except ValueError:
        # only the int-to-str digit limit makes rat_str raise, so one is set
        _refuse_past_digit_limit(f"the {args.what} value passes")
        raise
    print(text)
    return 0


def _cmd_table(args) -> int:
    values = csum_table(args.k, args.s, cap=args.cap).values
    if args.format == "json":
        print(json.dumps(list(values), separators=(",", ":")))
    else:
        sys.stdout.write("j,c\n")
        sys.stdout.write("".join(f"{j},{v}\n" for j, v in enumerate(values)))
    return 0


def _cmd_verify(args) -> int:
    cfg = SuiteConfig(
        identities=(args.identity,),
        k_min=args.k_min,
        k_max=args.k_max,
        s=args.s,
        s_max=args.s_max,
        r_max=args.r_max,
        m_max=args.m_max,
        n_max=args.n_max,
        ks=_parse_ks(args.ks) if args.ks else None,
        weights=tuple(w.strip() for w in args.weights.split(",")) if args.weights else None,
        tuples=args.tuples,
        seed=args.seed,
        cap=args.cap,
        tolerance=args.tol,
        jobs=args.jobs,
    )
    report = run_suite(cfg)
    try:
        text = render_report(report, args.format)
    except ValueError:
        # as in _cmd_eval, only the int-to-str digit limit makes rendering raise
        _refuse_past_digit_limit("a report value passes")
        raise
    sys.stdout.write(text)
    if report.failed:
        return 2
    if report.findings and args.strict_findings:
        return 2
    return 0


def _check_k_range(parser, args) -> None:
    """Usage error for a --k-min past the upper k of a selected grid: an
    empty k range would drop every point of that grid and pass silently."""
    if args.k_max is not None:
        if args.k_min > args.k_max:
            parser.error(f"argument --k-min: must be at most --k-max, got --k-min {args.k_min} --k-max {args.k_max}")
        return
    for identity in resolve_identities([args.identity]):
        hi = DEFAULT_K_MAX.get(identity)
        # explicit --ks are not bounded by k
        if hi is not None and args.k_min > hi and not (identity == "multivariate" and args.ks):
            parser.error(f"argument --k-min: the {identity} grid ends at k = {hi} without --k-max, got --k-min {args.k_min}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        _check_k_range(parser, args)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "table":
            return _cmd_table(args)
        return _cmd_verify(args)
    except (ValueError, ResourceLimitError) as exc:
        print(f"ramsum: error: {exc}", file=sys.stderr)
        return 1
    except InternalConsistencyError as exc:
        print(f"ramsum: internal error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
