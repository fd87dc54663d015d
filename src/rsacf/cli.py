"""Command-line entry point: keygen, cf, attack, and bench subcommands.

Exit codes: 0 on recovery (or normal output for non-attack commands),
1 when a search exhausts without recovery, 2 on usage or input errors.
Results go to stdout; diagnostics and --stats output go to stderr so
stdout stays golden-testable.
"""

import argparse
import json
import sys
from dataclasses import asdict, fields
from fractions import Fraction
from functools import cache

from . import __version__, bench, contfrac
from .attack import BOUND_MODES, VARIANTS, AttackConfig, run_attack
from .rsa import GenerationError, KeyFormatError, keygen_weak, read_key, write_key
from .workers import WorkerError

DEFAULT_SEED = 0xC0FFEE
_SHORT_MODULUS = "n often has one bit fewer, as its primes have bits // 2 each"


@cache  # argparse's tree takes about 2 ms to build; parse_args leaves it as it was
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rsacf",
        description="Continued-fraction attacks on RSA keys with small secret exponent",
    )
    parser.add_argument("--version", action="version", version=f"rsacf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a deliberately weak key")
    kg.add_argument("--bits", type=int, required=True,
                    help=f"modulus size; {_SHORT_MODULUS}")
    kg.add_argument("--d-ratio", type=float, required=True,
                    help="target d / n^0.25")
    kg.add_argument("--seed", type=int, default=DEFAULT_SEED)
    kg.add_argument("-o", "--output", required=True)

    cf = sub.add_parser("cf", help="continued fraction expansion of num/den")
    cf.add_argument("--num", type=int, required=True)
    cf.add_argument("--den", type=int, required=True)
    cf.add_argument("--c", type=float, default=None,
                    help="also list candidate fractions for |x - p/q| < c/q^2")

    at = sub.add_parser("attack", help="recover the secret exponent of a key")
    at.add_argument("--key", required=True)
    at.add_argument("--variant", choices=VARIANTS, default="mitm")
    at.add_argument("--rmax", type=int, default=None)
    at.add_argument("--smax", type=int, default=None)
    at.add_argument("--bound-mode", choices=BOUND_MODES, default="explicit")
    at.add_argument("--d-ratio", type=float, default=None,
                    help="assumed d / n^0.25 for fixed4d/quotient bound modes")
    at.add_argument("--improved-approx", dest="approx", action="store_const",
                    const="improved", default="plain")
    at.add_argument("--gcd-rows", action="store_true")
    at.add_argument("--minus-form", action="store_true")
    at.add_argument("--stats", action="store_true")

    be = sub.add_parser("bench", help="reproduce the two reference tables")
    be_sub = be.add_subparsers(dest="bench_command", required=True)
    bs = be_sub.add_parser("success", help="success-rate table")
    bs.add_argument("--bits", type=int, required=True,
                    help=f"modulus size of the keys; {_SHORT_MODULUS}")
    bs.add_argument("--d-ratio", type=float, required=True)
    bs.add_argument("--trials", type=int, required=True)
    bs.add_argument("--seed", type=int, default=DEFAULT_SEED)
    bs.add_argument("--improved-approx", dest="approx", action="store_const",
                    const="improved", default="plain")
    bs.add_argument("--json", action="store_true")
    bb = be_sub.add_parser("bounds", help="bound-comparison table")
    bb.add_argument("--rows", default=",".join(map(str, bench.DEFAULT_BOUND_TABLE_ROWS)),
                    help="comma-separated log2(n) values")
    bb.add_argument("--json", action="store_true")
    return parser


def _cmd_keygen(args):
    pub, priv = keygen_weak(args.bits, args.d_ratio, args.seed)
    write_key(args.output, pub, priv)
    return 0


def _cmd_cf(args):
    if args.den <= 0 or args.num < 0:
        raise ValueError("cf: need num >= 0 and den > 0")
    x = Fraction(args.num, args.den)
    # Enumerated first, so a bad --c fails before anything is printed.
    candidates = [] if args.c is None else contfrac.worley_enumerate(x, args.c)
    cf = contfrac.expand(x)
    a0, rest = cf.quotients[0], cf.quotients[1:]
    tail = ";" + ",".join(map(str, rest)) if rest else ""
    print(f"[{a0}{tail}]")
    for p, q in cf.convergents:
        print(f"{p}/{q}")
    for cand in candidates:
        sat = 1 if cand.satisfies else 0
        print(f"{cand.m} {cand.r} {cand.s} {cand.sign} "
              f"{cand.frac.numerator}/{cand.frac.denominator} {sat}")
    return 0


def _cmd_attack(args):
    pub, _ = read_key(args.key)
    cfg = AttackConfig(
        variant=args.variant,
        r_max=args.rmax,
        s_max=args.smax,
        bound_mode=args.bound_mode,
        d_ratio=args.d_ratio,
        approx=args.approx,
        gcd_rows=args.gcd_rows,
        probe_minus_form=args.minus_form,
    )
    result = run_attack(pub, cfg)
    if args.stats:
        st = result.stats
        counters = [f"{f.name}={getattr(st, f.name)}"
                    for f in fields(st) if f.name != "wall_time"]
        print("stats:", *counters, f"wall_time={st.wall_time:.6f}s", file=sys.stderr)
    if result.outcome == "exhausted":
        print("exhausted", file=sys.stderr)
        return 1
    if result.recovered:
        print(f"d = {result.d:x}")
        print(f"k = {result.k:x}")
    print(f"p = {result.p:x}")
    print(f"q = {result.q:x}")
    return 0


def _cmd_bench(args):
    if args.bench_command == "bounds":
        try:
            rows = tuple(int(tok) for tok in args.rows.split(","))
        except ValueError:
            raise ValueError("bench: --rows must be comma-separated integers") from None
        table = bench.bound_table(rows)
        if args.json:
            print(json.dumps(
                [{"log2n": a, "mitm_bound_bits": b, "lll_bound_bits": c}
                 for a, b, c in table]))
        else:
            print(bench.format_bound_table(table))
        return 0
    rows = bench.success_table(args.bits, args.d_ratio, args.trials, args.seed,
                               approx=args.approx)
    if args.json:
        print(json.dumps([{**asdict(r), "rate": r.rate} for r in rows]))
    else:
        print(bench.format_success_table(rows))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "keygen":
            return _cmd_keygen(args)
        if args.command == "cf":
            return _cmd_cf(args)
        if args.command == "attack":
            return _cmd_attack(args)
        return _cmd_bench(args)
    except (OSError, KeyFormatError, GenerationError, ValueError, WorkerError) as exc:
        print(f"rsacf: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
