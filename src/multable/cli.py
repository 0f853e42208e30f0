"""Command line front end.

One experiment per invocation; reports go to stdout (or --out) as JSON or
CSV.  Exit codes: 0 success, 2 precondition violation, 3 budget exceeded,
4 internal assertion failure.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments as ex
from .errors import BudgetError, InternalCheckError, PreconditionError


def build_parser() -> argparse.ArgumentParser:
    def global_flags(p, defaults: bool):
        # subcommands carry SUPPRESS copies so a value given before the
        # subcommand is not clobbered by a subparser default
        miss = argparse.SUPPRESS
        p.add_argument("--seed", type=int, default=0 if defaults else miss,
                       help="RNG seed (default 0)")
        p.add_argument("--threads", type=int, default=0 if defaults else miss,
                       help="worker threads to record (0 = all cores)")
        p.add_argument("--format", choices=("json", "csv"),
                       default="json" if defaults else miss)
        p.add_argument("--out", default=None if defaults else miss,
                       help="output path (default stdout)")

    parser = argparse.ArgumentParser(
        prog="multable",
        description="Product sets, multiplicative energy, and prime statistics "
        "of arithmetic progressions.",
    )
    global_flags(parser, defaults=True)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_parser(name, **kw):
        p = sub.add_parser(name, **kw)
        global_flags(p, defaults=False)
        return p

    p = add_parser("table", help="exact |[N].[N]| and its normalized ratio")
    p.add_argument("N", type=int)

    p = add_parser("ap-product", help="product set and energy of a progression")
    p.add_argument("a", type=int)
    p.add_argument("d", type=int)
    p.add_argument("L", type=int)

    p = add_parser("energy", help="multiplicative energy of an explicit set")
    p.add_argument("--set", required=True, help="comma-separated integers")

    p = add_parser("reduce", help="run the reduction pipeline")
    p.add_argument("a", type=int)
    p.add_argument("d", type=int)
    p.add_argument("L", type=int)
    p.add_argument("--delta", default="1", help="density as a fraction, e.g. 3/10")

    p = add_parser("nk", help="constrained square-free counts N_k")
    p.add_argument("a", type=int)
    p.add_argument("d", type=int)
    p.add_argument("L", type=int)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--witness", action="store_true",
                   help="also count last-prime-extension witnesses")

    p = add_parser("smirnov", help="order-statistic boundary probability")
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--c", default=None, help="comma-separated boundary values")
    p.add_argument("-u", type=float, default=None)
    p.add_argument("-w", type=float, default=None)
    p.add_argument("--samples", type=int, default=0, help="Monte Carlo samples (0 = exact only)")

    p = add_parser("mertens", help="sum of prime reciprocals up to x")
    p.add_argument("x", type=int)

    p = add_parser("shiu", help="short-interval mean of z^omega(n) vs envelope")
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)
    p.add_argument("-k", type=int, default=1)
    p.add_argument("-a", type=int, default=0)
    p.add_argument("-z", type=float, default=1.0)

    return parser


def _dispatch(args) -> ex.ExperimentReport:
    seed, threads = args.seed, args.threads
    if seed < 0:
        raise PreconditionError("--seed must be non-negative")
    if args.cmd == "table":
        return ex.cmd_table(args.N, seed=seed, threads=threads)
    if args.cmd == "ap-product":
        return ex.cmd_ap_product(args.a, args.d, args.L, seed=seed, threads=threads)
    if args.cmd == "energy":
        values = [int(v) for v in args.set.split(",") if v.strip()]
        return ex.cmd_energy(values, seed=seed, threads=threads)
    if args.cmd == "reduce":
        return ex.cmd_reduce(args.a, args.d, args.L, delta=args.delta, seed=seed, threads=threads)
    if args.cmd == "nk":
        return ex.cmd_nk(args.alpha, args.beta, args.k, args.a, args.d, args.L,
                         witness=args.witness, seed=seed, threads=threads)
    if args.cmd == "smirnov":
        c = [float(v) for v in args.c.split(",")] if args.c else None
        return ex.cmd_smirnov(n=args.n, c=c, u=args.u, w=args.w,
                              samples=args.samples, seed=seed, threads=threads)
    if args.cmd == "mertens":
        return ex.cmd_mertens(args.x, seed=seed, threads=threads)
    if args.cmd == "shiu":
        return ex.cmd_shiu(args.x, args.y, args.k, args.a, args.z, seed=seed, threads=threads)
    raise PreconditionError(f"unknown command {args.cmd}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = _dispatch(args)
    except PreconditionError as e:
        print(f"precondition violation: {e}", file=sys.stderr)
        return 2
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except (InternalCheckError, AssertionError) as e:
        print(f"internal assertion failure: {e}", file=sys.stderr)
        return 4
    text = report.to_json() if args.format == "json" else report.to_csv()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
