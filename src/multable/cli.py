"""Command line front end.

One experiment per invocation; reports go to stdout (or --out) as JSON or
CSV.  Exit codes: 0 success (also when the reader closes the pipe early),
2 precondition violation or malformed value, 3 budget exceeded, 4 internal
assertion failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiments as ex
from .errors import BudgetError, InternalCheckError, PreconditionError


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


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

    # every dest is a keyword of the subcommand's cmd_* function
    def add_parser(name, run, **kw):
        p = sub.add_parser(name, **kw)
        global_flags(p, defaults=False)
        p.set_defaults(run=run)
        return p

    p = add_parser("table", ex.cmd_table, help="exact |[N].[N]| and its normalized ratio")
    p.add_argument("N", type=int)

    p = add_parser("ap-product", ex.cmd_ap_product, help="product set and energy of a progression")
    p.add_argument("a", type=int)
    p.add_argument("d", type=int)
    p.add_argument("L", type=int)

    p = add_parser("energy", ex.cmd_energy, help="multiplicative energy of an explicit set")
    p.add_argument("--set", dest="values", type=_int_list, required=True,
                   help="comma-separated integers, all in one argument; Linux caps one argument "
                        "at 128 KiB, about 20,000 small integers, so call energy() in-process for "
                        "larger sets")

    p = add_parser("reduce", ex.cmd_reduce, help="run the reduction pipeline")
    p.add_argument("a", type=int)
    p.add_argument("d", type=int)
    p.add_argument("L", type=int)
    p.add_argument("--delta", default="1",
                   help="density in (0, 1] as a fraction, e.g. 3/10")

    p = add_parser("nk", ex.cmd_nk, help="constrained square-free counts N_k")
    p.add_argument("a", type=int)
    p.add_argument("d", type=int)
    p.add_argument("L", type=int)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--witness", action="store_true",
                   help="also count last-prime-extension witnesses")

    p = add_parser("smirnov", ex.cmd_smirnov, help="order-statistic boundary probability")
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--c", type=_float_list, default=None, help="comma-separated boundary values")
    p.add_argument("-u", type=float, default=None)
    p.add_argument("-w", type=float, default=None)
    p.add_argument("--samples", type=int, default=0, help="Monte Carlo samples (0 = exact only)")

    p = add_parser("mertens", ex.cmd_mertens, help="sum of prime reciprocals up to x")
    p.add_argument("x", type=int)

    p = add_parser("shiu", ex.cmd_shiu, help="short-interval mean of z^omega(n) vs envelope")
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)
    p.add_argument("-k", type=int, default=1)
    p.add_argument("-a", type=int, default=0)
    p.add_argument("-z", type=float, default=1.0)

    return parser


def _dispatch(args) -> ex.ExperimentReport:
    if args.seed < 0:
        raise PreconditionError("--seed must be non-negative")
    kwargs = {k: v for k, v in vars(args).items() if k not in ("cmd", "run", "format", "out")}
    return args.run(**kwargs)


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
        try:
            print(text, flush=True)
        except BrokenPipeError:  # the run is done; devnull takes the exit flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
