"""Command line front end.

One experiment per invocation; reports go to stdout (or --out) as JSON or
CSV.  Each subcommand is the ``experiments.command`` declaration of the
same name.  Exit codes: 0 success (also when the reader closes the pipe
early), 2 precondition violation or malformed value, 3 budget exceeded, 4
internal assertion failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiments as ex
from .errors import BudgetError, PreconditionError


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
    for name, (help, args, run) in ex.COMMANDS.items():
        p = sub.add_parser(name, help=help)
        global_flags(p, defaults=False)
        for flag, kw in args:
            p.add_argument(flag, **kw)
        p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    kwargs = {k: v for k, v in vars(args).items() if k not in ("cmd", "run", "format", "out")}
    try:
        report = args.run(**kwargs)
    except PreconditionError as e:
        print(f"precondition violation: {e}", file=sys.stderr)
        return 2
    except BudgetError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except AssertionError as e:  # InternalCheckError included
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
