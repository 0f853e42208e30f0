"""``python -m multable``: the command line front end in ``multable.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
