"""``python -m semicayley``: the command line front end, as ``semicayley``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
