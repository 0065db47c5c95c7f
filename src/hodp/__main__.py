"""`python -m hodp`: the command line of hodp.cli."""

import sys

from hodp.cli import main

if __name__ == "__main__":
    sys.exit(main())
