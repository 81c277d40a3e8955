"""``python -m uwdg``: the ``uwdg`` command line (see uwdg.harness.main)."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
