"""``python -m olreg``: the ``olreg`` command (see ``olreg.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
