"""``python -m cavens``: the ``cavens`` command line (see ``cavens.io_cli``)."""

import sys

from .io_cli import main

__all__ = []

if __name__ == "__main__":
    sys.exit(main())
