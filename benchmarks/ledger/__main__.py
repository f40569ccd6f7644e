"""``python -m benchmarks.ledger {run,compare}``; see :mod:`benchmarks.ledger.ledger`."""

import sys

from benchmarks.ledger.ledger import main

__all__ = []

if __name__ == "__main__":
    sys.exit(main())
