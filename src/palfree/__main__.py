"""`python -m palfree`: the same entry point as the `palfree` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
