"""`python -m dicepool`: the same front end as the `dicepool` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
