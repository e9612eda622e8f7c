"""`python -m dicepool`: the same front end as the `dicepool` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
