"""Entry for ``python -m banter``; same as the ``banter`` console script."""

from banter.cli import console_main

if __name__ == "__main__":
    console_main()
