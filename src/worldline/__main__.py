"""``python -m worldline``: the same front end as the ``worldline`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
