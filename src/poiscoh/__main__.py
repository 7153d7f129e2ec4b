"""``python -m poiscoh``: the command-line interface of :mod:`poiscoh.cli`."""

import sys

from .cli import main

sys.exit(main())
