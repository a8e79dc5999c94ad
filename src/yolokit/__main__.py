"""``python -m yolokit``: the command line of :mod:`yolokit.cli`."""

import sys

from .cli import main

sys.exit(main())
