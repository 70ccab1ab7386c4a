"""``python -m bhl``: the same command line as the ``bhl`` script."""

import sys

from .cli import main

sys.exit(main())
