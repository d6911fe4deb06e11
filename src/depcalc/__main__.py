"""``python -m depcalc``: the ``depcalc`` command line, exit codes included."""

import sys

from .cli import main

sys.exit(main())
