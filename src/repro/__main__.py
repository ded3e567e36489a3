"""``python -m repro`` entry point."""

import sys

from repro.cli import entry

sys.exit(entry())
