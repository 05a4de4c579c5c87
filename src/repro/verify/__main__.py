"""Entry point: ``python -m repro.verify {golden,cluster,fuzz,engines,invariants}``."""

import sys

from .cli import main

sys.exit(main())
