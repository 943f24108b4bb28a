"""Put the benchmark's modules (one directory up) on the import path."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
