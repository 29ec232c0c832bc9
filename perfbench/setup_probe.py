"""Child process of the set-up measurement.

Imports the compiler and builds the default CoGG tables (spec parse, LR
automaton, SLR, compression) into the empty cache directory named by
``REPRO_CACHE_DIR``, then prints ``ready``.  The parent times from
spawning this process until that line arrives.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.pascal.compiler import cached_build  # noqa: E402

if __name__ == "__main__":
    cached_build()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
