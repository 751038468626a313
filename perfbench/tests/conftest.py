"""Make the benchmark's modules and the program under test importable.

Run from the root of the checkout::

    python -m pytest perfbench/tests -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(BENCH), "src")

for path in (SRC, BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
