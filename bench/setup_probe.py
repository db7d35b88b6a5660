"""Set-up time in a fresh interpreter: import homstruct.cli, parse the inputs.

Usage: python3 setup_probe.py SRC_DIR KIND=FILE [KIND=FILE ...]
Prints one JSON line {"import_s": ..., "setup_s": ...} in seconds.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import homstruct.cli  # noqa: E402
from homstruct import core  # noqa: E402

t1 = time.perf_counter()
parsers = {"algebra": core.parse_algebra, "rep": core.parse_representation,
           "operator": core.parse_o_operator}
for arg in sys.argv[2:]:
    kind, path = arg.split("=", 1)
    with open(path) as fh:
        parsers[kind](fh.read())
t2 = time.perf_counter()
print('{"import_s": %r, "setup_s": %r}' % (t1 - t0, t2 - t0))
