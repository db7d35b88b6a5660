"""Machine-speed probe: a fixed piece of interpreter-bound work.

The machines this benchmark runs on change speed by a fifth or more within
seconds (shared cores, frequency changes), and that moves every timing
alike.  The benchmark therefore runs this probe between calls and reports
call timings in reference seconds: measured seconds times PROBE_NOMINAL_S
over the probe time measured around the call.  The probe mixes the three
kinds of work in homstruct's hot path (Fraction arithmetic, tuple building,
Python function calls) and calls nothing in homstruct, so a change to the
program cannot change it.
"""

import time
from fractions import Fraction

PROBE_NOMINAL_S = 0.01

# Set-up runs in a fresh interpreter, whose speed the probe above does not
# track.  Its reference is a fresh interpreter importing standard modules
# that homstruct does not import: the same kind of work (reading and running
# cached bytecode), and just as unaffected by changes to the program.
IMPORT_NOMINAL_S = 0.05
IMPORT_PROBE = ("import time\n"
                "t0 = time.perf_counter()\n"
                "import email.parser, http.client, logging, tarfile, unittest, xml.dom.minidom\n"
                "print(time.perf_counter() - t0)\n")


def _step(a, b):
    return a if a else b


def probe():
    """Seconds taken by the fixed work, now."""
    t0 = time.perf_counter()
    x, y, acc = Fraction(3, 7), Fraction(-5, 11), Fraction(0)
    for _ in range(250):
        acc += x * y
        x, y = y, x + 1
    zero = Fraction(0)
    for _ in range(500):
        v = (zero,) * 8
        tuple(a + b for a, b in zip(v, v))
    n = 0
    for i in range(6000):
        n = _step(n, i) + 1
    return time.perf_counter() - t0
