"""Shared pytest wiring: verdict lines for the acceptance criteria, and
the bit comparison that the tests share.

The acceptance tests register one human-readable pass/fail line each; the
terminal-summary hook prints them after the run, outside output capture, so
the verdicts are always visible.
"""

import numpy as np

VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)


def same_bits(x, y):
    """True when x and y have one shape and the same float64 bits (int64
    views), so that +0.0 and -0.0 differ. Scalars and arrays of any layout
    or dtype are compared as contiguous float64 arrays."""
    if np.shape(x) != np.shape(y):
        return False
    x, y = (np.ascontiguousarray(a, dtype=np.float64) for a in (x, y))
    return np.array_equal(x.view(np.int64), y.view(np.int64))
