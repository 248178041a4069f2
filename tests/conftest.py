"""Shared pytest wiring: verdict lines for the acceptance criteria, the
bit comparison that the tests share, and the node-first array of dense
test data.

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


def node_array(grid, dense):
    """The node-first state, (K,) + x_shape, of a dense x_shape + v_shape
    array: its values at the masked velocity nodes, in grid.vnodes order."""
    return np.ascontiguousarray(np.moveaxis(dense[(Ellipsis,) + grid.vindex], -1, 0))
