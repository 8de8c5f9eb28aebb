"""Kernel selection for the graphrank suites.

``power_iteration`` picks its kernel by reading ``vector.NUMPY`` at call
time, so a test pins one the way the minidb suites pin the ndarray layer:
flip the flag, restore it afterwards.
"""

from contextlib import contextmanager

import pytest

import repro.minidb.vector as vector

needs_numpy = pytest.mark.skipif(
    not vector.HAS_NUMPY, reason="the numpy kernel needs numpy"
)

#: every kernel this interpreter can run, for parametrized replays
KERNELS = ["exact"] + (["numpy"] if vector.HAS_NUMPY else [])


@contextmanager
def kernel(name):
    """Run the block on the ``"exact"`` or the ``"numpy"`` kernel."""
    saved = vector.NUMPY
    vector.NUMPY = name == "numpy"
    try:
        yield
    finally:
        vector.NUMPY = saved
