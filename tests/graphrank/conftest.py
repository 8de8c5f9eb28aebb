"""Kernel selection for the graphrank suites.

``power_iteration`` picks its kernel by reading ``ranker.NUMPY`` at call
time, so a test pins one by flipping the flag and restoring it afterwards.
"""

from contextlib import contextmanager

import pytest

import repro.graphrank.ranker as ranker

needs_numpy = pytest.mark.skipif(
    not ranker.HAS_NUMPY, reason="the numpy kernel needs numpy"
)

#: every kernel this interpreter can run, for parametrized replays
KERNELS = ["exact"] + (["numpy"] if ranker.HAS_NUMPY else [])


@contextmanager
def kernel(name):
    """Run the block on the ``"exact"`` or the ``"numpy"`` kernel."""
    saved = ranker.NUMPY
    ranker.NUMPY = name == "numpy"
    try:
        yield
    finally:
        ranker.NUMPY = saved
