"""Kernel selection for the graphrank suites.

``power_iteration`` picks its kernel by reading ``ranker.HAS_NUMPY`` at
call time, so a test pins one by flipping the flag and restoring it
afterwards.
"""

from contextlib import contextmanager

import pytest

import repro.graphrank.ranker as ranker
from repro.graphrank import LAYER_ORDER

needs_numpy = pytest.mark.skipif(
    not ranker.HAS_NUMPY, reason="the numpy kernel needs numpy"
)

#: every kernel this interpreter can run, for parametrized replays
KERNELS = ["exact"] + (["numpy"] if ranker.HAS_NUMPY else [])


@contextmanager
def kernel(name):
    """Run the block on the ``"exact"`` or the ``"numpy"`` kernel."""
    saved = ranker.HAS_NUMPY
    ranker.HAS_NUMPY = name == "numpy"
    try:
        yield
    finally:
        ranker.HAS_NUMPY = saved


def merged_edges(*shard_layers):
    """The independent reference for an assembled graph's edges: every
    ``{name → layer}`` map summed into one dict of dicts, layer by layer
    in ``LAYER_ORDER`` — the assembly done the plain way, sharing no code
    with the CSR view under test."""
    merged = {}
    for layers in shard_layers:
        for name in LAYER_ORDER:
            for node, neighbors in layers[name].edges.items():
                bucket = merged.setdefault(node, {})
                for neighbor, weight in neighbors.items():
                    bucket[neighbor] = bucket.get(neighbor, 0) + weight
    return merged
