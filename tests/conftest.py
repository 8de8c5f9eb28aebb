"""Shared Hypothesis profiles for every property-based suite.

Two profiles, selected with ``HYPOTHESIS_PROFILE`` (default ``dev``):

* ``dev`` — fast local iteration: few examples, no deadline;
* ``ci``  — thorough: an order of magnitude more examples for scheduled
  runs (``HYPOTHESIS_PROFILE=ci pytest ...``).

Both are **deterministic by default** (``derandomize=True``) so tier-1
never flakes on an unlucky draw; set ``HYPOTHESIS_DERANDOMIZE=0`` to let
Hypothesis explore fresh random examples (the nightly fuzz job does).

Individual tests keep only test-specific overrides in their own
``@settings(...)`` (e.g. a suppressed health check); example *counts*
come from the profile so one knob scales the whole repo.

``REPRO_SHARDS`` (default ``3``) sets the shard count the service-layer
equivalence tests build their :class:`repro.service.CourseRankService`
with; the CI matrix runs a ``REPRO_SHARDS=4`` leg so tier-1 exercises a
second sharding geometry end to end.
"""

import os

from hypothesis import settings

_DERANDOMIZE = os.environ.get("HYPOTHESIS_DERANDOMIZE", "1") != "0"

settings.register_profile(
    "dev",
    max_examples=25,
    deadline=None,
    derandomize=_DERANDOMIZE,
    print_blob=True,
)
settings.register_profile(
    "ci",
    max_examples=200,
    deadline=None,
    derandomize=_DERANDOMIZE,
    print_blob=True,
)

settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
