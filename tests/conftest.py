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

``REPRO_BACKEND`` (unset: the direct executor) names the execution
backend the :class:`~repro.courserank.recommendations.RecommendationService`
routes compiled-SQL workflow runs through; the CI matrix runs a
``REPRO_BACKEND=sqlite3`` leg so the whole tier-1 suite exercises the
sqlite3 driver end to end.  The variable is read lazily by
``repro.backends.named_backend`` — nothing to pin here beyond failing
fast on a name outside ``repro.backends.BACKENDS``.
"""

import os

from hypothesis import settings

# Fail fast (at collection, not mid-suite) if the run names a backend
# that does not exist.
_backend = os.environ.get("REPRO_BACKEND", "").strip().lower()
if _backend:
    from repro.backends import BACKENDS

    if _backend not in BACKENDS:
        raise RuntimeError(
            f"REPRO_BACKEND={_backend!r} is not a backend; "
            f"available: {sorted(BACKENDS)}"
        )

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
