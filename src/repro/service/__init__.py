"""repro.service — the concurrent, sharded multi-user front end.

Turns the single-threaded CourseRank library facade into something that
can take traffic (DESIGN.md §13):

* :mod:`repro.service.sharding` splits the synthetic university into
  department-hash shards (course-scoped tables partitioned, reference
  tables replicated) so each shard is a self-contained CourseRank corpus;
* :mod:`repro.service.frontend` is the scatter-gather coordinator:
  thread-safe search/cloud/refine/recommend/comment over the shard set;
  its searches, clouds and refinements are one epoch-vector-cached
  :class:`~repro.clouds.refinement.CloudNavigator` answer, bit-identical
  to the unsharded build's;
* :mod:`repro.service.loadgen` is the closed-loop Zipfian load generator
  reporting sustained QPS and p50/p99 latency through ``repro.obs``.
"""

from repro.service.frontend import CourseRankService, ServiceSession
from repro.service.sharding import ShardedUniversity, shard_for_department

__all__ = [
    "CourseRankService",
    "ServiceSession",
    "ShardedUniversity",
    "shard_for_department",
]
