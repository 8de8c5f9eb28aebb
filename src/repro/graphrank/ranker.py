"""Preference-biased power iteration with deterministic convergence.

FolkRank's core computation: PageRank over the undirected tripartite
graph, with the teleport vector biased toward a *preference* set of
nodes, and the final ranking read off the **differential** between the
biased run and an unbiased baseline run (the baseline cancels the
popularity every node earns just from graph topology).

The iteration runs over the integer-id CSR view of the graph
(:meth:`TripartiteAdjacency.csr`) on one of two kernels, chosen by
reading this module's :data:`HAS_NUMPY` at call time:

* the **exact** kernel (pure Python) takes per-node incoming mass and
  the L1 delta through :func:`math.fsum`, which is *exactly rounded*:
  the correctly rounded true sum, independent of operand order.  With
  integer edge weights (exact degrees), every score is bit-identical
  under user/course id permutation and under incremental-vs-cold and
  sharded-vs-unsharded adjacency builds.  It is the path without numpy
  and the reference the other kernel is tested against;
* the **numpy** kernel does the same sweep with plain float adds.
  ``np.add.reduceat`` sums each row in an order of numpy's own, not
  left to right (on the small graph it differs from a sequential sum
  of the row by up to ~1e-17), but the same view always gets the same
  order, so the kernel is still a pure function of the view
  (incremental ≡ cold and sharded ≡ unsharded stay ``==``).  It
  matches the exact kernel — and itself under id relabeling — only to
  a tolerance: scores within 1e-12, iterations within one.

Both share (property-tested in ``tests/graphrank``):

* FolkRank's fixed :data:`DAMPING` and :data:`PREFERENCE_WEIGHT`, the
  :data:`EPSILON`-on-L1-delta + ``max_iters`` stopping rule, and a
  stable ``(-score, node)`` tie-break wherever rankings are
  materialized.
* The graph contains only nodes with at least one edge (see
  :mod:`repro.graphrank.adjacency`), so the transition matrix is column
  stochastic and the rank mass stays at 1 (± one rounding) every
  iteration — the normalization property needs no renormalization step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter, mul, sub
from typing import Any, Callable, Dict, Iterable, List
from typing import Optional, Sequence, Tuple

from repro.errors import GraphRankError
from repro.graphrank.adjacency import CsrView, NodeId, TripartiteAdjacency

#: the kernel switch: the numpy kernel when numpy imports, the exact one
#: otherwise; tests flip it to pin a kernel
try:  # pragma: no cover - exercised through HAS_NUMPY
    import numpy  # noqa: F401

    HAS_NUMPY = True
except Exception:  # ImportError, broken install: the exact kernel only
    HAS_NUMPY = False

#: FolkRank's parameters, fixed as in the folksonomy papers: the damping
#: factor, the teleport share the preference nodes split, and the L1
#: delta at which an iteration has converged
DAMPING = 0.85
PREFERENCE_WEIGHT = 0.3
EPSILON = 1e-12
#: the default cap on iterations, the one setting callers may pass
MAX_ITERS = 250

#: node kinds a preference entry may name
NODE_KINDS = ("user", "course", "term")


@dataclass(frozen=True)
class RankResult:
    """One converged (or max-iters-truncated) power iteration."""

    scores: Dict[NodeId, float]
    iterations: int
    converged: bool
    delta: float


def normalize_preference(
    preference: Optional[Iterable[Sequence]],
) -> Tuple[NodeId, ...]:
    """Validate and freeze a preference spec into node-id tuples.

    Duplicates collapse (first occurrence wins the ordering), so a
    repeated seed cannot double its teleport share.
    """
    if preference is None:
        return ()
    seen: Dict[NodeId, None] = {}
    for entry in preference:
        entry = tuple(entry)
        if len(entry) != 2 or entry[0] not in NODE_KINDS:
            raise GraphRankError(
                f"preference entries must be ('user'|'course'|'term', key); "
                f"got {entry!r}"
            )
        seen.setdefault(entry, None)
    return tuple(seen)


def teleport_vector(
    adjacency: TripartiteAdjacency,
    preference: Tuple[NodeId, ...] = (),
) -> Dict[NodeId, float]:
    """The biased restart distribution ``p``.

    Uniform mass ``(1 - PREFERENCE_WEIGHT)/n`` everywhere, with the
    remaining :data:`PREFERENCE_WEIGHT` split evenly over the preference
    nodes *present in the graph*.  With no (present) preference nodes
    this degrades to the uniform baseline vector.
    """
    nodes = adjacency.nodes
    count = len(nodes)
    if count == 0:
        return {}
    base = 1.0 / count
    present = [node for node in preference if node in adjacency.degrees]
    if not present:
        return {node: base for node in nodes}
    vector = {node: (1.0 - PREFERENCE_WEIGHT) * base for node in nodes}
    boost = PREFERENCE_WEIGHT / len(present)
    for node in present:
        vector[node] += boost
    return vector


def _exact_step(view: CsrView, base: List[float]) -> Callable:
    """One sweep ``rank → (fresh, L1 delta)``, exactly rounded, pure Python."""
    starts, cols, vals = view
    rows = []
    for begin, end in zip(starts, starts[1:]):
        row = cols[begin:end]
        if len(row) == 1:  # itemgetter(i) alone would return a bare float
            row = (slice(row[0], row[0] + 1),)
        rows.append((itemgetter(*row), vals[begin:end].tolist()))
    fsum = math.fsum
    damping = DAMPING

    def step(rank: List[float]) -> Tuple[List[float], float]:
        fresh = [
            restart + damping * fsum(map(mul, gather(rank), weights))
            for restart, (gather, weights) in zip(base, rows)
        ]
        return fresh, fsum(map(abs, map(sub, fresh, rank)))

    return step


def _numpy_step(view: CsrView, base: List[float]) -> Callable:
    """The same sweep as gather–multiply–segment-sum over zero-copy views."""
    import numpy as np

    # reduceat sums cols[starts[i]:starts[i + 1]] only while no row is
    # empty, which the TripartiteAdjacency constructor checks
    starts = np.frombuffer(view[0], dtype=np.int64)[:-1]
    cols = np.frombuffer(view[1], dtype=np.int64)
    vals = np.frombuffer(view[2], dtype=np.float64)
    restart = np.array(base)
    damping = DAMPING

    def step(rank: Any) -> Tuple[Any, float]:
        incoming = np.add.reduceat(vals * np.take(rank, cols), starts)
        fresh = restart + damping * incoming
        return fresh, float(np.abs(fresh - rank).sum())

    return step


def power_iteration(
    adjacency: TripartiteAdjacency,
    preference: Tuple[NodeId, ...] = (),
    max_iters: int = MAX_ITERS,
) -> RankResult:
    """Run damped power iteration to a fixed point.

    ``w ← (1-d)·p + d·A·w`` with ``d`` = :data:`DAMPING` and ``A`` the
    degree-normalized adjacency; stops when the L1 delta between
    successive vectors drops to :data:`EPSILON` (or after ``max_iters``).
    Starting from ``p`` itself makes repeated runs trivially identical.
    """
    if max_iters < 1:
        raise GraphRankError("max_iters must be at least 1")
    nodes = adjacency.nodes
    if not nodes:
        return RankResult(scores={}, iterations=0, converged=True, delta=0.0)
    # teleport_vector fills its dict in ``nodes`` order
    teleport = teleport_vector(adjacency, preference)
    rank: Any = list(teleport.values())
    base = [(1.0 - DAMPING) * share for share in rank]
    kernel = _numpy_step if HAS_NUMPY else _exact_step
    step = kernel(adjacency.csr(), base)
    for iterations in range(1, max_iters + 1):
        rank, delta = step(rank)
        if delta <= EPSILON:
            break
    if kernel is _numpy_step:
        rank = rank.tolist()
    return RankResult(
        scores=dict(zip(nodes, rank)),
        iterations=iterations,
        converged=delta <= EPSILON,
        delta=delta,
    )


def ranked_of_kind(
    scores: Dict[NodeId, float],
    kind: str,
    exclude: Tuple[NodeId, ...] = (),
    top_k: Optional[int] = None,
) -> List[Tuple[object, float]]:
    """``(key, score)`` pairs of one node kind, deterministically ranked.

    Sorted by ``(-score, key)`` — the stable tie-break every exposure of
    the ranking shares, so equal scores never reorder between runs.
    """
    dropped = set(exclude)
    entries = [
        (node[1], score)
        for node, score in scores.items()
        if node[0] == kind and node not in dropped
    ]
    entries.sort(key=lambda entry: (-entry[1], entry[0]))
    if top_k is not None:
        entries = entries[:top_k]
    return entries
