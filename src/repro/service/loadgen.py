"""Closed-loop Zipfian load generation against the service layer.

The generator replays a deterministic trace of mixed operations —
keyword search, cloud-refinement sessions, FlexRecs recommendations,
and (optionally) comment writes — whose queries follow the same
``1/(rank+1)`` Zipfian popularity the synthetic population uses
(:mod:`repro.datagen.population`): a few head queries dominate, a long
tail trickles.  That shape is what makes the coordinator's epoch-vector
response cache earn its keep, exactly as CourseRank's real workload
("about 20,000 page views a day") concentrates on a few popular courses.

Closed loop: each worker thread issues its next operation only after the
previous one completes, so offered load adapts to service latency and
the sustained QPS number is honest.  Every worker records latencies into
a *private* :class:`~repro.obs.metrics.MetricsRegistry`; the per-worker
registries are merged associatively at the end (PR 5's equivalence suite
is what licenses this), and p50/p99 come from the merged histograms.

The same trace can be replayed single-threaded against the unsharded
:class:`~repro.courserank.app.CourseRank` facade, giving the baseline
for the speedup figure, plus a bit-identical spot check of the two
builds' answers before any timing begins.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.courserank.accounts import Role, User
from repro.courserank.app import CourseRank
from repro.minidb.catalog import Database
from repro.obs.metrics import MetricsRegistry
from repro.service.frontend import CourseRankService
from repro.service.sharding import ShardedUniversity

#: default operation mix (read-only; comments enter via write_fraction)
DEFAULT_MIX: Dict[str, float] = {
    "search": 0.55,
    "session": 0.25,
    "recommend": 0.20,
}

_STOPWORDS = {
    "and", "the", "for", "with", "from", "into", "introduction", "of", "to",
}


def zipf_pick(rng, items: Sequence[Any]) -> Any:
    """Draw one item with weight 1/(rank+1) — the population's law."""
    weights = [1.0 / (rank + 1) for rank in range(len(items))]
    return rng.choices(items, weights=weights, k=1)[0]


def build_query_pool(
    database: Database, rng, size: int = 48
) -> List[str]:
    """A popularity-ranked pool of queries mined from course titles."""
    rows = database.query("SELECT Title FROM Courses ORDER BY CourseID").rows
    counts: Dict[str, int] = {}
    for (title,) in rows:
        for word in str(title).lower().replace("-", " ").split():
            word = word.strip(",:()&")
            if len(word) > 3 and word not in _STOPWORDS:
                counts[word] = counts.get(word, 0) + 1
    ranked = sorted(counts, key=lambda word: (-counts[word], word))
    pool = ranked[: size * 2 // 3]
    # Pad with two-word queries over the head words (phrase-free AND).
    head = ranked[:12]
    while len(pool) < size and len(head) >= 2:
        first, second = rng.sample(head, 2)
        query = f"{first} {second}"
        if query not in pool:
            pool.append(query)
    return pool


def build_trace(
    database: Database,
    operations: int = 400,
    seed: int = 11,
    mix: Optional[Dict[str, float]] = None,
    write_fraction: float = 0.0,
    graph_fraction: float = 0.0,
) -> List[Tuple[Any, ...]]:
    """A deterministic mixed-operation trace.

    Each entry is ``(kind, *args)``: ``("search", query)``,
    ``("session", query)``, ``("recommend", course_id)``, or
    ``("comment", course_id, text, rating)``.  ``write_fraction`` carves
    that share out of the read mix for comment writes, and
    ``graph_fraction`` carves a further share split evenly between
    ``("graphrank", student_id)`` FolkRank recommendations and
    ``("cube-walk", dimension)`` OLAP cloud-cube navigations.
    """
    import random

    rng = random.Random(seed)
    mix = dict(mix or DEFAULT_MIX)
    if write_fraction > 0.0:
        scale = 1.0 - write_fraction
        mix = {kind: share * scale for kind, share in mix.items()}
        mix["comment"] = write_fraction
    if graph_fraction > 0.0:
        scale = 1.0 - graph_fraction
        mix = {kind: share * scale for kind, share in mix.items()}
        mix["graphrank"] = graph_fraction / 2.0
        mix["cube-walk"] = graph_fraction / 2.0
    kinds = sorted(mix)
    shares = [mix[kind] for kind in kinds]
    queries = build_query_pool(database, rng)
    course_rows = database.query(
        "SELECT CourseID FROM Courses ORDER BY CourseID"
    ).rows
    course_ids = [row[0] for row in course_rows]
    student_rows = database.query(
        "SELECT SuID FROM Students ORDER BY SuID"
    ).rows
    student_ids = [row[0] for row in student_rows]
    dimensions = ("department", "quarter", "instructor")
    trace: List[Tuple[Any, ...]] = []
    for step in range(operations):
        kind = rng.choices(kinds, weights=shares, k=1)[0]
        if kind in ("search", "session"):
            trace.append((kind, zipf_pick(rng, queries)))
        elif kind == "recommend":
            trace.append((kind, zipf_pick(rng, course_ids)))
        elif kind == "graphrank":
            trace.append((kind, zipf_pick(rng, student_ids)))
        elif kind == "cube-walk":
            trace.append((kind, zipf_pick(rng, dimensions)))
        else:
            course_id = zipf_pick(rng, course_ids)
            word = zipf_pick(rng, queries).split()[0]
            trace.append(
                (
                    "comment",
                    course_id,
                    f"trace note {step}: solid {word} material",
                    float(1.0 + (step % 9) * 0.5),
                )
            )
    return trace


# -- clients -----------------------------------------------------------------


class Client:
    """Executes trace operations through the five request shapes both
    builds share — ``search``, ``session``, ``recommend``, ``cube`` and
    ``comment_on_course`` — on the sharded service or, wrapped in
    :class:`UnshardedService`, the unsharded facade."""

    def __init__(self, target: Any, user: Optional[User] = None) -> None:
        self.target = target
        self.user = user
        # One shared cube navigator: its cell memo is version-keyed, so
        # reuse across operations (and after writes) stays correct while
        # the Zipfian walk repetition gets the memo hits it deserves.
        self._cube = None

    def run(self, op: Tuple[Any, ...]) -> None:
        kind = op[0]
        target = self.target
        if kind == "search":
            target.search(op[1], limit=20)
        elif kind == "session":
            session = target.session(op[1])
            if session.cloud.terms:
                session.refine(session.cloud.terms[0].term)
                session.back()
        elif kind == "recommend":
            target.recommend("related_courses", course_id=op[1])
        elif kind == "graphrank":
            target.recommend("graph_rank_courses", student_id=op[1], top_k=10)
        elif kind == "cube-walk":
            if self._cube is None:
                self._cube = target.cube()
            cube = self._cube
            root = cube.root()
            values = cube.dimension_values(root, op[1])
            if values:
                child = cube.slice(root, op[1], values[0])
                cube.roll_up(child)
        elif kind == "comment":
            if self.user is None:
                raise ValueError("comment ops need a registered user")
            target.comment_on_course(self.user, op[1], op[2], op[3])
        else:
            raise ValueError(f"unknown trace op {kind!r}")


class UnshardedService:
    """The unsharded facade behind the service's request shapes."""

    def __init__(self, app: CourseRank) -> None:
        self.app = app

    def search(self, query: str, limit: Optional[int] = None) -> Any:
        return self.app.search_courses(query, limit=limit)

    def session(self, query: str) -> Any:
        return self.app.search_session(query)

    def recommend(self, name: str, **params: Any) -> Any:
        return self.app.recommendations.run(name, **params)

    def cube(self) -> Any:
        return self.app.cloudsearch.cube()

    def comment_on_course(self, user: User, *args: Any) -> Any:
        return self.app.comment_on_course(user, *args)


# -- the closed loop ---------------------------------------------------------


def run_load(
    client: Any,
    trace: Sequence[Tuple[Any, ...]],
    threads: int = 8,
) -> Tuple[MetricsRegistry, float]:
    """Replay ``trace`` over ``threads`` closed-loop workers.

    Returns the merged per-worker metrics and the wall-clock duration.
    Worker *i* takes the round-robin slice ``trace[i::threads]``, so the
    operation mix every worker sees matches the trace's.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    registries = [MetricsRegistry() for _ in range(threads)]
    barrier = threading.Barrier(threads + 1)
    errors: List[BaseException] = []
    errors_lock = threading.Lock()

    def worker(index: int) -> None:
        registry = registries[index]
        slice_ = trace[index::threads]
        try:
            barrier.wait()
            for op in slice_:
                started = time.perf_counter()
                client.run(op)
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                registry.observe("loadgen.op.ms", elapsed_ms)
                registry.observe(f"loadgen.{op[0]}.ms", elapsed_ms)
                registry.inc("loadgen.op.count")
                registry.inc(f"loadgen.{op[0]}.count")
        except BaseException as exc:  # surfaced to the caller
            with errors_lock:
                errors.append(exc)

    workers = [
        threading.Thread(target=worker, args=(index,), daemon=True)
        for index in range(threads)
    ]
    for thread in workers:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in workers:
        thread.join()
    duration = time.perf_counter() - started
    if errors:
        raise errors[0]
    return MetricsRegistry.merged(registries), duration


# -- the full load test ------------------------------------------------------


@dataclass
class LoadReport:
    """One load-test outcome, ready for the benchmark JSON."""

    scale: str
    shards: int
    threads: int
    operations: int
    seed: int
    duration_s: float
    qps: float
    p50_ms: Optional[float]
    p99_ms: Optional[float]
    per_kind: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    baseline_qps: Optional[float] = None
    baseline_duration_s: Optional[float] = None
    speedup: Optional[float] = None
    equivalent: Optional[bool] = None
    response_cache: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scale": self.scale,
            "shards": self.shards,
            "threads": self.threads,
            "operations": self.operations,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "qps": self.qps,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "per_kind": self.per_kind,
            "baseline_qps": self.baseline_qps,
            "baseline_duration_s": self.baseline_duration_s,
            "speedup": self.speedup,
            "equivalent": self.equivalent,
            "response_cache": self.response_cache,
        }


def _per_kind_summary(
    registry: MetricsRegistry, trace: Sequence[Tuple[Any, ...]]
) -> Dict[str, Dict[str, Any]]:
    summary: Dict[str, Dict[str, Any]] = {}
    for kind in sorted({op[0] for op in trace}):
        histogram = registry.histogram(f"loadgen.{kind}.ms")
        if histogram is None:
            continue
        summary[kind] = {
            "count": registry.counter(f"loadgen.{kind}.count"),
            "mean_ms": histogram.mean,
            "p50_ms": histogram.quantile(0.50),
            "p99_ms": histogram.quantile(0.99),
        }
    return summary


def spot_check_equivalence(
    app: CourseRank,
    service: CourseRankService,
    trace: Sequence[Tuple[Any, ...]],
    sample: int = 8,
) -> bool:
    """Bit-identical comparison of the two builds on trace head queries."""
    queries: List[str] = []
    for op in trace:
        if op[0] in ("search", "session") and op[1] not in queries:
            queries.append(op[1])
        if len(queries) >= sample:
            break
    for query in queries:
        base_result, base_cloud = app.cloudsearch.search(query)
        svc_result, svc_cloud = service.search(query)
        if [(hit.doc_id, hit.score) for hit in base_result.hits] != [
            (hit.doc_id, hit.score) for hit in svc_result.hits
        ]:
            return False
        if [
            (term.term, term.score, term.occurrences, term.result_df, term.bucket)
            for term in base_cloud.terms
        ] != [
            (term.term, term.score, term.occurrences, term.result_df, term.bucket)
            for term in svc_cloud.terms
        ]:
            return False
    return True


def load_test(
    scale: str = "small",
    shards: int = 4,
    threads: int = 8,
    operations: int = 400,
    seed: int = 11,
    write_fraction: float = 0.0,
    graph_fraction: float = 0.0,
    with_baseline: bool = True,
) -> LoadReport:
    """Generate a university, shard it, and measure sustained throughput.

    Builds the unsharded baseline and the sharded service over the same
    generated data, spot-checks that they answer bit-identically, replays
    the trace single-threaded against the baseline and ``threads``-wide
    against the service, and reports QPS plus merged p50/p99 latencies.
    """
    from repro.datagen import generate_university

    service_db = generate_university(scale=scale, seed=seed)
    service = CourseRankService(service_db, num_shards=shards)
    trace = build_trace(
        service_db,
        operations=operations,
        seed=seed,
        write_fraction=write_fraction,
        graph_fraction=graph_fraction,
    )

    baseline_qps = None
    baseline_duration = None
    equivalent = None
    app = None
    if with_baseline:
        # A one-shard split is a private, row-for-row copy of the source.
        app = CourseRank(ShardedUniversity(service_db, 1).shards[0])
        app.cloudsearch.build()
        equivalent = spot_check_equivalence(app, service, trace)

    service_user = None
    baseline_user = None
    if write_fraction > 0.0:
        # Users are replicated at split time, so the same registration on
        # every shard app lands the same user id everywhere.
        for shard_app in service.apps:
            service_user = shard_app.accounts.register(
                "loadgen", Role.STUDENT, person_id=1
            )
        if app is not None:
            baseline_user = app.accounts.register(
                "loadgen", Role.STUDENT, person_id=1
            )

    if app is not None:
        _, baseline_duration = run_load(
            Client(UnshardedService(app), baseline_user), trace, threads=1
        )
        baseline_qps = len(trace) / baseline_duration

    merged, duration = run_load(
        Client(service, service_user), trace, threads=threads
    )
    overall = merged.histogram("loadgen.op.ms")
    qps = len(trace) / duration
    return LoadReport(
        scale=scale,
        shards=shards,
        threads=threads,
        operations=len(trace),
        seed=seed,
        duration_s=duration,
        qps=qps,
        p50_ms=overall.quantile(0.50) if overall is not None else None,
        p99_ms=overall.quantile(0.99) if overall is not None else None,
        per_kind=_per_kind_summary(merged, trace),
        baseline_qps=baseline_qps,
        baseline_duration_s=baseline_duration,
        speedup=(qps / baseline_qps) if baseline_qps else None,
        equivalent=equivalent,
        response_cache=service.response_cache_info(),
    )
