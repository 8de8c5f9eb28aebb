"""The four workloads: pools mined from the data, seeded traces, clients, digests.

Every pool (queries, course ids, student ids) is a pure function of the
generated database — fixed orderings, no run-time randomness — so the
committed expected digests stay valid for every ``--seed``.  The seed only
chooses *which* pool entries a trace uses and in what order; each trace
samples two thirds of its pool, which keeps the op mix (and therefore the
percentiles) close from seed to seed while still varying the inputs.

An op is a tuple ``(kind, *args)``.  The program under test only ever
sees these generated inputs through its public service API.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.courserank.accounts import Role
from repro.courserank.app import CourseRank
from repro.service.loadgen import zipf_pick
from repro.service.sharding import ShardedUniversity

Op = Tuple[Any, ...]
Pools = Dict[str, List[Any]]

#: fixes the course/student permutations the pools are cut from
POOL_SEED = 20090104

_STOPWORDS = {
    "and", "the", "for", "with", "from", "into", "introduction", "of", "to",
}

#: op kind -> the per-kind latency metric it feeds (service.<label>_p50_ms)
KIND_LABEL = {
    "search": "search",
    "session": "session",
    "page": "page",
    "recommend": "recommend",
    "graphrank": "graphrank",
    "folkrank": "graphrank",
    "cube-walk": "cubewalk",
    "comment": "comment",
}

CUBE_DIMENSIONS = ("department", "quarter", "instructor")


# -- pools ---------------------------------------------------------------------


def _title_words(title: str) -> List[str]:
    """Query-worthy words of one title (the loadgen pool's rule)."""
    words = []
    for word in str(title).lower().replace("-", " ").split():
        word = word.strip(",:()&")
        if len(word) > 3 and word not in _STOPWORDS and word not in words:
            words.append(word)
    return words


def vocabulary(database: Any) -> Tuple[List[str], List[str]]:
    """(single words, two-word ANDs), each ranked by title frequency.

    Pairs are words that share at least one title, so every AND query
    has results and a cloud to refine.
    """
    singles: Dict[str, int] = {}
    pairs: Dict[str, int] = {}
    rows = database.query("SELECT Title FROM Courses ORDER BY CourseID").rows
    for (title,) in rows:
        words = _title_words(title)
        for index, word in enumerate(words):
            singles[word] = singles.get(word, 0) + 1
            for other in words[index + 1:]:
                pair = f"{word} {other}"
                pairs[pair] = pairs.get(pair, 0) + 1
    return (
        sorted(singles, key=lambda word: (-singles[word], word)),
        sorted(pairs, key=lambda pair: (-pairs[pair], pair)),
    )


def _permuted(values: Sequence[Any]) -> List[Any]:
    shuffled = sorted(values)
    random.Random(POOL_SEED).shuffle(shuffled)
    return shuffled


def _column(database: Any, sql: str) -> List[Any]:
    return [row[0] for row in database.query(sql).rows]


def _pool_size(count: int) -> int:
    """A trace of ``count`` ops samples two thirds of its pool."""
    return count + (count + 1) // 2


def _split(total: int, shares: Sequence[int]) -> List[int]:
    """Divide ``total`` ops in proportion to ``shares`` (largest first)."""
    whole = sum(shares)
    counts = [total * share // whole for share in shares]
    counts[0] += total - sum(counts)
    return counts


# -- the workloads -------------------------------------------------------------


@dataclass(frozen=True)
class Group:
    """One op shape of a sampled trace and the pool its keys come from."""

    pool: str
    share: int
    make: Callable[[Any], Op]


@dataclass(frozen=True)
class Workload:
    """One traffic mix, its scale, and how long one pass of it takes."""

    name: str
    why: str
    scale: str
    ops: int
    #: nominal seconds of one pass (fresh service + warm-up + N ops) on a
    #: quiet host: what the harness reserves per pass out of ``--seconds``
    pass_seconds: float
    #: "expected" = committed per-op digests; "reference" = lockstep replay
    #: against the unsharded facade and the direct FlexRecs path
    oracle: str
    pools: Callable[[Any, int], Pools]
    warmup: Callable[[Pools], List[Op]]
    #: distinct-key workloads sample each group's pool without replacement;
    #: the Zipfian mix (no groups) draws with replacement instead
    groups: Tuple[Group, ...] = ()


def _session(query: str) -> Op:
    return ("session", query)


SEARCH_GROUPS = (Group("singles", 1, _session), Group("pairs", 1, _session))

BROWSE_GROUPS = (
    Group("page", 200, lambda course_id: ("page", course_id)),
) + tuple(
    Group(
        strategy,
        share,
        lambda course_id, strategy=strategy: ("recommend", strategy, course_id),
    )
    for strategy, share in (
        ("related_courses", 100),
        ("courses_taken_together", 25),
        ("similar_audience_courses", 25),
    )
)

GRAPH_GROUPS = (
    Group("students", 6, lambda student_id: ("graphrank", student_id)),
    Group("courses", 2, lambda course_id: ("folkrank", course_id)),
)


def _counts(groups: Sequence[Group], ops: int) -> List[int]:
    return _split(ops, [group.share for group in groups])


def sampled_trace(
    groups: Sequence[Group], pools: Pools, rng: random.Random, ops: int
) -> List[Op]:
    """``ops`` distinct-key ops: each group samples its share of its pool."""
    trace: List[Op] = []
    for group, count in zip(groups, _counts(groups, ops)):
        pool = pools[group.pool]
        trace += [
            group.make(key) for key in rng.sample(pool, min(count, len(pool)))
        ]
    rng.shuffle(trace)
    return trace


def pool_ops(groups: Sequence[Group], pools: Pools) -> List[Op]:
    """Every op a sampled trace can contain (what the expected file covers)."""
    return [group.make(key) for group in groups for key in pools[group.pool]]


def _search_pools(database: Any, ops: int) -> Pools:
    singles, pairs = vocabulary(database)
    by_single, by_pair = _counts(SEARCH_GROUPS, ops)
    # The reserved warm-up word sits mid-ranking: a typical result size.
    reserved = singles.pop(len(singles) // 2)
    return {
        "singles": singles[: _pool_size(by_single)],
        "pairs": pairs[: _pool_size(by_pair)],
        "reserved": [reserved],
    }


def _search_warmup(pools: Pools) -> List[Op]:
    return [_session(pools["reserved"][0])]


def _browse_pools(database: Any, ops: int) -> Pools:
    courses = _permuted(
        _column(database, "SELECT CourseID FROM Courses ORDER BY CourseID")
    )
    pools: Pools = {"reserved": courses[-len(BROWSE_GROUPS):]}
    start = 0
    for group, count in zip(BROWSE_GROUPS, _counts(BROWSE_GROUPS, ops)):
        # Disjoint slices: no course is touched by two op kinds.
        pools[group.pool] = courses[start:start + _pool_size(count)]
        start += _pool_size(count)
    return pools


def _browse_warmup(pools: Pools) -> List[Op]:
    return [
        group.make(course_id)
        for group, course_id in zip(BROWSE_GROUPS, pools["reserved"])
    ]


def _graph_pools(database: Any, ops: int) -> Pools:
    # Only nodes with enrollment edges are rankable seeds.
    students = _permuted(
        _column(database, "SELECT DISTINCT SuID FROM Enrollments ORDER BY SuID")
    )
    courses = _permuted(
        _column(
            database,
            "SELECT DISTINCT CourseID FROM Enrollments ORDER BY CourseID",
        )
    )
    by_student, by_course = _counts(GRAPH_GROUPS, ops)
    return {
        "students": students[: _pool_size(by_student)],
        "courses": courses[: _pool_size(by_course)],
        "reserved": [students[-1]],
    }


def _graph_warmup(pools: Pools) -> List[Op]:
    # Both strategies share one code path below the workflow node, so one
    # op builds everything lazy: union adjacency, baseline vector.
    return [("graphrank", pools["reserved"][0])]


#: page 37 %, search 25 %, session 15 %, related 15 %, cube-walk 5 %, comment 3 %
_MIXED_SHARES = (
    ("page", 37),
    ("search", 25),
    ("session", 15),
    ("recommend", 15),
    ("cube-walk", 5),
    ("comment", 3),
)


def _mixed_pools(database: Any, ops: int) -> Pools:
    singles, pairs = vocabulary(database)
    courses = _permuted(
        _column(database, "SELECT CourseID FROM Courses ORDER BY CourseID")
    )
    reserved_words = singles[32:34] or singles[-2:]
    return {
        # Popularity rank = list position (Zipf weight 1/(rank+1)).
        "queries": singles[:32] + pairs[:16],
        "courses": courses[: min(400, max(1, len(courses) - 2))],
        "reserved": list(reserved_words) + courses[-2:],
    }


def _mixed_op(kind: str, step: int, pools: Pools, rng: random.Random) -> Op:
    queries, courses = pools["queries"], pools["courses"]
    if kind in ("search", "session"):
        return (kind, zipf_pick(rng, queries))
    if kind == "page":
        return (kind, zipf_pick(rng, courses))
    if kind == "recommend":
        return (kind, "related_courses", zipf_pick(rng, courses))
    if kind == "cube-walk":
        return (kind, zipf_pick(rng, CUBE_DIMENSIONS))
    # The note carries a pool word, so the write is visible to later
    # searches, not merely an epoch bump.
    word = zipf_pick(rng, queries).split()[0]
    return (
        "comment",
        zipf_pick(rng, courses),
        f"trace note {step}: solid {word} material",
        float(1.0 + (step % 9) * 0.5),
    )


def mixed_trace(pools: Pools, rng: random.Random, ops: int) -> List[Op]:
    """``ops`` Zipfian draws (with replacement) over the fixed pools.

    The kinds are stratified, not drawn: the trace is one block per write,
    each block holding its even share of every kind in seeded order.  What
    a write retires — and so how many misses follow it — then depends on
    the seed's keys, not on how the kinds happened to cluster; drawn kinds
    moved ``ops_per_s`` by ±17 % from seed to seed.
    """
    kinds = [kind for kind, _ in _MIXED_SHARES]
    counts = dict(
        zip(kinds, _split(ops, [share for _, share in _MIXED_SHARES]))
    )
    for kind in kinds[1:]:
        if counts[kind] == 0 and counts["page"] > 1:
            # A toy-sized trace still has one op of every kind.
            counts[kind], counts["page"] = 1, counts["page"] - 1
    blocks = counts["comment"] or 1
    trace: List[Op] = []
    for block in range(blocks):
        block_kinds: List[str] = []
        for offset, kind in enumerate(kinds):
            # Remainders rotate by kind so no block collects them all.
            extra = (block + offset) % blocks < counts[kind] % blocks
            block_kinds += [kind] * (counts[kind] // blocks + extra)
        rng.shuffle(block_kinds)
        for kind in block_kinds:
            trace.append(_mixed_op(kind, len(trace), pools, rng))
    return trace


def _mixed_warmup(pools: Pools) -> List[Op]:
    word_a, word_b, course_a, course_b = pools["reserved"]
    return [
        ("search", word_a),
        ("session", word_b),
        ("page", course_a),
        ("recommend", "related_courses", course_b),
        ("cube-walk", CUBE_DIMENSIONS[0]),
        ("comment", course_a, f"warm-up note: {word_a}", 3.0),
    ]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="search-refine-miss",
            why=(
                "300 distinct search sessions (query, refine by the top cloud "
                "term, back): every request misses every cache, so BM25, cloud "
                "gathering and the scatter-gather merge do all the work"
            ),
            scale="medium",
            ops=300,
            pass_seconds=2.8,
            oracle="expected",
            pools=_search_pools,
            warmup=_search_warmup,
            groups=SEARCH_GROUPS,
        ),
        Workload(
            name="browse-recommend-miss",
            why=(
                "course pages and three FlexRecs strategies over 350 distinct "
                "courses: the facade, the workflow compiler and minidb do the "
                "work and search/clouds do none"
            ),
            scale="medium",
            ops=350,
            pass_seconds=4.6,
            oracle="expected",
            pools=_browse_pools,
            warmup=_browse_warmup,
            groups=BROWSE_GROUPS,
        ),
        Workload(
            name="graph-rank",
            why=(
                "8 FolkRank recommendations on distinct students and courses: "
                "power iteration over the union graph is nearly all of the "
                "time, the repo's slowest request"
            ),
            scale="small",
            ops=8,
            pass_seconds=4.6,
            oracle="expected",
            pools=_graph_pools,
            warmup=_graph_warmup,
            groups=GRAPH_GROUPS,
        ),
        Workload(
            name="mixed-rw-zipf",
            why=(
                "600 Zipfian page/search/session/recommend/cube ops with 3 % "
                "comment writes: response caches and memos carry the reads and "
                "every write retires them, so hits and invalidation both count"
            ),
            scale="medium",
            ops=600,
            pass_seconds=5.0,
            oracle="reference",
            pools=_mixed_pools,
            warmup=_mixed_warmup,
        ),
    )
}


def build_trace(
    workload: Workload, pools: Pools, rng: random.Random, ops: int
) -> List[Op]:
    if workload.groups:
        return sampled_trace(workload.groups, pools, rng, ops)
    return mixed_trace(pools, rng, ops)


def op_key(op: Op) -> str:
    return "|".join(str(part) for part in op)


# -- clients -------------------------------------------------------------------


def register_user(app: Any, student_id: Any) -> Any:
    """The benchmark's account on one facade (it writes the comments)."""
    return app.accounts.register("loadgen", Role.STUDENT, person_id=student_id)


class Client:
    """Runs ops through the five request shapes both builds share."""

    def __init__(self, user: Any) -> None:
        self.user = user
        # One shared cube navigator, as a browsing front end would keep:
        # its cell memo is version-keyed, so it stays correct across writes.
        self._cube = None

    # Primitives a concrete client provides.
    def search(self, query: str) -> Any:
        raise NotImplementedError

    def session(self, query: str) -> Any:
        raise NotImplementedError

    def page(self, course_id: Any) -> Any:
        raise NotImplementedError

    def recommend(self, name: str, **params: Any) -> Any:
        raise NotImplementedError

    def cube(self) -> Any:
        raise NotImplementedError

    def comment(self, course_id: Any, text: str, rating: float) -> Any:
        raise NotImplementedError

    def run(self, op: Op) -> Any:
        """Execute one op and return its (undigested) answer."""
        kind = op[0]
        if kind == "search":
            return self.search(op[1])
        if kind == "session":
            session = self.session(op[1])
            first = (session.result, session.cloud)
            refined = None
            if session.cloud.terms:
                step = session.refine(session.cloud.terms[0].term)
                refined = (step.result, step.cloud)
                session.back()
            return first, refined
        if kind == "page":
            return self.page(op[1])
        if kind == "recommend":
            return self.recommend(op[1], course_id=op[2])
        if kind == "graphrank":
            return self.recommend(
                "graph_rank_courses", student_id=op[1], top_k=10
            )
        if kind == "folkrank":
            return self.recommend("similar_by_folkrank", course_id=op[1])
        if kind == "cube-walk":
            if self._cube is None:
                self._cube = self.cube()
            cube = self._cube
            root = cube.root()
            values = cube.dimension_values(root, op[1])
            child = parent = None
            if values:
                child = cube.slice(root, op[1], values[0])
                parent = cube.roll_up(child)
            return root, values, child, parent
        if kind == "comment":
            return self.comment(op[1], op[2], op[3])
        raise ValueError(f"unknown op kind {kind!r}")


class ServiceClient(Client):
    """The client under measurement: the sharded service's public API."""

    def __init__(self, service: Any, user: Any) -> None:
        super().__init__(user)
        self.service = service

    def search(self, query: str) -> Any:
        return self.service.search(query, limit=20)

    def session(self, query: str) -> Any:
        return self.service.session(query)

    def page(self, course_id: Any) -> Any:
        return self.service.course_page(course_id)

    def recommend(self, name: str, **params: Any) -> Any:
        return self.service.recommend(name, **params)

    def cube(self) -> Any:
        return self.service.cube()

    def comment(self, course_id: Any, text: str, rating: float) -> Any:
        return self.service.comment_on_course(
            self.user, course_id, text, rating
        )


class ReferenceClient(Client):
    """The oracle: the unsharded facade, and FlexRecs' direct path.

    Search, sessions, pages, cube walks and comments replay on an
    unsharded :class:`CourseRank` over a private copy of the data — the
    service claims bit-identity with it.  Shard-routed recommendations
    claim no cross-build equality, so they are checked against the
    reference executor (``path="direct"``) over a private split of the
    same shard count, instead of the compiled-SQL path the service takes.
    Writes go to both copies, so every read sees the trace's prefix.
    """

    def __init__(self, database: Any, num_shards: int, student_id: Any) -> None:
        # A one-shard split is a private, row-for-row copy of the source.
        self.app = CourseRank(ShardedUniversity(database, 1).shards[0])
        self.app.cloudsearch.build()
        super().__init__(register_user(self.app, student_id))
        self.sharded = ShardedUniversity(database, num_shards)
        # Facades with no search index: they only take writes and recommend.
        self.shard_apps = [CourseRank(shard) for shard in self.sharded.shards]
        self.shard_users = [
            register_user(app, student_id) for app in self.shard_apps
        ]

    def search(self, query: str) -> Any:
        return self.app.search_courses(query, limit=20)

    def session(self, query: str) -> Any:
        return self.app.search_session(query)

    def page(self, course_id: Any) -> Any:
        return self.app.course_page(course_id)

    def recommend(self, name: str, **params: Any) -> Any:
        shard = self.sharded.shard_of_course(params["course_id"])
        return self.shard_apps[shard].recommendations.run(
            name, path="direct", **params
        )

    def cube(self) -> Any:
        return self.app.cloudsearch.cube()

    def comment(self, course_id: Any, text: str, rating: float) -> Any:
        shard = self.sharded.shard_of_course(course_id)
        self.shard_apps[shard].comment_on_course(
            self.shard_users[shard], course_id, text, rating
        )
        return self.app.comment_on_course(self.user, course_id, text, rating)


# -- answer digests ------------------------------------------------------------


def _search_identity(answer: Any) -> Tuple[Any, ...]:
    result, cloud = answer
    return (tuple(result.doc_ids()), tuple(cloud.term_names()))


def _cell_identity(cell: Any) -> Optional[Tuple[Any, ...]]:
    if cell is None:
        return None
    return (cell.coordinate, cell.result_size, tuple(cell.cloud.term_names()))


def identity(op: Op, answer: Any) -> Tuple[Any, ...]:
    """The order-bearing identity of an answer — ids and names, no floats."""
    kind = op[0]
    if kind == "search":
        return _search_identity(answer)
    if kind == "session":
        first, refined = answer
        return (
            _search_identity(first),
            None if refined is None else _search_identity(refined),
        )
    if kind == "page":
        return (
            answer["course"].course_id,
            answer["rating_count"],
            len(answer["comments"]),
        )
    if kind in ("recommend", "graphrank", "folkrank"):
        return tuple(row["CourseID"] for row in answer.rows)
    if kind == "cube-walk":
        root, values, child, parent = answer
        return (
            _cell_identity(root),
            tuple(values),
            _cell_identity(child),
            _cell_identity(parent),
        )
    if kind == "comment":
        return (answer.course_id, answer.suid, answer.text, answer.rating)
    raise ValueError(f"unknown op kind {kind!r}")


def digest(op: Op, answer: Any) -> str:
    text = repr(identity(op, answer)).encode("utf-8")
    return hashlib.sha1(text).hexdigest()[:16]
