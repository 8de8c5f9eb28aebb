"""The measurement harness: identical passes, per-op best-of-K, verification.

One *pass* builds a fresh ``CourseRankService`` from the pristine
generated database, registers the benchmark's user, runs one untimed
warm-up op per op kind, then replays the fixed trace from a single
closed-loop client, timing each op with ``perf_counter_ns``.  Writes land
in the service's shard copies, never in the source database, so every
pass starts from the same state whatever caches the program has and
whatever their sizes: pass *k*'s op *i* does the same work as pass 1's.
That is what licenses ``lat[i] = min over passes``.

The host this runs on has two speeds.  For stretches of 1–20 s, a third
to a half of the time, everything runs slower — a five-line spin loop
1.9×, a request about 1.45× — with the VM's other CPU idle and no steal
reported: a neighbour on the physical core.  A pass that falls into such
a stretch is slow as a whole, so no fixed number of passes makes the
per-op minimum repeat.  ``HostProbe`` times a tiny fixed loop before and
after every op, and the harness sleeps through slow stretches (within
the ``--seconds`` budget) instead of timing requests in them.  The probe
only schedules the work: every reported latency is a plain measured
minimum, and think time between the requests of a closed-loop client
changes nothing the program can see.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns, sleep
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.datagen import generate_university
from repro.minidb.plancache import clear_statement_cache
from repro.service import CourseRankService

import metrics
from spans import Tracer, tracing, write_chrome_trace
from workloads import (
    WORKLOADS,
    Op,
    ReferenceClient,
    ServiceClient,
    Workload,
    build_trace,
    digest,
    op_key,
    pool_ops,
    register_user,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
EXPECTED = HERE / "expected"

#: BENCHMARK.json's run_seconds (test_smoke.py keeps the two equal)
DEFAULT_SECONDS = 20
DATA_SEED = 11
SHARDS = 4
#: at least two passes, so that answers can be compared between passes
MIN_PASSES = 2


class HostProbe:
    """Tells the host's quiet state from its slow one with a fixed spin loop.

    The slow state doubles the loop's time; quiet readings stay within
    ~20 % of the fastest seen, so 1.3× the running minimum splits
    the two.  Each reading is the best of three loops, which a stray
    interrupt cannot spoil.
    """

    THRESHOLD = 1.3
    NAP = 0.02

    def __init__(self) -> None:
        self.fastest = float("inf")
        self.readings = 0
        self.quiet_readings = 0

    @staticmethod
    def _spin() -> int:
        started = perf_counter_ns()
        total = 0
        for value in range(1500):
            total += value & 7
        return perf_counter_ns() - started

    def quiet(self) -> bool:
        reading = min(self._spin(), self._spin(), self._spin())
        self.fastest = min(self.fastest, reading)
        is_quiet = reading <= self.THRESHOLD * self.fastest
        self.readings += 1
        self.quiet_readings += is_quiet
        return is_quiet

    def wait_for_quiet(self, give_up_at: float) -> bool:
        """Sleep through a slow stretch, but never past ``give_up_at``.

        After a sleep one quiet reading is not trusted: the core has just
        woken and the quiet may be a blip, so three in a row must agree.
        """
        if self.quiet():
            return True
        while perf_counter() < give_up_at:
            sleep(self.NAP)
            if self.quiet() and self.quiet() and self.quiet():
                return True
        return False


@dataclass
class PassResult:
    setup_s: float
    build_s: float
    #: the probe was quiet before and after set-up
    setup_quiet: bool
    latencies_ns: List[int]
    #: per op: the probe was quiet both before and after it ran
    quiet: List[bool]
    digests: List[str]
    response_cache: Dict[str, int]
    #: change in the program's cache counters over the ops (traced pass only)
    counters: Optional[Dict[str, int]] = None


def source_versions(database: Any) -> Dict[str, int]:
    return {
        name: database.table(name).data_version
        for name in database.table_names()
    }


def fresh_client(database: Any, student_id: Any) -> Tuple[Any, ServiceClient]:
    """A new service over ``database`` with the benchmark user registered."""
    service = CourseRankService(database, num_shards=SHARDS)
    # Users are replicated at split time, so the same registration on
    # every shard app yields the same user id everywhere.
    users = [register_user(app, student_id) for app in service.apps]
    return service, ServiceClient(service, users[0])


def layer_counters(service: Any) -> Dict[str, int]:
    """The program's own cache counters, through its public accessors."""
    counters = dict.fromkeys(
        ("search.hits", "search.misses", "plan.hits", "plan.misses"), 0
    )
    for app in service.apps:
        search = app.cloudsearch.cache_info()
        plan = app.observability()["caches"]["plan_cache"]
        counters["search.hits"] += search["hits"]
        counters["search.misses"] += search["misses"]
        counters["plan.hits"] += plan["hits"]
        counters["plan.misses"] += plan["misses"]
    response = service.response_cache_info()
    graph = service.graphrank.cache_info()
    counters.update(
        {
            "response.hits": response["hits"],
            "response.misses": response["misses"],
            "rank.hits": graph["rank_hits"],
            "rank.misses": graph["rank_misses"],
            "graph.nodes": graph["nodes"],
            "graph.edges": graph["edges"],
        }
    )
    return counters


@dataclass
class Bench:
    """What every pass of one run shares: inputs, the probe, the findings."""

    database: Any
    pristine: Dict[str, int]
    trace: Sequence[Op]
    warmup: Sequence[Op]
    student_id: Any
    probe: HostProbe
    #: tracebacks of ops that raised
    errors: List[str]
    #: broken invariants (anything here makes the run incorrect)
    problems: List[str]

    def run_pass(
        self, label: str, give_up_at: float, tracer: Optional[Tracer] = None
    ) -> PassResult:
        """One fresh-state replay of the trace; an op that raises digests as such.

        Until ``give_up_at`` the pass sleeps rather than time an op while
        the host is slow.
        """
        probe = self.probe
        gc.collect()  # the previous pass's service is garbage by now
        # The one process-wide cache keyed by request text (SQL with literal
        # ids): emptied through its public hook so that pass 1 and pass K
        # differ in nothing a request could hit.
        clear_statement_cache()
        # Set-up is timed wherever it falls: waiting is kept for the ops.
        quiet = probe.quiet()
        started = perf_counter()
        service, client = fresh_client(self.database, self.student_id)
        build_s = perf_counter() - started
        for op in self.warmup:
            client.run(op)
        setup_s = perf_counter() - started
        setup_quiet = quiet and probe.quiet()
        before = layer_counters(service) if tracer is not None else None
        gc.collect()
        latencies: List[int] = []
        quiets: List[bool] = []
        digests: List[str] = []
        quiet = False
        for index, op in enumerate(self.trace):
            if tracer is not None:
                tracer.op_id = index
            quiet = quiet or probe.wait_for_quiet(give_up_at)
            begun = perf_counter_ns()
            try:
                answer = client.run(op)
            except Exception:  # an op failing must not end the measurement
                latencies.append(perf_counter_ns() - begun)
                self.errors.append(
                    f"op {index} {op!r}:\n{traceback.format_exc()}"
                )
                answer = None
            else:
                latencies.append(perf_counter_ns() - begun)
            digests.append("raised" if answer is None else digest(op, answer))
            quiet_after = probe.quiet()
            quiets.append(quiet and quiet_after)
            quiet = quiet_after
        counters = None
        if before is not None:
            after = layer_counters(service)
            counters = {
                name: value
                - (0 if name.startswith("graph.") else before[name])
                for name, value in after.items()
            }
        if source_versions(self.database) != self.pristine:
            self.problems.append(f"pass {label} wrote to the source database")
        return PassResult(
            setup_s=setup_s,
            build_s=build_s,
            setup_quiet=setup_quiet,
            latencies_ns=latencies,
            quiet=quiets,
            digests=digests,
            response_cache=service.response_cache_info(),
            counters=counters,
        )


def reference_digests(
    database: Any, trace: Sequence[Op], warmup: Sequence[Op], student_id: Any
) -> List[str]:
    """What the oracle answers to the same warm-up and trace."""
    gc.collect()
    reference = ReferenceClient(database, SHARDS, student_id)
    for op in warmup:
        reference.run(op)
    return [digest(op, reference.run(op)) for op in trace]


def write_expected(
    workload: Workload, database: Any, pools: Dict[str, List[Any]],
    warmup: Sequence[Op], student_id: Any, header: Dict[str, Any],
) -> Path:
    """Digest every op the workload's pools can produce, on a fresh service."""
    _, client = fresh_client(database, student_id)
    for op in warmup:
        client.run(op)
    digests = {
        op_key(op): digest(op, client.run(op))
        for op in pool_ops(workload.groups, pools)
    }
    EXPECTED.mkdir(exist_ok=True)
    path = EXPECTED / f"{workload.name}.json"
    path.write_text(
        json.dumps({**header, "digests": digests}, indent=1, sort_keys=True)
        + "\n"
    )
    return path


def load_expected(
    workload: Workload, header: Dict[str, Any]
) -> Optional[Dict[str, str]]:
    """The committed digests, if they were written for this configuration."""
    path = EXPECTED / f"{workload.name}.json"
    if not path.is_file():
        return None
    recorded = json.loads(path.read_text())
    if any(recorded.get(key) != value for key, value in header.items()):
        return None
    return recorded["digests"]


def commit_id() -> str:
    """The checked-out commit, read without git (the driver's checkout has none)."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            text = (ROOT / ".git" / text[5:]).read_text().strip()
    except OSError:
        return "unknown"
    return text


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11,
                        help="trace seed (the data seed is separate)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measurement budget: passes (and waits for a "
                             "quiet host) stop being added after this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a span-traced pass, report per-layer metrics")
    parser.add_argument("--data-seed", type=int, default=DATA_SEED)
    parser.add_argument("--scale", help="override the workload's datagen scale")
    parser.add_argument("--ops", type=int, help="override the trace length N")
    parser.add_argument("--passes", type=int,
                        help="run exactly this many untraced passes, no waiting")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected/<workload>.json and exit")
    return parser.parse_args(argv)


def untraced_passes(
    bench: Bench, workload: Workload, args: argparse.Namespace
) -> Tuple[List[PassResult], float, float]:
    """Passes for as long as the budget lasts: (results, peak RSS, deadline)."""
    # A traced run keeps one pass's worth of the budget for the traced pass.
    budget = args.seconds - (workload.pass_seconds if args.trace else 0.0)
    deadline = 0.0 if args.passes else perf_counter() + budget
    rss_after = min(MIN_PASSES, args.passes or MIN_PASSES)
    results: List[PassResult] = []
    peak_rss_mb = 0.0
    while True:
        # Waiting for a quiet host may not eat the time the passes still
        # owed (this one included) need when they run without waiting.
        owed = max(1, MIN_PASSES - len(results))
        results.append(
            bench.run_pass(
                str(len(results)), deadline - owed * workload.pass_seconds
            )
        )
        if len(results) == rss_after:
            # Read at a fixed pass count: each further pass can leave the
            # high-water mark a little higher, and their number varies.
            peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        if args.passes:
            if len(results) >= args.passes:
                break
        elif (
            len(results) >= MIN_PASSES
            and perf_counter() + workload.pass_seconds > deadline
        ):
            break
    return results, peak_rss_mb, deadline


def verify(
    bench: Bench,
    workload: Workload,
    header: Dict[str, Any],
    labelled: Sequence[Tuple[str, PassResult]],
) -> Tuple[str, Set[Tuple[str, int]]]:
    """(oracle used, failed (pass, op) pairs): passes agree, and with the oracle."""
    first = labelled[0][1]
    oracle = workload.oracle
    want: Sequence[Optional[str]] = first.digests
    if oracle == "expected":
        expected = load_expected(workload, header)
        if expected is None:
            oracle = "passes-only"
            print(f"note: no expected digests for {header}; answers are only "
                  "compared between passes", file=sys.stderr)
        else:
            want = [expected.get(op_key(op)) for op in bench.trace]
    else:
        want = reference_digests(
            bench.database, bench.trace, bench.warmup, bench.student_id
        )
        if source_versions(bench.database) != bench.pristine:
            bench.problems.append(
                "the reference replay wrote to the source database"
            )
    failures: Set[Tuple[str, int]] = set()
    for label, result in labelled:
        for index, value in enumerate(result.digests):
            if value != want[index] or value != first.digests[index]:
                failures.add((label, index))
        # Identical passes must also show identical cache behaviour.
        if result.response_cache != first.response_cache:
            bench.problems.append(
                f"pass {label} response cache {result.response_cache} "
                f"differs from pass 0 {first.response_cache}"
            )
    return oracle, failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    scale = args.scale or workload.scale
    ops = args.ops or workload.ops
    probe = HostProbe()
    probe.quiet()

    started = perf_counter()
    database = generate_university(scale=scale, seed=args.data_seed)
    datagen_s = perf_counter() - started
    pools = workload.pools(database, ops)
    bench = Bench(
        database=database,
        pristine=source_versions(database),
        trace=build_trace(workload, pools, random.Random(args.seed), ops),
        warmup=workload.warmup(pools),
        student_id=database.query("SELECT MIN(SuID) FROM Students").scalar(),
        probe=probe,
        errors=[],
        problems=[],
    )
    header = {"scale": scale, "data_seed": args.data_seed, "ops": ops}

    if args.write_expected:
        if workload.oracle != "expected":
            print(f"{workload.name} is verified by reference replay; "
                  "it has no expected file")
            return 0
        print("wrote", write_expected(
            workload, database, pools, bench.warmup, bench.student_id, header
        ))
        return 0

    results, peak_rss_mb, deadline = untraced_passes(bench, workload, args)
    labelled = [(str(index), result) for index, result in enumerate(results)]
    traced: Optional[PassResult] = None
    spans: List[List[Any]] = []
    if args.trace:
        with tracing() as tracer:
            traced = bench.run_pass("traced", deadline, tracer)
        spans = tracer.spans
        labelled.append(("traced", traced))
    oracle, failures = verify(bench, workload, header, labelled)
    problems = bench.problems + bench.errors[:5]
    attempted = len(bench.trace) * len(labelled)
    correct = not failures and not problems

    best_ns = [
        min(result.latencies_ns[index] for result in results)
        for index in range(len(bench.trace))
    ]
    quiet_setups = [r.setup_s for r in results if r.setup_quiet]
    end_to_end = metrics.end_to_end(
        best_ns, quiet_setups or [r.setup_s for r in results], peak_rss_mb
    )
    per_layer: Dict[str, float] = {}
    checks: Dict[str, float] = {
        # ops timed at least once with a quiet probe on both sides
        "ops_timed_quiet_pct": 100.0
        * sum(any(quiet) for quiet in zip(*(r.quiet for r in results)))
        / len(bench.trace),
        "probe_quiet_pct": 100.0 * probe.quiet_readings / probe.readings,
    }
    OUT.mkdir(exist_ok=True)
    if traced is not None:
        per_layer = metrics.per_layer(
            bench.trace,
            spans,
            best_ns,
            traced.latencies_ns,
            [sum(result.latencies_ns) for result in results],
            traced.counters or {},
            traced.build_s,
            datagen_s,
        )
        checks["trace.unattributed_pct"] = metrics.unattributed_pct(
            spans, traced.latencies_ns
        )
        write_chrome_trace(spans, OUT / f"trace_{workload.name}.json")

    for name, unit in metrics.END_TO_END.items():
        print(f"{name:<40} {end_to_end[name]:>16.4f} {unit}")
    if per_layer:
        for name, unit in metrics.PER_LAYER.items():
            print(f"{name:<40} {per_layer[name]:>16.4f} {unit}")
    print(f"{'ops_attempted':<40} {attempted:>16d} count")
    print(f"{'ops_failed':<40} {len(failures):>16d} count")
    print(f"{'ops_failed_pct':<40} {100.0 * len(failures) / attempted:>16.4f} %")
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        **header,
        "shards": SHARDS,
        "ops_in_trace": len(bench.trace),
        "passes": len(results),
        "traced": bool(args.trace),
        "oracle": oracle,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "correct": correct,
        "failed_ops": sorted(failures)[:50],
        "problems": problems,
        "response_cache": results[0].response_cache,
        "pass_sum_ms": [sum(r.latencies_ns) / 1e6 for r in results],
        "setup_s": [r.setup_s for r in results],
        "checks": checks,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    (OUT / f"run_{workload.name}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    reported, units = (
        (per_layer, metrics.PER_LAYER)
        if args.trace
        else (end_to_end, metrics.END_TO_END)
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": reported[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1
