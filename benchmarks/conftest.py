"""Shared fixtures for the benchmark/experiment harness.

Every benchmark runs against one generated university whose scale comes
from ``REPRO_BENCH_SCALE`` (default ``small``; use ``medium`` or ``full``
for paper-scale shape checks — ``full`` reproduces the paper's exact
operational statistics and takes ~1 minute to generate).

Each experiment writes its report table to ``benchmarks/out/<exp>.txt``
so the series survive pytest's output capture; EXPERIMENTS.md records the
paper-vs-measured comparison.
"""

import json
import os
import pathlib

import pytest

from repro.courserank.app import CourseRank
from repro.datagen import SCALES, generate_university
from repro.obs import OBS

BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")
OUT_DIR = pathlib.Path(__file__).parent / "out"

#: ``REPRO_BENCH_OBS=1`` runs the whole benchmark session with the
#: observability layer enabled and dumps the merged metrics snapshot to
#: ``benchmarks/out/obs_metrics.json`` (rendered offline with
#: ``python -m repro.obs report``).  Off by default so perf numbers
#: measure the production configuration.
BENCH_OBS = os.environ.get("REPRO_BENCH_OBS", "0") == "1"


@pytest.fixture(scope="session", autouse=True)
def obs_metrics_snapshot():
    if not BENCH_OBS:
        yield
        return
    OBS.reset()
    OBS.enable()
    try:
        yield
    finally:
        OBS.disable()
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / "obs_metrics.json"
        path.write_text(json.dumps(OBS.snapshot(), indent=2, default=str))
        print(f"\n[obs] metrics snapshot -> {path}")


@pytest.fixture(scope="session")
def scale_name():
    return BENCH_SCALE


@pytest.fixture(scope="session")
def scale_config():
    return SCALES[BENCH_SCALE]


@pytest.fixture(scope="session")
def bench_db():
    return generate_university(scale=BENCH_SCALE, seed=2008)


@pytest.fixture(scope="session")
def bench_app(bench_db):
    app = CourseRank(bench_db)
    app.cloudsearch.build()
    return app


@pytest.fixture(scope="session")
def active_student(bench_db):
    """A student with enough ratings to drive CF workflows."""
    return bench_db.query(
        "SELECT SuID FROM Comments WHERE Rating IS NOT NULL "
        "GROUP BY SuID HAVING COUNT(*) >= 3 ORDER BY SuID LIMIT 1"
    ).scalar()


def write_report(name: str, lines) -> pathlib.Path:
    """Persist an experiment's report table under benchmarks/out/."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.txt"
    text = "\n".join(lines) if not isinstance(lines, str) else lines
    path.write_text(text + "\n")
    print(f"\n[{name}]\n{text}")
    return path


def write_bench_json(name: str, payload: dict) -> pathlib.Path:
    """Persist a machine-readable benchmark summary as BENCH_<name>.json.

    The committed JSON twins of the human-readable report tables: stable
    keys (ops/sec, speedups, p50/p99 latencies) that scripts and CI can
    consume without scraping text.
    """
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"BENCH_{name}.json"
    document = {"name": name, "bench_scale": BENCH_SCALE}
    document.update(payload)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"\n[{name}] machine-readable summary -> {path}")
    return path
