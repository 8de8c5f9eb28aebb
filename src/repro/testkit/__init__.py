"""repro.testkit: differential & metamorphic testing for the repro stack.

The paper's systems claim is that FlexRecs-style workflows compile into
SQL run by a conventional DBMS; PRs 1-3 added cache/compile fast paths
whose correctness was pinned by hand-written per-PR equivalence tests.
This package turns those scattered checks into a reusable subsystem:

* :mod:`repro.testkit.generators` — seeded random schema/data/query
  generation producing a typed AST inside a capability mask;
* :mod:`repro.testkit.dialects` — render the AST to both minidb SQL and
  sqlite SQL (the shared dialect), collecting ``?`` parameters in text
  order;
* :mod:`repro.testkit.oracle` — execute on minidb under a config sweep
  (cold, plan-cache-warm, prepared) and on
  the stdlib ``sqlite3`` oracle, comparing normalized result multisets;
* :mod:`repro.testkit.churn` — metamorphic workload driver interleaving
  DML/DDL churn with queries, recommends, searches, and cloud
  refinements, asserting every cache stays coherent with a from-scratch
  replay;
* :mod:`repro.testkit.recommend` — the FlexRecs oracle: a workflow
  evaluated by plain nested loops, which the direct executor must equal
  tuple for tuple;
* :mod:`repro.testkit.minimize` — delta-debugging shrinker that reduces
  a failing case and writes a corpus seed plus standalone repro script.

Nothing here imports ``hypothesis``: the package is pure stdlib + repro,
so the nightly fuzz CLI (``python -m repro.testkit``) runs anywhere the
library does.
"""

from repro.testkit.churn import ChurnDriver, ChurnReport
from repro.testkit.generators import Capabilities, Case, CaseGenerator
from repro.testkit.minimize import Shrinker, shrink_case, write_repro
from repro.testkit.oracle import (
    SWEEP,
    CaseReport,
    case_fails,
    load_seed,
    run_differential,
    run_rendered,
)
from repro.testkit.recommend import reference_recommend

__all__ = [
    "Capabilities",
    "Case",
    "CaseGenerator",
    "ChurnDriver",
    "ChurnReport",
    "SWEEP",
    "CaseReport",
    "Shrinker",
    "case_fails",
    "load_seed",
    "reference_recommend",
    "run_differential",
    "run_rendered",
    "shrink_case",
    "write_repro",
]
