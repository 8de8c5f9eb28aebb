"""FlexRecs — the paper's primary contribution.

A recommendation strategy is a declarative *workflow* of operators
(select, project, join, extend, recommend, top-k) over structured data.
The special **recommend** operator ranks one set of tuples by comparing
it to another with a comparator from a pluggable library (Jaccard,
Pearson, inverse Euclidean, text similarity, ...).

Workflows execute on two interchangeable paths:

* **direct** (``workflow.run(db)``) — in-memory evaluation, the reference
  semantics and what the site serves from;
* **compiled** (``workflow.run_sql(db)``) — the workflow is compiled into
  SQL that ``db.query`` executes, exactly as the paper deploys FlexRecs
  on a conventional DBMS; :class:`repro.backends.Sqlite3Backend` runs the
  same compilation, in the sqlite dialect, on stdlib sqlite3.

The two paths produce rank-identical results (property-tested).

>>> from repro.core import strategies
>>> wf = strategies.related_courses(course_id=1, top_k=5)
>>> wf.run(db).rows == wf.run_sql(db).rows   # doctest: +SKIP
True
"""

from repro.core import similarity, strategies
from repro.core.compiler import CompiledWorkflow, compile_workflow
from repro.core.dsl import parse_workflow
from repro.core.executor import execute_workflow
from repro.core.optimizer import describe_rewrites, optimize
from repro.core.staged import (
    StagedWorkflow,
    compile_workflow_staged,
    operator_schema,
    run_staged,
)
from repro.core.library import (
    COMPARATORS,
    CommonCount,
    Comparator,
    CosineVector,
    EqualityMatch,
    InverseEuclidean,
    LevenshteinSimilarity,
    NumericCloseness,
    PearsonCorrelation,
    SetJaccard,
    SetOverlap,
    TextJaccard,
    VectorLookup,
    make_comparator,
)
from repro.core.operators import (
    Extend,
    ExtendInfo,
    GraphRecommend,
    Join,
    Operator,
    Project,
    Recommend,
    Select,
    Source,
    SqlSource,
    TopK,
    extend,
)
from repro.core.workflow import Recommendation, Workflow

from repro.core.operators import MaterializedSource

__all__ = [
    "similarity",
    "strategies",
    "CompiledWorkflow",
    "compile_workflow",
    "parse_workflow",
    "execute_workflow",
    "describe_rewrites",
    "optimize",
    "StagedWorkflow",
    "compile_workflow_staged",
    "operator_schema",
    "run_staged",
    "MaterializedSource",
    "COMPARATORS",
    "CommonCount",
    "Comparator",
    "CosineVector",
    "EqualityMatch",
    "InverseEuclidean",
    "LevenshteinSimilarity",
    "NumericCloseness",
    "PearsonCorrelation",
    "SetJaccard",
    "SetOverlap",
    "TextJaccard",
    "VectorLookup",
    "make_comparator",
    "Extend",
    "ExtendInfo",
    "Join",
    "Operator",
    "Project",
    "GraphRecommend",
    "Recommend",
    "Select",
    "Source",
    "SqlSource",
    "TopK",
    "extend",
    "Recommendation",
    "Workflow",
]
