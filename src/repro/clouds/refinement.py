"""Click-to-refine sessions over data clouds (Figures 3 and 4).

A :class:`RefinementSession` holds the current query, its results, and its
cloud.  ``refine(term)`` appends the clicked cloud term to the query,
re-runs the (conjunctive) search, and rebuilds the cloud over the narrowed
result set — exactly the "American" → "African American" walk-through in
the paper.  ``back()`` undoes the last refinement.

Invariant (tested property): because matching is conjunctive, every
refinement step's result set is a subset of the previous step's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Set

from repro.errors import CloudError
from repro.clouds.cloud import CloudBuilder, DataCloud
from repro.search.engine import SearchEngine, SearchResult

DocId = Any


@dataclass
class RefinementStep:
    """One state of the session: the query, its results, and its cloud."""

    query: str
    result: SearchResult
    cloud: DataCloud

    @property
    def result_size(self) -> int:
        return len(self.result)


class RefinementSession:
    """Interactive narrow-down over a search engine + cloud builder."""

    def __init__(
        self,
        engine: SearchEngine,
        builder: CloudBuilder,
        query: str,
        limit: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.builder = builder
        self.limit = limit
        self._steps: List[RefinementStep] = []
        self._push(query)

    # -- state ------------------------------------------------------------

    @property
    def current(self) -> RefinementStep:
        return self._steps[-1]

    @property
    def query(self) -> str:
        return self.current.query

    @property
    def result(self) -> SearchResult:
        return self.current.result

    @property
    def cloud(self) -> DataCloud:
        return self.current.cloud

    @property
    def depth(self) -> int:
        """Number of refinements applied (0 for the initial query)."""
        return len(self._steps) - 1

    def history(self) -> List[str]:
        return [step.query for step in self._steps]

    # -- interaction -----------------------------------------------------------

    def refine(self, term: str) -> RefinementStep:
        """Click a cloud term: conjunctively narrow the current results.

        Multi-word cloud terms ("african american") refine as *phrases* —
        the words must appear consecutively, matching what the cloud
        displayed rather than any scattered co-occurrence.
        """
        term = term.strip()
        if not term:
            raise CloudError("refinement term must be non-empty")
        if " " in term and not term.startswith('"'):
            term = f'"{term}"'
        new_query = f"{self.query} {term}".strip()
        return self._push(new_query, within=self.result.doc_id_set())

    def cube(self, dimensions: Optional[Any] = None):
        """A cloud cube rooted at the current result set.

        The paper's Figure 4 step sideways: instead of refining by a
        term, break the current hits down along course dimensions.
        """
        from repro.clouds.cube import CloudCube

        return CloudCube(
            self.engine.database,
            self.builder,
            base_doc_ids=self.result.doc_ids(),
            dimensions=dimensions,
            query=self.query,
            query_terms=self.result.terms,
        )

    def back(self) -> RefinementStep:
        """Undo the last refinement."""
        if len(self._steps) == 1:
            raise CloudError("already at the initial query")
        self._steps.pop()
        return self.current

    def reset(self, query: str) -> RefinementStep:
        """Start over with a fresh query."""
        self._steps.clear()
        return self._push(query)

    # -- internals ---------------------------------------------------------

    def _push(
        self, query: str, within: Optional[Set[DocId]] = None
    ) -> RefinementStep:
        result = self.engine.search(
            query, limit=self.limit, mode="all", within=within
        )
        step = RefinementStep(
            query=query, result=result, cloud=self.builder.build(result)
        )
        self._steps.append(step)
        return step
