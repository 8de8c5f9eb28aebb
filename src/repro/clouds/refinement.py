"""Click-to-refine sessions over data clouds (Figures 3 and 4).

A :class:`RefinementSession` holds the current query, its results, and its
cloud.  ``refine(term)`` appends the clicked cloud term to the query,
re-runs the (conjunctive) search, and rebuilds the cloud over the narrowed
result set — exactly the "American" → "African American" walk-through in
the paper.  ``back()`` undoes the last refinement.

Every step comes from one hook, ``_answer(query, parent step or None)``.
The facade's session answers from one engine and builder;
:class:`repro.service.frontend.ServiceSession` overrides the hook to
scatter-gather over the service's shards, so the two walk through
bit-identical queries, results, and clouds.  Each step carries its
results' doc ids per shard (one tuple for the facade), which is what a
refinement narrows within and what :meth:`RefinementSession.cube` roots
its cube at.

Invariant (tested property): because matching is conjunctive, every
refinement step's result set is a subset of the previous step's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.errors import CloudError
from repro.clouds.cloud import CloudBuilder, DataCloud
from repro.search.engine import SearchEngine, SearchResult

DocId = Any


@dataclass
class RefinementStep:
    """One state of the session: the query, its results, and its cloud,
    with the results' doc ids on each shard."""

    query: str
    result: SearchResult
    cloud: DataCloud
    shard_doc_ids: Tuple[Tuple[DocId, ...], ...]

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
    ) -> None:
        self.engine = engine
        self.builder = builder
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
        return self._push(f"{self.query} {term}".strip(), self.current)

    def cube(self, dimensions: Optional[Any] = None):
        """A cloud cube rooted at the current result set.

        The paper's Figure 4 step sideways: instead of refining by a
        term, break the current hits down along course dimensions.
        """
        step = self.current
        return self._cube(
            step.shard_doc_ids,
            dimensions=dimensions,
            query=step.query,
            query_terms=step.result.terms,
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
        self, query: str, parent: Optional[RefinementStep] = None
    ) -> RefinementStep:
        step = self._answer(query, parent)
        self._steps.append(step)
        return step

    def _answer(
        self, query: str, parent: Optional[RefinementStep]
    ) -> RefinementStep:
        """The step for ``query``, narrowed within ``parent``'s results."""
        within = parent.result.doc_id_set() if parent is not None else None
        result = self.engine.search(query, mode="all", within=within)
        return RefinementStep(
            query=query,
            result=result,
            cloud=self.builder.build(result),
            shard_doc_ids=(tuple(result.doc_ids()),),
        )

    def _cube(
        self, shard_doc_ids: Tuple[Tuple[DocId, ...], ...], **spec: Any
    ):
        """A cube rooted at ``shard_doc_ids`` (this session's one shard)."""
        from repro.clouds.cube import CloudCube

        (base_doc_ids,) = shard_doc_ids
        return CloudCube(
            self.engine.database, self.builder, base_doc_ids, **spec
        )
