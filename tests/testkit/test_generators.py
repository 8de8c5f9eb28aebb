"""Generator contracts: determinism, validity, and feature coverage.

The capability mask promises that everything the generator emits is
legal in *both* dialects — validity here means a batch of seeds produces
zero both-engine errors, which is also what keeps the shrinker's
error-parity trick sound.
"""

import repro.testkit.generators as g
from repro.testkit.dialects import render_case
from repro.testkit.oracle import run_case

SEEDS = range(50, 70)


class TestDeterminism:
    def test_same_seed_same_rendered_sql(self):
        first = render_case(g.CaseGenerator(123).case())
        second = render_case(g.CaseGenerator(123).case())
        assert [op.sql for op in first.minidb.ops] == [
            op.sql for op in second.minidb.ops
        ]
        assert [op.sql for op in first.sqlite.ops] == [
            op.sql for op in second.sqlite.ops
        ]
        assert first.minidb.create == second.minidb.create

    def test_different_seeds_differ(self):
        one = render_case(g.CaseGenerator(1).case())
        two = render_case(g.CaseGenerator(2).case())
        assert [op.sql for op in one.minidb.ops] != [
            op.sql for op in two.minidb.ops
        ]


class TestValidity:
    def test_batch_produces_no_errors_on_either_engine(self):
        for seed in SEEDS:
            report = run_case(g.CaseGenerator(seed).case())
            assert report.error_ops == 0, (
                f"seed {seed} produced both-engine errors"
            )
            assert report.ok, f"seed {seed}: {report.divergences[:2]}"

    def test_min_queries_respected(self):
        caps = g.Capabilities(min_queries=5)
        for seed in SEEDS:
            case = g.CaseGenerator(seed, caps).case()
            assert case.query_count >= 5


class TestFeatureCoverage:
    def test_mask_features_all_appear_across_seeds(self):
        """One seed needn't hit everything, but a modest seed range must
        exercise every feature the capability mask enables."""
        found = set()
        for seed in range(200):
            case = g.CaseGenerator(seed).case()
            for op in case.ops:
                if isinstance(op, g.QueryOp):
                    query = op.query
                    if query.joins:
                        found.add("join")
                    if query.group_by:
                        found.add("group_by")
                    if query.distinct:
                        found.add("distinct")
                    if query.limit is not None:
                        found.add("limit")
                    if query.having is not None:
                        found.add("having")
                    if any(s.derived for s in self._sources(query)):
                        found.add("derived")
                    if any(s.body is not None for s in self._sources(query)):
                        found.add("derived_body")
                    sql, params = self._render(query)
                    if params:
                        found.add("params")
                    if "IN (SELECT" in sql or "EXISTS (SELECT" in sql:
                        found.add("subquery")
                elif isinstance(op, (g.InsertOp, g.UpdateOp, g.DeleteOp)):
                    found.add("dml")
                elif isinstance(op, g.DropCreateOp):
                    found.add("drop_create")
            if len(found) >= 11:
                break
        assert found >= {
            "join", "group_by", "distinct", "limit", "having", "derived",
            "derived_body", "params", "subquery", "dml", "drop_create",
        }, f"missing: coverage only hit {sorted(found)}"

    @staticmethod
    def _sources(query):
        return [query.source] + [join.source for join in query.joins]

    @staticmethod
    def _render(query):
        from repro.testkit.dialects import MINIDB, render_query

        params = []
        sql = render_query(query, MINIDB, params)
        return sql, params


class TestIndexDdl:
    def test_index_ops_appear_across_seeds(self):
        created = dropped = multi_column = 0
        for seed in range(200):
            case = g.CaseGenerator(seed).case()
            for op in case.ops:
                if isinstance(op, g.CreateIndexOp):
                    created += 1
                    if len(op.index.columns) > 1:
                        multi_column += 1
                elif isinstance(op, g.DropIndexOp):
                    dropped += 1
        assert created > 10, f"only {created} CREATE INDEX ops in 200 seeds"
        assert dropped > 5, f"only {dropped} DROP INDEX ops in 200 seeds"
        assert multi_column > 0, "no multi-column index generated"

    def test_capability_gate_suppresses_index_ddl(self):
        caps = g.Capabilities(allow_index_ddl=False)
        for seed in range(40):
            case = g.CaseGenerator(seed, caps).case()
            for op in case.ops:
                assert not isinstance(op, (g.CreateIndexOp, g.DropIndexOp))

    def test_rendering_is_dialect_aware(self):
        """minidb gets USING <kind>; sqlite gets plain CREATE INDEX;
        DROP INDEX renders identically in both dialects."""
        for seed in range(200):
            case = g.CaseGenerator(seed).case()
            rendered = render_case(case)
            for mini_op, lite_op in zip(rendered.minidb.ops,
                                        rendered.sqlite.ops):
                if mini_op.sql.startswith("CREATE INDEX"):
                    assert " USING " in mini_op.sql
                    assert " USING " not in lite_op.sql
                    assert lite_op.sql.startswith("CREATE INDEX")
                if mini_op.sql.startswith("DROP INDEX"):
                    assert mini_op.sql == lite_op.sql

    def test_index_ddl_cases_stay_divergence_free(self):
        """Seeds known to emit index DDL must keep the oracle green."""
        checked = 0
        for seed in range(120):
            case = g.CaseGenerator(seed).case()
            if not any(
                isinstance(op, (g.CreateIndexOp, g.DropIndexOp))
                for op in case.ops
            ):
                continue
            report = run_case(case)
            assert report.ok, f"seed {seed}: {report.divergences[:2]}"
            checked += 1
            if checked >= 8:
                break
        assert checked, "no index-DDL seeds found in range"


class TestReferencedTables:
    def test_walker_sees_subquery_tables(self):
        case = None
        for seed in range(400):
            candidate = g.CaseGenerator(seed).case()
            for op in candidate.ops:
                if isinstance(op, g.QueryOp):
                    sql, _ = TestFeatureCoverage._render(op.query)
                    if "IN (SELECT" in sql or "EXISTS (SELECT" in sql:
                        case, target = candidate, op
                        break
            if case:
                break
        assert case is not None, "no subquery produced in 400 seeds"
        tables = g.referenced_tables(target)
        assert tables, "subquery op references no tables?"
        rendered, _ = TestFeatureCoverage._render(target.query)
        for name in tables:
            assert name in rendered
