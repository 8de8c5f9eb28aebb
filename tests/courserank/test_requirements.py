"""Tests for the requirement rule DSL and tracker."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RequirementError
from repro.courserank.requirements import (
    RequirementTracker,
    StudentContext,
    parse_rule,
)
from repro.courserank.schema import new_database


def ctx(courses, units=None, departments=None):
    return StudentContext(
        set(courses),
        units or {course: 4 for course in courses},
        departments or {course: 1 for course in courses},
    )


class TestRuleParsing:
    def test_all(self):
        rule = parse_rule("ALL(1, 2, 3)")
        assert rule.satisfied(ctx({1, 2, 3}))
        assert not rule.satisfied(ctx({1, 2}))

    def test_any(self):
        rule = parse_rule("ANY(1, 2)")
        assert rule.satisfied(ctx({2}))
        assert not rule.satisfied(ctx({3}))

    def test_course(self):
        rule = parse_rule("COURSE(7)")
        assert rule.satisfied(ctx({7}))
        assert not rule.satisfied(ctx({8}))

    def test_atleast(self):
        rule = parse_rule("ATLEAST(2, 1, 2, 3)")
        assert rule.satisfied(ctx({1, 3}))
        assert not rule.satisfied(ctx({1}))

    def test_units(self):
        rule = parse_rule("UNITS(8, 1, 2, 3)")
        assert rule.satisfied(ctx({1, 2}, units={1: 5, 2: 3}))
        assert not rule.satisfied(ctx({1}, units={1: 5}))

    def test_depunits(self):
        rule = parse_rule("DEPUNITS(6, 2)")
        good = ctx({1, 2}, units={1: 4, 2: 4}, departments={1: 2, 2: 2})
        bad = ctx({1}, units={1: 4}, departments={1: 2})
        assert rule.satisfied(good)
        assert not rule.satisfied(bad)

    def test_and_or_precedence(self):
        rule = parse_rule("COURSE(1) OR COURSE(2) AND COURSE(3)")
        # OR(1, AND(2,3))
        assert rule.satisfied(ctx({1}))
        assert rule.satisfied(ctx({2, 3}))
        assert not rule.satisfied(ctx({2}))

    def test_parentheses(self):
        rule = parse_rule("(COURSE(1) OR COURSE(2)) AND COURSE(3)")
        assert rule.satisfied(ctx({1, 3}))
        assert not rule.satisfied(ctx({1}))

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "ALL()",
            "ATLEAST(2)",
            "DEPUNITS(6, 2, 3)",
            "NOPE(1)",
            "ALL(1) trailing",
            "ALL(1",
            "ALL(x)",
            "COURSE(1, 2)",
            "ALL(1 2)",
        ],
    )
    def test_bad_rules_rejected(self, bad):
        with pytest.raises(RequirementError):
            parse_rule(bad)


class TestGaps:
    def test_all_reports_missing(self):
        rule = parse_rule("ALL(1, 2, 3)")
        gaps = rule.gaps(ctx({1}))
        assert len(gaps) == 2
        assert any("2" in gap for gap in gaps)

    def test_atleast_counts_remaining(self):
        rule = parse_rule("ATLEAST(3, 1, 2, 3, 4)")
        gaps = rule.gaps(ctx({1}))
        assert "2 more" in gaps[0]

    def test_or_reports_closest_branch(self):
        rule = parse_rule("ALL(1, 2, 3) OR COURSE(9)")
        gaps = rule.gaps(ctx({1, 2}))
        # The ALL branch needs 1 course; the COURSE branch needs 1 too, but
        # both have a single gap — either is acceptable; just one gap line.
        assert len(gaps) == 1

    def test_satisfied_rule_no_gaps(self):
        rule = parse_rule("ANY(1, 2)")
        assert rule.gaps(ctx({1})) == []

    def test_and_of_units_and_or_reports_every_part(self):
        rule = parse_rule("UNITS(8, 1, 2, 3) AND (COURSE(4) OR DEPUNITS(4, 2))")
        taken = ctx({1})
        assert rule.gaps(taken) == [
            "need 4 more units among listed courses",
            "missing required course 4",
        ]
        assert rule.helpful_courses(taken) == {2, 3, 4}
        assert rule.helpful_departments(taken) == {2}

    def test_met_branches_offer_no_help(self):
        rule = parse_rule("UNITS(4, 1, 2) AND (COURSE(1) OR DEPUNITS(4, 2))")
        taken = ctx({1})
        assert rule.gaps(taken) == []
        assert rule.helpful_courses(taken) == set()
        assert rule.helpful_departments(taken) == set()


class TestMonotonicity:
    RULES = [
        "ALL(1, 2)",
        "ANY(3, 4)",
        "ATLEAST(2, 1, 2, 3)",
        "UNITS(8, 1, 2, 3)",
        "DEPUNITS(8, 1)",
        "(ALL(1, 2) OR ANY(4, 5)) AND ATLEAST(1, 6, 7)",
    ]

    @given(
        st.sets(st.integers(min_value=1, max_value=8), max_size=6),
        st.integers(min_value=1, max_value=8),
        st.sampled_from(RULES),
    )
    def test_adding_courses_never_unsatisfies(self, courses, extra, rule_text):
        rule = parse_rule(rule_text)
        before = rule.satisfied(ctx(courses))
        after = rule.satisfied(ctx(courses | {extra}))
        if before:
            assert after


class TestTracker:
    @pytest.fixture()
    def db(self):
        database = new_database()
        database.execute(
            "INSERT INTO Departments VALUES (1, 'CS', 'Engineering', TRUE)"
        )
        database.execute(
            "INSERT INTO Courses VALUES "
            "(1, 1, 'Intro', '', 5, ''), (2, 1, 'Adv', '', 3, ''), "
            "(3, 1, 'Elective A', '', 4, ''), (4, 1, 'Elective B', '', 4, '')"
        )
        database.execute(
            "INSERT INTO Students VALUES (10, 'Ann', 2010, 'CS', NULL)"
        )
        database.execute(
            "INSERT INTO Offerings VALUES (3, 2009, 'Aut', NULL, NULL, NULL)"
        )
        return database

    def test_define_validates_rule(self, db):
        tracker = RequirementTracker(db)
        with pytest.raises(RequirementError):
            tracker.define(1, "Broken", "ALL(")
        req_id = tracker.define(1, "Core", "ALL(1, 2)")
        assert req_id == 1

    def test_check_against_enrollments(self, db):
        tracker = RequirementTracker(db)
        tracker.define(1, "Core", "ALL(1, 2)")
        db.execute("INSERT INTO Enrollments VALUES (10, 1, 2008, 'Aut', 'A')")
        statuses = tracker.check(10, 1)
        assert not statuses[0].satisfied
        assert not statuses[0]  # a status is truthy exactly when satisfied
        db.execute("INSERT INTO Enrollments VALUES (10, 2, 2008, 'Win', 'B')")
        statuses = tracker.check(10, 1)
        assert statuses[0].satisfied
        assert statuses[0]

    def test_planned_courses_count_optionally(self, db):
        tracker = RequirementTracker(db)
        tracker.define(1, "Elective", "ANY(3, 4)")
        db.execute("INSERT INTO Plans VALUES (10, 3, 2009, 'Aut', TRUE)")
        with_planned = tracker.check(10, 1, include_planned=True)
        without = tracker.check(10, 1, include_planned=False)
        assert with_planned[0].satisfied
        assert not without[0].satisfied

    def test_unmet_filter(self, db):
        tracker = RequirementTracker(db)
        tracker.define(1, "Core", "ALL(1)")
        tracker.define(1, "Elective", "ANY(3, 4)")
        db.execute("INSERT INTO Enrollments VALUES (10, 1, 2008, 'Aut', 'A')")
        unmet = tracker.unmet(10, 1)
        assert [status.name for status in unmet] == ["Elective"]
        assert unmet[0].missing

    def test_requirements_for_listing(self, db):
        tracker = RequirementTracker(db)
        tracker.define(1, "Core", "ALL(1)")
        listed = tracker.requirements_for(1)
        assert listed == [(1, "Core", "ALL(1)")]
