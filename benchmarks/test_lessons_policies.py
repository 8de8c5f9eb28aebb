"""Experiment L1 — the Section 2.2 "lessons" as checkable policies.

* Incentives: a simulated contribution season produces ledger totals that
  match the Y!-Answers-style point schedule exactly.
* Privacy: every displayable grade distribution covers >= k students; the
  plan-sharing opt-out keeps private entries invisible; the sharing rate
  matches "the vast majority".
* Data validity: official Engineering distributions track self-reported
  ones (the paper's argument that students enter valid data).
"""

import datetime

import pytest
from conftest import write_report

from repro.courserank.app import CourseRank
from repro.courserank.incentives import POINT_SCHEDULE
from repro.errors import PrivacyError
from repro.service.sharding import ShardedUniversity


@pytest.fixture(scope="module")
def policies_app(bench_db):
    """A private copy of the university: this module writes comments,
    points and FAQ posts, which must not reach the reports run after it."""
    return CourseRank(ShardedUniversity(bench_db, 1).shards[0])


def simulate_contribution_day(app, usernames, day):
    """A day of site activity; returns expected per-user points."""
    expected = {}
    for username in usernames:
        user = app.accounts.authenticate(username)
        points = 0
        points += app.incentives.award(user.user_id, "daily_login", day=day)
        taken = app.db.query(
            f"SELECT CourseID FROM Enrollments WHERE SuID = {user.person_id} "
            "ORDER BY CourseID LIMIT 1"
        ).column("CourseID")
        if taken:
            app.comment_on_course(user, taken[0], "season comment", 4.0, day=day)
            points += POINT_SCHEDULE["comment"] + POINT_SCHEDULE["rate_course"]
        expected[user.user_id] = points
    return expected


def test_incentive_ledger_audit(benchmark, policies_app):
    usernames = [f"student{suid}" for suid in (1, 2, 3)]
    day = datetime.date(2008, 11, 3)
    expected = benchmark.pedantic(
        simulate_contribution_day,
        args=(policies_app, usernames, day),
        rounds=1,
        iterations=1,
    )
    lines = ["user | earned points (single day)"]
    for user_id, points in expected.items():
        # Points earned today = ledger entries dated today.
        earned_today = policies_app.db.query(
            "SELECT SUM(Points) FROM PointsLedger "
            f"WHERE UserID = {user_id} AND AwardDate = DATE '{day.isoformat()}'"
        ).scalar()
        assert (earned_today or 0) == points
        lines.append(f"{user_id:>4} | {points}")
    # Re-login the same day yields nothing (idempotent daily point).
    user = policies_app.accounts.authenticate(usernames[0])
    assert policies_app.incentives.award(user.user_id, "daily_login", day=day) == 0
    write_report("lessons_incentives", lines)


def test_grade_distribution_k_anonymity(benchmark, policies_app):
    """No visible distribution covers fewer than k students."""
    policy_k = policies_app.privacy.policy.min_distribution_size

    def audit():
        course_ids = policies_app.db.query(
            "SELECT DISTINCT CourseID FROM Enrollments ORDER BY CourseID"
        ).column("CourseID")
        visible = suppressed = violations = 0
        for course_id in course_ids:
            distribution = policies_app.privacy.distribution_or_none(course_id)
            if distribution is None:
                suppressed += 1
            else:
                visible += 1
                if distribution.total < policy_k:
                    violations += 1
        return visible, suppressed, violations

    visible, suppressed, violations = benchmark(audit)
    assert violations == 0
    assert suppressed > 0, "some small classes must be suppressed"
    lines = [
        f"k = {policy_k}",
        f"courses with visible distributions : {visible}",
        f"courses suppressed (small classes) : {suppressed}",
        f"k-anonymity violations             : {violations}",
    ]
    write_report("lessons_privacy_k_anonymity", lines)


def test_plan_sharing_optout(benchmark, policies_app):
    def audit():
        rate = policies_app.privacy.sharing_rate()
        # Private entries are invisible to other students.
        private = policies_app.db.query(
            "SELECT SuID, CourseID FROM Plans WHERE Shared = FALSE LIMIT 5"
        ).rows
        leaks = 0
        for suid, course_id in private:
            visible = policies_app.privacy.who_is_planning(course_id)
            if suid in {s for s, _name in visible}:
                leaks += 1
        return rate, len(private), leaks

    rate, checked, leaks = benchmark(audit)
    assert leaks == 0
    # Paper: "the vast majority of students do not view their plans as
    # sensitive" — generated opt-out is ~8%.
    assert rate is not None and rate > 0.7
    write_report(
        "lessons_plan_sharing",
        [
            f"plan sharing rate: {rate:.1%} (paper: the vast majority share)",
            f"private entries checked: {checked}, leaks: {leaks}",
        ],
    )


def test_official_vs_self_reported_validity(benchmark, policies_app):
    """Paper: official Engineering distributions ≈ self-reported ones."""

    def audit():
        agreements = []
        for course_id in policies_app.gradebook.courses_with_official_grades():
            value = policies_app.gradebook.distribution_agreement(course_id)
            if value is not None:
                agreements.append(value)
        return agreements

    agreements = benchmark(audit)
    assert agreements
    mean_agreement = sum(agreements) / len(agreements)
    assert mean_agreement > 0.8
    write_report(
        "lessons_data_validity",
        [
            f"Engineering courses with official histograms: {len(agreements)}",
            f"mean official/self-reported agreement: {mean_agreement:.3f} "
            "(1.0 = identical; paper: 'very close')",
            f"min agreement: {min(agreements):.3f}",
        ],
    )


def test_forum_cold_start_lesson(benchmark, policies_app):
    """'Little traffic ... seed the forum with FAQs' — before/after."""

    def seed():
        before = policies_app.forum.stats()
        policies_app.forum.seed_faq(
            [
                ("Who do I see to have my program approved?",
                 "Your department manager."),
                ("What is a good introductory class for non-majors?",
                 "Any 'Introduction to ...' course with a high rating."),
            ],
            dep_id=1,
        )
        return before, policies_app.forum.stats()

    before, after = benchmark.pedantic(seed, rounds=1, iterations=1)
    assert after["official_seeded"] >= before["official_seeded"] + 2
    assert after["unanswered"] <= before["unanswered"]
    write_report(
        "lessons_forum_seeding",
        [
            f"questions before/after seeding: "
            f"{before['questions']} -> {after['questions']}",
            f"unanswered before/after: "
            f"{before['unanswered']} -> {after['unanswered']}",
        ],
    )
