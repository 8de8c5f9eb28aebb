"""Grade distributions: official vs self-reported.

Section 2.2 ("It's the Data, Stupid" / privacy): only the School of
Engineering agreed to release official distributions; for other courses
CourseRank displays the distribution of self-reported grades; and no
distribution at all is shown for classes with very few students, "since
that may disclose information about individual students".

This module computes both kinds of distribution; the disclosure decision
itself (k-anonymity threshold, which source to show) lives in
:mod:`repro.courserank.privacy`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.courserank.models import GradeDistribution
from repro.courserank.schema import GRADE_BUCKETS
from repro.minidb.catalog import Database


class GradeBook:
    """Distribution queries over OfficialGrades and Enrollments."""

    def __init__(self, database: Database) -> None:
        self.database = database

    def official_distribution(
        self, course_id: int, year: Optional[int] = None
    ) -> Optional[GradeDistribution]:
        """The registrar's histogram, or None when not on file."""
        where, params = "WHERE CourseID = ?", [course_id]
        if year is not None:
            where += " AND Year = ?"
            params.append(year)
        result = self.database.query(
            f"SELECT Bucket, SUM(GradeCount) AS n FROM OfficialGrades "
            f"{where} GROUP BY Bucket",
            params,
        )
        if not result.rows:
            return None
        counts = {bucket: 0 for bucket in GRADE_BUCKETS}
        for bucket, count in result.rows:
            counts[bucket] = int(count)
        return GradeDistribution(
            course_id=course_id, counts=counts, source="official"
        )

    def self_reported_distribution(
        self, course_id: int
    ) -> Optional[GradeDistribution]:
        """Histogram of grades students entered in the Planner."""
        result = self.database.query(
            "SELECT Grade, COUNT(*) AS n FROM Enrollments "
            "WHERE CourseID = ? AND Grade IS NOT NULL "
            "GROUP BY Grade",
            (course_id,),
        )
        if not result.rows:
            return None
        counts = {bucket: 0 for bucket in GRADE_BUCKETS}
        for bucket, count in result.rows:
            if bucket in counts:
                counts[bucket] = count
        return GradeDistribution(
            course_id=course_id, counts=counts, source="self-reported"
        )

    def department_releases_official(self, course_id: int) -> bool:
        """Does this course's department release official distributions?"""
        value = self.database.query(
            "SELECT d.ReleasesOfficialGrades FROM Courses c "
            "JOIN Departments d ON c.DepID = d.DepID "
            "WHERE c.CourseID = ?",
            (course_id,),
        )
        if not value.rows:
            return False
        return bool(value.rows[0][0])

    def distribution_agreement(self, course_id: int) -> Optional[float]:
        """Total-variation agreement between official and self-reported.

        Returns ``1 - 0.5 * Σ|p_official - p_self|`` in [0, 1], or None
        when either distribution is missing.  The paper observes official
        Engineering distributions are "very close" to self-reported ones,
        "validating our claim that students are entering valid data" —
        the L1 experiment checks this holds on the synthetic population.
        """
        official = self.official_distribution(course_id)
        self_reported = self.self_reported_distribution(course_id)
        if official is None or self_reported is None:
            return None
        official_fracs = official.fractions()
        self_fracs = self_reported.fractions()
        distance = 0.5 * sum(
            abs(official_fracs[bucket] - self_fracs[bucket])
            for bucket in GRADE_BUCKETS
        )
        return 1.0 - distance

    def courses_with_official_grades(self) -> List[int]:
        result = self.database.query(
            "SELECT DISTINCT CourseID FROM OfficialGrades ORDER BY CourseID"
        )
        return [row[0] for row in result.rows]
