"""Faculty and administrator analytics.

"CourseRank also functions as a feedback tool for faculty and
administrators" (Section 2): faculty compare their classes against
others; administrators watch participation and catalog health.  This
module provides those read-only dashboard queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.minidb.catalog import Database


@dataclass
class DepartmentReport:
    """One department's dashboard row."""

    dep_id: int
    name: str
    courses: int
    rated_courses: int
    average_rating: Optional[float]
    comments: int
    enrollments: int

    @property
    def rating_coverage(self) -> float:
        """Fraction of the department's courses with at least one rating."""
        if not self.courses:
            return 0.0
        return self.rated_courses / self.courses


class Analytics:
    """Read-only dashboards over the CourseRank relations."""

    def __init__(self, database: Database) -> None:
        self.database = database

    def department_report(self, dep_id: int) -> DepartmentReport:
        name = self.database.query(
            "SELECT Name FROM Departments WHERE DepID = ?", (dep_id,)
        ).scalar()
        courses = self.database.query(
            "SELECT COUNT(*) FROM Courses WHERE DepID = ?", (dep_id,)
        ).scalar()
        rated = self.database.query(
            "SELECT COUNT(DISTINCT cm.CourseID) FROM Comments cm "
            "JOIN Courses c ON cm.CourseID = c.CourseID "
            "WHERE c.DepID = ? AND cm.Rating IS NOT NULL",
            (dep_id,),
        ).scalar()
        average = self.database.query(
            "SELECT AVG(cm.Rating) FROM Comments cm "
            "JOIN Courses c ON cm.CourseID = c.CourseID "
            "WHERE c.DepID = ?",
            (dep_id,),
        ).scalar()
        comments = self.database.query(
            "SELECT COUNT(*) FROM Comments cm "
            "JOIN Courses c ON cm.CourseID = c.CourseID "
            "WHERE c.DepID = ?",
            (dep_id,),
        ).scalar()
        enrollments = self.database.query(
            "SELECT COUNT(*) FROM Enrollments e "
            "JOIN Courses c ON e.CourseID = c.CourseID "
            "WHERE c.DepID = ?",
            (dep_id,),
        ).scalar()
        return DepartmentReport(
            dep_id=dep_id,
            name=name,
            courses=courses,
            rated_courses=rated,
            average_rating=average,
            comments=comments,
            enrollments=enrollments,
        )

    def all_departments(self) -> List[DepartmentReport]:
        dep_ids = self.database.query(
            "SELECT DepID FROM Departments ORDER BY DepID"
        ).column("DepID")
        return [self.department_report(dep_id) for dep_id in dep_ids]

    def instructor_ratings(
        self, dep_id: Optional[int] = None, min_ratings: int = 3
    ) -> List[Tuple[int, str, float, int]]:
        """Instructors ranked by the average rating of their courses.

        Returns ``[(instructor_id, name, avg_rating, n_ratings)]``; an
        instructor needs ``min_ratings`` ratings across their courses to
        appear (small-sample suppression, consistent with the privacy
        posture elsewhere).
        """
        where, params = "", [min_ratings]
        if dep_id is not None:
            where, params = "WHERE i.DepID = ?", [dep_id, min_ratings]
        result = self.database.query(
            "SELECT i.InstructorID, i.Name, AVG(cm.Rating) AS avg_r, "
            "COUNT(cm.Rating) AS n "
            "FROM Instructors i "
            "JOIN Teaches t ON t.InstructorID = i.InstructorID "
            "JOIN Comments cm ON cm.CourseID = t.CourseID "
            f"{where} "
            "GROUP BY i.InstructorID "
            "HAVING COUNT(cm.Rating) >= ? "
            "ORDER BY avg_r DESC, i.InstructorID ASC",
            params,
        )
        return [tuple(row) for row in result.rows]

    def participation_by_class_year(self) -> Dict[int, Dict[str, int]]:
        """Per class year: students, commenters, comments.

        The paper: "The vast majority of CourseRank users are
        undergraduates" — this is the view that shows which cohorts
        actually contribute.
        """
        totals = dict(
            self.database.query(
                "SELECT Class, COUNT(*) FROM Students "
                "WHERE Class IS NOT NULL GROUP BY Class"
            ).rows
        )
        commenters = dict(
            self.database.query(
                "SELECT s.Class, COUNT(DISTINCT cm.SuID) FROM Comments cm "
                "JOIN Students s ON cm.SuID = s.SuID "
                "WHERE s.Class IS NOT NULL GROUP BY s.Class"
            ).rows
        )
        comment_counts = dict(
            self.database.query(
                "SELECT s.Class, COUNT(*) FROM Comments cm "
                "JOIN Students s ON cm.SuID = s.SuID "
                "WHERE s.Class IS NOT NULL GROUP BY s.Class"
            ).rows
        )
        return {
            year: {
                "students": totals.get(year, 0),
                "commenters": commenters.get(year, 0),
                "comments": comment_counts.get(year, 0),
            }
            for year in sorted(totals)
        }

    def unrated_courses(self, dep_id: int, limit: int = 20) -> List[int]:
        """Courses in a department with no ratings at all (catalog gaps)."""
        return self.database.query(
            "SELECT c.CourseID FROM Courses c "
            "LEFT JOIN Comments cm "
            "ON cm.CourseID = c.CourseID AND cm.Rating IS NOT NULL "
            "WHERE c.DepID = ? AND cm.SuID IS NULL "
            f"ORDER BY c.CourseID LIMIT {int(limit)}",
            (dep_id,),
        ).column("CourseID")

    def course_rating_percentile(self, course_id: int) -> Optional[float]:
        """Where this course's average rating sits among all rated courses.

        The faculty view behind "see how their class compares to other
        classes": 0.9 means better-rated than 90% of rated courses.
        """
        averages = self.database.query(
            "SELECT CourseID, AVG(Rating) AS r FROM Comments "
            "WHERE Rating IS NOT NULL GROUP BY CourseID"
        ).rows
        own = next((r for cid, r in averages if cid == course_id), None)
        if own is None or len(averages) < 2:
            return None
        below = sum(1 for _cid, r in averages if r < own)
        return below / (len(averages) - 1)
