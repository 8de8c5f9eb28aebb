"""Privacy policies.

Two policies from Section 2.2:

* **Grade-distribution disclosure** — official histograms are shown only
  for departments that agreed to release them (in the paper: only the
  School of Engineering); otherwise the self-reported histogram is used;
  and *no* distribution is shown when it covers fewer than ``k`` students
  ("we do not show distributions for classes with very few students,
  since that may disclose information about individual students").

* **Plan sharing** — "we allowed students to see who is planning to take
  a class (one can opt out of sharing)".  Only plan entries with
  ``Shared = TRUE`` are visible to other students.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import PrivacyError
from repro.courserank.gradebook import GradeBook
from repro.courserank.models import GradeDistribution
from repro.minidb.catalog import Database


@dataclass
class PrivacyPolicy:
    """Tunable thresholds; defaults follow the paper's narrative."""

    min_distribution_size: int = 5  # k-anonymity threshold for histograms


class PrivacyGuard:
    """Applies the policies over the gradebook and the Plans relation."""

    def __init__(
        self,
        database: Database,
        policy: Optional[PrivacyPolicy] = None,
    ) -> None:
        self.database = database
        self.policy = policy or PrivacyPolicy()
        self.gradebook = GradeBook(database)

    # -- grade distributions ----------------------------------------------

    def visible_distribution(self, course_id: int) -> GradeDistribution:
        """The distribution a student may see for this course.

        Raises :class:`PrivacyError` when nothing may be disclosed.
        """
        candidate: Optional[GradeDistribution] = None
        if self.gradebook.department_releases_official(course_id):
            candidate = self.gradebook.official_distribution(course_id)
        if candidate is None:
            candidate = self.gradebook.self_reported_distribution(course_id)
        if candidate is None:
            raise PrivacyError(
                f"no grade data available for course {course_id}"
            )
        if candidate.total < self.policy.min_distribution_size:
            raise PrivacyError(
                f"distribution for course {course_id} covers only "
                f"{candidate.total} students "
                f"(< {self.policy.min_distribution_size}); suppressed"
            )
        return candidate

    def distribution_or_none(self, course_id: int) -> Optional[GradeDistribution]:
        """Like :meth:`visible_distribution` but returning None, for UIs."""
        try:
            return self.visible_distribution(course_id)
        except PrivacyError:
            return None

    # -- plan sharing -----------------------------------------------------

    def who_is_planning(
        self, course_id: int, viewer_suid: Optional[int] = None
    ) -> List[Tuple[int, str]]:
        """Students who plan to take the course *and* share their plans.

        The viewer always sees their own entry, shared or not.
        """
        result = self.database.query(
            "SELECT p.SuID, s.Name, p.Shared FROM Plans p "
            "JOIN Students s ON p.SuID = s.SuID "
            "WHERE p.CourseID = ? ORDER BY p.SuID",
            (course_id,),
        )
        visible = []
        for suid, name, shared in result.rows:
            if shared or (viewer_suid is not None and suid == viewer_suid):
                visible.append((suid, name))
        return visible

    def sharing_rate(self) -> Optional[float]:
        """Fraction of plan entries shared (the paper: the vast majority)."""
        result = self.database.query(
            "SELECT COUNT(*) AS total, "
            "SUM(CASE WHEN Shared THEN 1 ELSE 0 END) AS shared FROM Plans"
        )
        total, shared = result.rows[0]
        if not total:
            return None
        return (shared or 0) / total
