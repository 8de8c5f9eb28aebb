"""The Planner: quarterly schedules, four-year plans, conflicts, GPAs.

The paper calls the Planner "an extremely useful feature ... also a
sticky feature": students enter courses taken (with grades) and courses
planned, organize them into quarters, and the tool "checks for schedule
conflicts and computes grade point averages".

This module implements:

* recording taken courses with self-reported grades (Enrollments);
* planning future courses into (year, term) slots (Plans), with the
  sharing flag the privacy layer consumes;
* schedule-conflict detection against offering meeting times;
* prerequisite warnings (a planned course whose prerequisite is neither
  taken nor planned earlier);
* per-quarter and cumulative GPA;
* the four-year plan view (quarter → courses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CourseRankError, PlannerConflictError
from repro.courserank.models import Offering, PlanEntry
from repro.courserank.schema import GRADE_POINTS, TERMS
from repro.minidb.catalog import Database


def term_order(year: int, term: str) -> Tuple[int, int]:
    """Sortable key for academic quarters (Aut < Win < Spr < Sum in-year).

    The academic year starts in Autumn; we order by calendar (year, term
    position) which is sufficient for before/after checks.
    """
    if term not in TERMS:
        raise CourseRankError(f"unknown term {term!r}; expected one of {TERMS}")
    return (year, TERMS.index(term))


@dataclass
class ConflictReport:
    """A schedule conflict between two planned/taken offerings."""

    course_a: int
    course_b: int
    year: int
    term: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"courses {self.course_a} and {self.course_b} overlap in "
            f"{self.term} {self.year}"
        )


@dataclass
class PrerequisiteWarning:
    course_id: int
    missing_prereq: int


class Planner:
    """Per-student planning operations."""

    def __init__(self, database: Database) -> None:
        self.database = database

    # -- recording taken courses -----------------------------------------------

    def record_taken(
        self,
        suid: int,
        course_id: int,
        year: int,
        term: str,
        grade: Optional[str] = None,
    ) -> None:
        """Record a completed course with an optional self-reported grade."""
        term_order(year, term)  # validates the term
        if grade is not None and grade not in GRADE_POINTS:
            raise CourseRankError(
                f"unknown grade {grade!r}; expected one of "
                f"{sorted(GRADE_POINTS)}"
            )
        table = self.database.table("Enrollments")
        if table.lookup_pk((suid, course_id)) is not None:
            table.update_where(
                lambda r: r[0] == suid and r[1] == course_id,
                lambda r: (suid, course_id, year, term, grade),
            )
        else:
            table.insert([suid, course_id, year, term, grade])
        # Planning is superseded by completion.
        self.database.table("Plans").delete_where(
            lambda r: r[0] == suid and r[1] == course_id
        )
        self._refresh_gpa(suid)

    def _refresh_gpa(self, suid: int) -> None:
        gpa = self.cumulative_gpa(suid)
        self.database.execute(
            "UPDATE Students SET GPA = ? WHERE SuID = ?",
            (None if gpa is None else round(gpa, 4), suid),
        )

    # -- planning --------------------------------------------------------------

    def plan_course(
        self,
        suid: int,
        course_id: int,
        year: int,
        term: str,
        shared: bool = True,
        allow_conflicts: bool = False,
    ) -> List[ConflictReport]:
        """Add a course to the plan.

        Returns the conflicts detected (empty when clean).  With
        ``allow_conflicts=False`` a detected conflict raises
        :class:`PlannerConflictError` and nothing is stored — the paper's
        Planner surfaces conflicts rather than silently accepting them.
        """
        term_order(year, term)
        if self.database.table("Courses").lookup_pk((course_id,)) is None:
            raise CourseRankError(f"unknown course {course_id}")
        if self.database.table("Enrollments").lookup_pk((suid, course_id)):
            raise CourseRankError(
                f"student {suid} already took course {course_id}"
            )
        conflicts = self._conflicts_with(suid, course_id, year, term)
        if conflicts and not allow_conflicts:
            raise PlannerConflictError(
                "; ".join(str(conflict) for conflict in conflicts)
            )
        table = self.database.table("Plans")
        if table.lookup_pk((suid, course_id)) is not None:
            table.update_where(
                lambda r: r[0] == suid and r[1] == course_id,
                lambda r: (suid, course_id, year, term, shared),
            )
        else:
            table.insert([suid, course_id, year, term, shared])
        return conflicts

    def unplan_course(self, suid: int, course_id: int) -> bool:
        removed = self.database.table("Plans").delete_where(
            lambda r: r[0] == suid and r[1] == course_id
        )
        return removed > 0

    def set_plan_sharing(self, suid: int, course_id: int, shared: bool) -> None:
        """The privacy opt-out: stop (or resume) sharing one plan entry."""
        table = self.database.table("Plans")
        if table.lookup_pk((suid, course_id)) is None:
            raise CourseRankError(
                f"student {suid} has no plan entry for course {course_id}"
            )
        table.update_where(
            lambda r: r[0] == suid and r[1] == course_id,
            lambda r: (r[0], r[1], r[2], r[3], shared),
        )

    # -- conflicts -------------------------------------------------------------

    def _offering(self, course_id: int, year: int, term: str) -> Optional[Offering]:
        row = self.database.table("Offerings").lookup_pk((course_id, year, term))
        if row is None:
            return None
        return Offering(
            course_id=row[0],
            year=row[1],
            term=row[2],
            days=row[3],
            start_minute=row[4],
            end_minute=row[5],
        )

    def _quarter_course_ids(self, suid: int, year: int, term: str) -> List[int]:
        planned = self.database.query(
            "SELECT CourseID FROM Plans "
            "WHERE SuID = ? AND Year = ? AND Term = ?",
            (suid, year, term),
        ).column("CourseID")
        taken = self.database.query(
            "SELECT CourseID FROM Enrollments "
            "WHERE SuID = ? AND Year = ? AND Term = ?",
            (suid, year, term),
        ).column("CourseID")
        return planned + taken

    def _conflicts_with(
        self, suid: int, course_id: int, year: int, term: str
    ) -> List[ConflictReport]:
        candidate = self._offering(course_id, year, term)
        if candidate is None:
            return []  # no meeting times on file -> nothing to check
        conflicts = []
        for other_id in self._quarter_course_ids(suid, year, term):
            if other_id == course_id:
                continue
            other = self._offering(other_id, year, term)
            if other is not None and candidate.overlaps(other):
                conflicts.append(
                    ConflictReport(
                        course_a=course_id,
                        course_b=other_id,
                        year=year,
                        term=term,
                    )
                )
        return conflicts

    def check_quarter(self, suid: int, year: int, term: str) -> List[ConflictReport]:
        """All pairwise conflicts within one quarter of the plan."""
        course_ids = self._quarter_course_ids(suid, year, term)
        conflicts = []
        for position, course_a in enumerate(course_ids):
            offering_a = self._offering(course_a, year, term)
            if offering_a is None:
                continue
            for course_b in course_ids[position + 1 :]:
                offering_b = self._offering(course_b, year, term)
                if offering_b is not None and offering_a.overlaps(offering_b):
                    conflicts.append(
                        ConflictReport(course_a, course_b, year, term)
                    )
        return conflicts

    # -- prerequisites ------------------------------------------------------

    def prerequisite_warnings(self, suid: int) -> List[PrerequisiteWarning]:
        """Planned courses whose prerequisites aren't met earlier."""
        position_of: Dict[int, Tuple[int, int]] = {}
        for course_id, year, term in self.database.query(
            "SELECT CourseID, Year, Term FROM Enrollments WHERE SuID = ?",
            (suid,),
        ).rows:
            position_of[course_id] = term_order(year, term)
        planned: List[Tuple[int, Tuple[int, int]]] = []
        for course_id, year, term in self.database.query(
            "SELECT CourseID, Year, Term FROM Plans WHERE SuID = ?",
            (suid,),
        ).rows:
            key = term_order(year, term)
            position_of[course_id] = key
            planned.append((course_id, key))
        warnings = []
        for course_id, when in planned:
            prereqs = self.database.query(
                "SELECT PrereqID FROM Prerequisites WHERE CourseID = ?",
                (course_id,),
            ).column("PrereqID")
            for prereq in prereqs:
                earlier = position_of.get(prereq)
                if earlier is None or earlier >= when:
                    warnings.append(
                        PrerequisiteWarning(
                            course_id=course_id, missing_prereq=prereq
                        )
                    )
        return warnings

    # -- GPA -----------------------------------------------------------------

    def quarter_gpa(self, suid: int, year: int, term: str) -> Optional[float]:
        """Unit-weighted GPA of one quarter's graded courses."""
        rows = self.database.query(
            "SELECT e.Grade, c.Units FROM Enrollments e "
            "JOIN Courses c ON e.CourseID = c.CourseID "
            "WHERE e.SuID = ? AND e.Year = ? AND e.Term = ? "
            "AND e.Grade IS NOT NULL",
            (suid, year, term),
        ).rows
        return _weighted_gpa(rows)

    def cumulative_gpa(self, suid: int) -> Optional[float]:
        rows = self.database.query(
            "SELECT e.Grade, c.Units FROM Enrollments e "
            "JOIN Courses c ON e.CourseID = c.CourseID "
            "WHERE e.SuID = ? AND e.Grade IS NOT NULL",
            (suid,),
        ).rows
        return _weighted_gpa(rows)

    # -- the four-year view --------------------------------------------------

    def four_year_plan(self, suid: int) -> Dict[Tuple[int, str], List[dict]]:
        """Quarter → entries, merging taken and planned courses.

        Entries are dicts with course_id, title, units, status
        ('taken'/'planned'), and grade (taken only).
        """
        plan: Dict[Tuple[int, str], List[dict]] = {}
        taken = self.database.query(
            "SELECT e.Year, e.Term, e.CourseID, c.Title, c.Units, e.Grade "
            "FROM Enrollments e JOIN Courses c ON e.CourseID = c.CourseID "
            "WHERE e.SuID = ?",
            (suid,),
        ).rows
        for year, term, course_id, title, units, grade in taken:
            plan.setdefault((year, term), []).append(
                {
                    "course_id": course_id,
                    "title": title,
                    "units": units,
                    "status": "taken",
                    "grade": grade,
                }
            )
        planned = self.database.query(
            "SELECT p.Year, p.Term, p.CourseID, c.Title, c.Units "
            "FROM Plans p JOIN Courses c ON p.CourseID = c.CourseID "
            "WHERE p.SuID = ?",
            (suid,),
        ).rows
        for year, term, course_id, title, units in planned:
            plan.setdefault((year, term), []).append(
                {
                    "course_id": course_id,
                    "title": title,
                    "units": units,
                    "status": "planned",
                    "grade": None,
                }
            )
        for entries in plan.values():
            entries.sort(key=lambda entry: entry["course_id"])
        return dict(sorted(plan.items(), key=lambda item: term_order(*item[0])))

    def weekly_schedule(
        self, suid: int, year: int, term: str
    ) -> Dict[str, List[dict]]:
        """The quarter's timetable: day letter → meetings sorted by start.

        This is the "organize their classes into a quarterly schedule"
        view.  Courses without meeting times on file are listed under
        the pseudo-day ``"?"``.
        """
        schedule: Dict[str, List[dict]] = {}
        titles: Dict[int, str] = {}
        for course_id in self._quarter_course_ids(suid, year, term):
            row = self.database.table("Courses").lookup_pk((course_id,))
            titles[course_id] = row[2] if row else f"course {course_id}"
            offering = self._offering(course_id, year, term)
            entry = {
                "course_id": course_id,
                "title": titles[course_id],
                "start_minute": offering.start_minute if offering else None,
                "end_minute": offering.end_minute if offering else None,
            }
            days = offering.days if offering and offering.days else "?"
            for day in days:
                schedule.setdefault(day, []).append(dict(entry))
        for meetings in schedule.values():
            meetings.sort(
                key=lambda m: (
                    m["start_minute"] is None,
                    m["start_minute"] or 0,
                    m["course_id"],
                )
            )
        return schedule

    def quarter_units(self, suid: int, year: int, term: str) -> int:
        """Total units taken+planned in one quarter (load checking)."""
        total = 0
        for entries in (
            self.four_year_plan(suid).get((year, term)) or []
        ):
            total += entries["units"] or 0
        return total


def _weighted_gpa(rows: Sequence[Tuple[Optional[str], Optional[int]]]):
    total_points = 0.0
    total_units = 0
    for grade, units in rows:
        if grade not in GRADE_POINTS:
            continue
        weight = units or 1
        total_points += GRADE_POINTS[grade] * weight
        total_units += weight
    if total_units == 0:
        return None
    return total_points / total_units
