"""The CourseRank facade.

One object wiring every component of Figure 2 — the relational store,
search + course clouds, FlexRecs recommendations, the Planner, the
Requirement Tracker, the Q&A forum, accounts/authorization, incentives,
and the privacy guard — behind a single application API.

>>> from repro.courserank import CourseRank
>>> from repro.datagen import generate_university
>>> app = CourseRank(generate_university(scale="tiny", seed=7))
>>> result, cloud = app.search_courses("programming")
>>> app.recommendations.run("related_courses", course_id=1)  # doctest: +SKIP
"""

from __future__ import annotations

import datetime
from typing import Any, Dict, List, Optional, Tuple

from repro.core import extendcache
from repro.errors import AuthorizationError, CourseRankError
from repro.courserank.accounts import AccountManager, Role, User
from repro.courserank.analytics import Analytics
from repro.courserank.cloudsearch import CourseCloudSearch
from repro.courserank.forum import Forum
from repro.courserank.gradebook import GradeBook
from repro.courserank.incentives import IncentiveLedger
from repro.courserank.models import Comment, Course, GradeDistribution
from repro.courserank.planner import Planner
from repro.courserank.privacy import PrivacyGuard, PrivacyPolicy
from repro.courserank.ratings import RatingsService
from repro.courserank.recommendations import RecommendationService
from repro.courserank.requirements import RequirementTracker
from repro.courserank.schema import new_database
from repro.minidb.catalog import Database
from repro.obs import OBS


class CourseRank:
    """The assembled social system."""

    def __init__(
        self,
        database: Optional[Database] = None,
        privacy_policy: Optional[PrivacyPolicy] = None,
    ) -> None:
        self.db = database or new_database()
        self.accounts = AccountManager(self.db)
        self.ratings = RatingsService(self.db)
        self.planner = Planner(self.db)
        self.tracker = RequirementTracker(self.db)
        self.forum = Forum(self.db)
        self.incentives = IncentiveLedger(self.db)
        self.gradebook = GradeBook(self.db)
        self.privacy = PrivacyGuard(self.db, privacy_policy)
        self.cloudsearch = CourseCloudSearch(self.db)
        self.analytics = Analytics(self.db)
        self.recommendations = RecommendationService(self.db)

    @property
    def graph(self):
        """The shared FolkRank engine over this site's database."""
        from repro.graphrank.engine import GraphRankEngine

        return GraphRankEngine.for_database(self.db)

    # -- search + clouds ------------------------------------------------------

    def search_courses(self, query: str, limit: Optional[int] = None):
        """Keyword search with a course cloud (Figure 3)."""
        with OBS.span("app.search_courses", {"query": query}):
            return self.cloudsearch.search(query, limit=limit)

    def search_session(self, query: str):
        """A refinement session (Figures 3 → 4)."""
        with OBS.span("app.search_session", {"query": query}):
            return self.cloudsearch.session(query)

    # -- course pages -----------------------------------------------------------

    def course(self, course_id: int) -> Course:
        row = self.db.table("Courses").lookup_pk((course_id,))
        if row is None:
            raise CourseRankError(f"unknown course {course_id}")
        return Course(
            course_id=row[0],
            dep_id=row[1],
            title=row[2],
            description=row[3],
            units=row[4],
            url=row[5],
        )

    def course_page(self, course_id: int, viewer: Optional[User] = None) -> Dict[str, Any]:
        """Everything the course-descriptor page of Figure 1 shows."""
        with OBS.span("app.course_page", {"course_id": course_id}):
            return self._course_page(course_id, viewer)

    def _course_page(
        self, course_id: int, viewer: Optional[User] = None
    ) -> Dict[str, Any]:
        course = self.course(course_id)
        page: Dict[str, Any] = {
            "course": course,
            "average_rating": self.ratings.average_rating(course_id),
            "rating_count": self.ratings.rating_count(course_id),
            "comments": self.ratings.comments_for_course(course_id),
            "grade_distribution": self.privacy.distribution_or_none(course_id),
            "planning_to_take": self.privacy.who_is_planning(
                course_id,
                viewer_suid=(
                    viewer.person_id
                    if viewer is not None and viewer.role is Role.STUDENT
                    else None
                ),
            ),
            "offerings": self.db.query(
                "SELECT Year, Term FROM Offerings "
                "WHERE CourseID = ? ORDER BY Year, Term",
                (course_id,),
            ).rows,
            "textbooks": self.db.query(
                "SELECT t.Title, t.Author FROM CourseTextbooks ct "
                "JOIN Textbooks t ON ct.TextbookID = t.TextbookID "
                "WHERE ct.CourseID = ? ORDER BY t.Title",
                (course_id,),
            ).rows,
            "instructors": self.db.query(
                "SELECT i.Name FROM Teaches te "
                "JOIN Instructors i ON te.InstructorID = i.InstructorID "
                "WHERE te.CourseID = ? ORDER BY i.Name",
                (course_id,),
            ).column("Name"),
        }
        return page

    # -- authenticated actions ----------------------------------------------------

    def comment_on_course(
        self,
        user: User,
        course_id: int,
        text: Optional[str],
        rating: Optional[float],
        day: Optional[datetime.date] = None,
    ) -> Comment:
        """Student action: comment + rate, earning incentive points.

        The course's search entity is refreshed in place, so new comment
        vocabulary becomes searchable (and cloud-visible) immediately; an
        index not built yet reads the comment when it is first built.

        Like every facade writer, this mutates tables directly
        (``Table.insert``/``update_pk``, not SQL), so it takes the
        database's write lock itself: a concurrent ``db.query`` must
        never scan a table mid-mutation.
        """
        self.accounts.authorize(user, "comment")
        with self.db.rwlock.write_locked():
            comment = self.ratings.add_comment(
                user.person_id, course_id, text, rating, day=day
            )
            self.incentives.award(user.user_id, "comment", day=day)
            if rating is not None:
                self.incentives.award(user.user_id, "rate_course", day=day)
            self.cloudsearch.refresh_course(course_id)
        return comment

    def add_faculty_note(
        self,
        user: User,
        course_id: int,
        text: str,
        day: Optional[datetime.date] = None,
    ) -> int:
        """Faculty action: annotate *their own* course."""
        self.accounts.authorize(user, "faculty_note")
        teaches = self.db.table("Teaches").lookup_pk(
            (user.person_id, course_id)
        )
        if teaches is None:
            raise AuthorizationError(
                "faculty may only annotate courses they teach"
            )
        with self.db.rwlock.write_locked():
            notes = self.db.table("FacultyNotes")
            note_id = notes.next_id()
            notes.insert(
                [note_id, course_id, user.person_id, text,
                 day or datetime.date.today()]
            )
        return note_id

    def define_requirement(
        self, user: User, dep_id: int, name: str, rule: str
    ) -> int:
        """Staff action: enter a program requirement."""
        self.accounts.authorize(user, "define_requirement")
        with self.db.rwlock.write_locked():
            return self.tracker.define(dep_id, name, rule)

    def report_textbook(
        self, user: User, course_id: int, title: str, author: str = ""
    ) -> int:
        """Volunteer textbook reporting (the bookstore wouldn't share)."""
        self.accounts.authorize(user, "report_textbook")
        with self.db.rwlock.write_locked():
            textbooks = self.db.table("Textbooks")
            existing = self.db.query(
                "SELECT TextbookID FROM Textbooks WHERE Title = ?", (title,)
            ).rows
            if existing:
                textbook_id = existing[0][0]
            else:
                textbook_id = textbooks.next_id()
                textbooks.insert([textbook_id, title, author or None])
            link = self.db.table("CourseTextbooks")
            if link.lookup_pk((course_id, textbook_id)) is None:
                link.insert([course_id, textbook_id, user.person_id])
                self.incentives.award(user.user_id, "report_textbook")
        return textbook_id

    def compare_course_to_department(self, user: User, course_id: int) -> Dict[str, Any]:
        """Faculty feature: "see how their class compares to other classes"."""
        self.accounts.authorize(user, "compare_courses")
        course = self.course(course_id)
        own = self.ratings.average_rating(course_id)
        department = self.db.query(
            "SELECT AVG(cm.Rating) FROM Comments cm "
            "JOIN Courses c ON cm.CourseID = c.CourseID "
            "WHERE c.DepID = ?",
            (course.dep_id,),
        ).scalar()
        return {
            "course_id": course_id,
            "course_average": own,
            "department_average": department,
            "delta": (own - department) if own is not None and department else None,
        }

    # -- site statistics (the numbers of Section 2) ----------------------------

    def observability(self) -> Dict[str, Any]:
        """The process-wide observability snapshot plus app cache counters.

        Everything here reads from :data:`repro.obs.OBS` and the
        components' own cache statistics — this facade adds no counters
        of its own.
        """
        snapshot = OBS.snapshot()
        snapshot["caches"] = {
            "search_answer_cache": (
                self.cloudsearch.cache_info()
                if self.cloudsearch.indexed
                else None
            ),
            "plan_cache": {
                "hits": self.db._plan_cache.hits,
                "misses": self.db._plan_cache.misses,
                "size": len(self.db._plan_cache),
            },
            "extend_cache": extendcache.cache_info(self.db),
        }
        return snapshot

    def site_statistics(self) -> Dict[str, int]:
        counts = self.db.stats()
        users_by_role = self.accounts.count_by_role()
        return {
            "courses": counts.get("Courses", 0),
            "comments": counts.get("Comments", 0),
            "ratings": self.db.query(
                "SELECT COUNT(Rating) FROM Comments WHERE Rating IS NOT NULL"
            ).scalar(),
            "students": counts.get("Students", 0),
            "student_users": users_by_role.get("student", 0),
            "faculty_users": users_by_role.get("faculty", 0),
            "staff_users": users_by_role.get("staff", 0),
            "enrollments": counts.get("Enrollments", 0),
            "plans": counts.get("Plans", 0),
            "questions": counts.get("Questions", 0),
            "departments": counts.get("Departments", 0),
        }

    def components(self) -> List[str]:
        """The Figure 2 component inventory (used by the F2 smoke bench)."""
        return [
            "database",
            "accounts",
            "search",
            "course_cloud",
            "flexrecs",
            "planner",
            "requirement_tracker",
            "forum",
            "incentives",
            "privacy",
            "gradebook",
            "ratings",
            "analytics",
        ]
