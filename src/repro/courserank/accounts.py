"""Constituencies and authorization.

CourseRank has three very distinct user types (Section 2.1): students,
faculty, and staff — plus the property that, unlike open social sites,
every user is validated against official university identities ("real
ids" in Table 1).  This module models that: users register against an
existing Student or Instructor record, and every write action is gated by
a role → action permission table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, Optional

from repro.errors import AuthorizationError, CourseRankError
from repro.minidb.catalog import Database


class Role(Enum):
    STUDENT = "student"
    FACULTY = "faculty"
    STAFF = "staff"

    @classmethod
    def parse(cls, text: str) -> "Role":
        for role in cls:
            if role.value == text:
                return role
        raise CourseRankError(f"unknown role {text!r}")


@dataclass(frozen=True)
class User:
    """An authenticated user: account id, username, role, person link."""

    user_id: int
    username: str
    role: Role
    person_id: Optional[int] = None  # SuID for students, InstructorID for faculty


#: which actions each constituency may perform
PERMISSIONS: Dict[str, FrozenSet[Role]] = {
    # student contributions
    "comment": frozenset({Role.STUDENT}),
    "rate": frozenset({Role.STUDENT}),
    "vote_comment": frozenset({Role.STUDENT}),
    "plan": frozenset({Role.STUDENT}),
    "enroll": frozenset({Role.STUDENT}),
    "ask_question": frozenset({Role.STUDENT}),
    "answer_question": frozenset({Role.STUDENT, Role.FACULTY, Role.STAFF}),
    "report_textbook": frozenset({Role.STUDENT, Role.FACULTY}),
    # faculty features
    "faculty_note": frozenset({Role.FACULTY}),
    "compare_courses": frozenset({Role.FACULTY, Role.STAFF}),
    # staff features
    "define_requirement": frozenset({Role.STAFF}),
    "seed_faq": frozenset({Role.STAFF}),
    "advise_student": frozenset({Role.STAFF}),
    # everyone
    "search": frozenset({Role.STUDENT, Role.FACULTY, Role.STAFF}),
    "view_course": frozenset({Role.STUDENT, Role.FACULTY, Role.STAFF}),
    "recommend": frozenset({Role.STUDENT, Role.FACULTY, Role.STAFF}),
}


class AccountManager:
    """Registration, lookup, and authorization against the Users table."""

    def __init__(self, database: Database) -> None:
        self.database = database

    # -- registration ------------------------------------------------------

    def register(
        self,
        username: str,
        role: Role,
        person_id: Optional[int] = None,
    ) -> User:
        """Create an account, validating the person link per constituency.

        Students must reference an existing Students row and faculty an
        Instructors row — the paper's "Restricted Access": CourseRank can
        validate that a user really is a student or professor.
        """
        if not username:
            raise CourseRankError("username must be non-empty")
        if role is Role.STUDENT:
            if person_id is None or not self._exists(
                "Students", "SuID", person_id
            ):
                raise AuthorizationError(
                    f"student registration requires a valid SuID, got {person_id!r}"
                )
        elif role is Role.FACULTY:
            if person_id is None or not self._exists(
                "Instructors", "InstructorID", person_id
            ):
                raise AuthorizationError(
                    "faculty registration requires a valid InstructorID, "
                    f"got {person_id!r}"
                )
        users = self.database.table("Users")
        user_id = users.next_id()
        users.insert([user_id, username, role.value, person_id])
        return User(
            user_id=user_id, username=username, role=role, person_id=person_id
        )

    def _exists(self, table: str, column: str, value: int) -> bool:
        result = self.database.query(
            f"SELECT COUNT(*) FROM {table} WHERE {column} = ?", (int(value),)
        )
        return result.scalar() > 0

    # -- lookup ---------------------------------------------------------------

    def authenticate(self, username: str) -> User:
        """Look up a user by username (the university SSO already vouched)."""
        table = self.database.table("Users")
        for row in table.scan_equal("Username", username):
            user_id, name, role_text, person_id = row
            return User(
                user_id=user_id,
                username=name,
                role=Role.parse(role_text),
                person_id=person_id,
            )
        raise AuthorizationError(f"unknown user {username!r}")

    def get(self, user_id: int) -> User:
        row = self.database.table("Users").lookup_pk((user_id,))
        if row is None:
            raise AuthorizationError(f"unknown user id {user_id}")
        return User(
            user_id=row[0],
            username=row[1],
            role=Role.parse(row[2]),
            person_id=row[3],
        )

    # -- authorization -----------------------------------------------------

    def authorize(self, user: User, action: str) -> None:
        """Raise :class:`AuthorizationError` unless ``user`` may ``action``."""
        allowed = PERMISSIONS.get(action)
        if allowed is None:
            raise CourseRankError(f"unknown action {action!r}")
        if user.role not in allowed:
            raise AuthorizationError(
                f"{user.role.value} accounts may not {action.replace('_', ' ')}"
            )

    def can(self, user: User, action: str) -> bool:
        try:
            self.authorize(user, action)
        except AuthorizationError:
            return False
        return True

    def count_by_role(self) -> Dict[str, int]:
        result = self.database.query(
            "SELECT Role, COUNT(*) AS n FROM Users GROUP BY Role"
        )
        return {row[0]: row[1] for row in result.rows}
