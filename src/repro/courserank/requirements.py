"""The Requirement Tracker.

Staff "can enter requirements for academic programs", and students "can
check if the courses they have taken (or are planning to take) satisfy
the requirements for their major" (Sections 2, 2.1).

Requirements are stored as rule strings in a small boolean DSL::

    rule    := clause (OR clause)*
    clause  := factor (AND factor)*
    factor  := ALL(c, ...)        every listed course
             | ANY(c, ...)        at least one listed course
             | ATLEAST(n, c, ...) at least n of the listed courses
             | UNITS(n, c, ...)   at least n units among the listed courses
             | DEPUNITS(n, d)     at least n units in department d
             | COURSE(c)          exactly one course
             | ( rule )

All primitives are monotone in the set of completed courses, so adding a
course can never un-satisfy a requirement — a property the test suite
checks with hypothesis.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import RequirementError
from repro.courserank.models import RequirementStatus
from repro.minidb.catalog import Database

_TOKEN = re.compile(r"\s*([A-Z]+|\(|\)|,|\d+)")


# ---------------------------------------------------------------------------
# rule AST
# ---------------------------------------------------------------------------


class Rule:
    """A rule node: ``satisfied(ctx)``, ``gaps(ctx)`` and the hints below."""

    def helpful_courses(self, ctx: "StudentContext") -> Set[int]:
        """Courses that would advance this rule if the student took them.

        Empty when the rule is already satisfied.  Department-unit rules
        return no explicit list (the tracker expands them from the
        catalog) — see :meth:`helpful_departments`.
        """
        return set()

    def helpful_departments(self, ctx: "StudentContext") -> Set[int]:
        """Departments whose courses would advance this rule."""
        return set()


@dataclass(frozen=True)
class AllOf(Rule):
    courses: Tuple[int, ...]

    def satisfied(self, ctx):
        return all(course in ctx.courses for course in self.courses)

    def gaps(self, ctx):
        missing = [c for c in self.courses if c not in ctx.courses]
        return [f"missing required course {c}" for c in missing]

    def helpful_courses(self, ctx):
        return {c for c in self.courses if c not in ctx.courses}

@dataclass(frozen=True)
class AnyOf(Rule):
    courses: Tuple[int, ...]

    def satisfied(self, ctx):
        return any(course in ctx.courses for course in self.courses)

    def gaps(self, ctx):
        if self.satisfied(ctx):
            return []
        listed = ", ".join(str(c) for c in self.courses)
        return [f"need one of courses {listed}"]

    def helpful_courses(self, ctx):
        if self.satisfied(ctx):
            return set()
        return set(self.courses)

@dataclass(frozen=True)
class AtLeast(Rule):
    count: int
    courses: Tuple[int, ...]

    def satisfied(self, ctx):
        have = sum(1 for course in self.courses if course in ctx.courses)
        return have >= self.count

    def gaps(self, ctx):
        have = sum(1 for course in self.courses if course in ctx.courses)
        if have >= self.count:
            return []
        listed = ", ".join(str(c) for c in self.courses)
        return [f"need {self.count - have} more of courses {listed}"]

    def helpful_courses(self, ctx):
        if self.satisfied(ctx):
            return set()
        return {c for c in self.courses if c not in ctx.courses}

@dataclass(frozen=True)
class UnitsAmong(Rule):
    units: int
    courses: Tuple[int, ...]

    def _have(self, ctx):
        return sum(
            ctx.units_of(course)
            for course in self.courses
            if course in ctx.courses
        )

    def satisfied(self, ctx):
        return self._have(ctx) >= self.units

    def gaps(self, ctx):
        have = self._have(ctx)
        if have >= self.units:
            return []
        return [f"need {self.units - have} more units among listed courses"]

    def helpful_courses(self, ctx):
        if self.satisfied(ctx):
            return set()
        return {c for c in self.courses if c not in ctx.courses}

@dataclass(frozen=True)
class DepartmentUnits(Rule):
    units: int
    dep_id: int

    def _have(self, ctx):
        return sum(
            ctx.units_of(course)
            for course in ctx.courses
            if ctx.department_of(course) == self.dep_id
        )

    def satisfied(self, ctx):
        return self._have(ctx) >= self.units

    def gaps(self, ctx):
        have = self._have(ctx)
        if have >= self.units:
            return []
        return [
            f"need {self.units - have} more units in department {self.dep_id}"
        ]

    def helpful_departments(self, ctx):
        if self.satisfied(ctx):
            return set()
        return {self.dep_id}

@dataclass(frozen=True)
class And(Rule):
    parts: Tuple[Rule, ...]

    def satisfied(self, ctx):
        return all(part.satisfied(ctx) for part in self.parts)

    def gaps(self, ctx):
        found: List[str] = []
        for part in self.parts:
            found.extend(part.gaps(ctx))
        return found

    def helpful_courses(self, ctx):
        found = set()
        for part in self.parts:
            found |= part.helpful_courses(ctx)
        return found

    def helpful_departments(self, ctx):
        found = set()
        for part in self.parts:
            found |= part.helpful_departments(ctx)
        return found

@dataclass(frozen=True)
class Or(Rule):
    parts: Tuple[Rule, ...]

    def satisfied(self, ctx):
        return any(part.satisfied(ctx) for part in self.parts)

    def gaps(self, ctx):
        if self.satisfied(ctx):
            return []
        # Report the branch closest to completion (fewest gaps).
        best = min((part.gaps(ctx) for part in self.parts), key=len)
        return best

    def helpful_courses(self, ctx):
        if self.satisfied(ctx):
            return set()
        found = set()
        for part in self.parts:
            found |= part.helpful_courses(ctx)
        return found

    def helpful_departments(self, ctx):
        if self.satisfied(ctx):
            return set()
        found = set()
        for part in self.parts:
            found |= part.helpful_departments(ctx)
        return found


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _RuleParser:
    def __init__(self, text: str) -> None:
        self.tokens = self._tokenize(text)
        self.position = 0

    @staticmethod
    def _tokenize(text: str) -> List[str]:
        tokens = []
        position = 0
        while position < len(text):
            match = _TOKEN.match(text, position)
            if match is None:
                remainder = text[position:].strip()
                if not remainder:
                    break
                raise RequirementError(
                    f"bad requirement rule near {remainder[:20]!r}"
                )
            tokens.append(match.group(1))
            position = match.end()
        return tokens

    def peek(self) -> Optional[str]:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def advance(self) -> str:
        token = self.peek()
        if token is None:
            raise RequirementError("unexpected end of requirement rule")
        self.position += 1
        return token

    def expect(self, token: str) -> None:
        found = self.advance()
        if found != token:
            raise RequirementError(f"expected {token!r}, found {found!r}")

    def parse(self) -> Rule:
        rule = self.parse_or()
        if self.peek() is not None:
            raise RequirementError(
                f"trailing input in requirement rule: {self.peek()!r}"
            )
        return rule

    def parse_or(self) -> Rule:
        parts = [self.parse_and()]
        while self.peek() == "OR":
            self.advance()
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and(self) -> Rule:
        parts = [self.parse_factor()]
        while self.peek() == "AND":
            self.advance()
            parts.append(self.parse_factor())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_factor(self) -> Rule:
        token = self.advance()
        if token == "(":
            inner = self.parse_or()
            self.expect(")")
            return inner
        if token == "ALL":
            return AllOf(tuple(self._int_list(minimum=1)))
        if token == "ANY":
            return AnyOf(tuple(self._int_list(minimum=1)))
        if token == "COURSE":
            values = self._int_list(minimum=1, maximum=1)
            return AllOf((values[0],))
        if token == "ATLEAST":
            values = self._int_list(minimum=2)
            return AtLeast(values[0], tuple(values[1:]))
        if token == "UNITS":
            values = self._int_list(minimum=2)
            return UnitsAmong(values[0], tuple(values[1:]))
        if token == "DEPUNITS":
            values = self._int_list(minimum=2, maximum=2)
            return DepartmentUnits(values[0], values[1])
        raise RequirementError(f"unknown rule construct {token!r}")

    def _int_list(
        self, minimum: int, maximum: Optional[int] = None
    ) -> List[int]:
        self.expect("(")
        values: List[int] = []
        while True:
            token = self.advance()
            if not token.isdigit():
                raise RequirementError(
                    f"expected a number in rule list, found {token!r}"
                )
            values.append(int(token))
            token = self.advance()
            if token == ")":
                break
            if token != ",":
                raise RequirementError(f"expected ',' or ')', found {token!r}")
        if len(values) < minimum:
            raise RequirementError(
                f"rule list needs at least {minimum} values"
            )
        if maximum is not None and len(values) > maximum:
            raise RequirementError(f"rule list takes at most {maximum} values")
        return values


def parse_rule(text: str) -> Rule:
    """Parse a requirement rule string into its AST."""
    if not text or not text.strip():
        raise RequirementError("requirement rule must be non-empty")
    return _RuleParser(text).parse()


# ---------------------------------------------------------------------------
# evaluation context + tracker
# ---------------------------------------------------------------------------


class StudentContext:
    """The course set a rule evaluates against, with unit/dept lookups."""

    def __init__(
        self,
        courses: Set[int],
        units: Dict[int, int],
        departments: Dict[int, int],
    ) -> None:
        self.courses = courses
        self._units = units
        self._departments = departments

    def units_of(self, course_id: int) -> int:
        return self._units.get(course_id, 0)

    def department_of(self, course_id: int) -> Optional[int]:
        return self._departments.get(course_id)


class RequirementTracker:
    """Defines and checks program requirements against student records."""

    def __init__(self, database: Database) -> None:
        self.database = database

    # -- staff side -----------------------------------------------------------

    def define(
        self, dep_id: Optional[int], name: str, rule_text: str
    ) -> int:
        """Store a requirement after validating its rule; returns ReqID."""
        parse_rule(rule_text)  # raises on bad syntax
        requirements = self.database.table("Requirements")
        req_id = requirements.next_id()
        requirements.insert([req_id, dep_id, name, rule_text])
        return req_id

    def requirements_for(self, dep_id: int) -> List[Tuple[int, str, str]]:
        result = self.database.query(
            "SELECT ReqID, Name, Rule FROM Requirements "
            "WHERE DepID = ? ORDER BY ReqID",
            (dep_id,),
        )
        return [(row[0], row[1], row[2]) for row in result.rows]

    # -- student side -------------------------------------------------------

    def student_context(
        self, suid: int, include_planned: bool = True
    ) -> StudentContext:
        course_ids = set(
            self.database.query(
                "SELECT CourseID FROM Enrollments WHERE SuID = ?", (suid,)
            ).column("CourseID")
        )
        if include_planned:
            course_ids |= set(
                self.database.query(
                    "SELECT CourseID FROM Plans WHERE SuID = ?", (suid,)
                ).column("CourseID")
            )
        units: Dict[int, int] = {}
        departments: Dict[int, int] = {}
        if course_ids:
            listed = sorted(course_ids)
            rows = self.database.query(
                "SELECT CourseID, Units, DepID FROM Courses "
                f"WHERE CourseID IN ({', '.join('?' * len(listed))})",
                listed,
            ).rows
            for course_id, course_units, dep_id in rows:
                units[course_id] = course_units or 0
                departments[course_id] = dep_id
        return StudentContext(course_ids, units, departments)

    def check(
        self, suid: int, dep_id: int, include_planned: bool = True
    ) -> List[RequirementStatus]:
        """Evaluate every requirement of a program for one student."""
        ctx = self.student_context(suid, include_planned=include_planned)
        statuses = []
        for req_id, name, rule_text in self.requirements_for(dep_id):
            rule = parse_rule(rule_text)
            ok = rule.satisfied(ctx)
            statuses.append(
                RequirementStatus(
                    req_id=req_id,
                    name=name,
                    satisfied=ok,
                    missing=() if ok else tuple(rule.gaps(ctx)),
                )
            )
        return statuses

    def unmet(self, suid: int, dep_id: int, include_planned: bool = True):
        """Only the unmet requirements (what the tracker shows first)."""
        return [
            status
            for status in self.check(suid, dep_id, include_planned)
            if not status.satisfied
        ]

    def suggest_courses(
        self,
        suid: int,
        dep_id: int,
        limit: int = 10,
        include_planned: bool = True,
    ) -> List[Tuple[int, int]]:
        """Courses that would advance unmet requirements.

        Returns ``[(course_id, requirements_helped), ...]`` ordered by how
        many unmet requirements each course advances — the tracker's
        "what should I take next" view.  Department-unit rules expand to
        the department's not-yet-taken courses.
        """
        ctx = self.student_context(suid, include_planned=include_planned)
        helped: Dict[int, int] = {}
        for _req_id, _name, rule_text in self.requirements_for(dep_id):
            rule = parse_rule(rule_text)
            if rule.satisfied(ctx):
                continue
            candidates = set(rule.helpful_courses(ctx))
            for helpful_dep in rule.helpful_departments(ctx):
                dep_courses = self.database.query(
                    "SELECT CourseID FROM Courses WHERE DepID = ?",
                    (int(helpful_dep),),
                ).column("CourseID")
                candidates |= {
                    course for course in dep_courses
                    if course not in ctx.courses
                }
            for course in candidates:
                if course in ctx.courses:
                    continue
                helped[course] = helped.get(course, 0) + 1
        ordered = sorted(helped.items(), key=lambda kv: (-kv[1], kv[0]))
        return ordered[:limit]
