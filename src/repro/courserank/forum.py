"""The Q&A forum, with question routing and FAQ seeding.

Section 2.2 reports the forum initially had little traffic and describes
the planned fixes, both implemented here:

* **FAQ seeding** — staff seed the forum with "frequently asked
  questions" developed with department managers (``seed_faq``);
* **question routing** — "questions will be automatically routed to
  people who are likely to be able to answer them": a question about a
  course routes to students who took it (preferring those who commented);
  a question about a department routes to its most active students.
"""

from __future__ import annotations

import datetime
from typing import List, Optional, Sequence, Tuple

from repro.errors import CourseRankError
from repro.courserank.models import Answer, Question
from repro.minidb.catalog import Database


class Forum:
    """Questions, answers, best-answer selection, and routing."""

    def __init__(self, database: Database, max_routes: int = 5) -> None:
        self.database = database
        self.max_routes = max_routes

    # -- asking -----------------------------------------------------------

    def ask(
        self,
        asker_id: Optional[int],
        text: str,
        course_id: Optional[int] = None,
        dep_id: Optional[int] = None,
        day: Optional[datetime.date] = None,
        official: bool = False,
    ) -> Question:
        """Post a question and route it to likely answerers."""
        if not text or not text.strip():
            raise CourseRankError("question text must be non-empty")
        questions = self.database.table("Questions")
        question_id = questions.next_id()
        day = day or datetime.date.today()
        questions.insert(
            [question_id, asker_id, course_id, dep_id, text, day, official]
        )
        for suid in self.route_targets(course_id, dep_id, exclude=asker_id):
            self.database.table("QuestionRoutes").insert([question_id, suid])
        return Question(
            question_id=question_id,
            asker_id=asker_id,
            text=text,
            course_id=course_id,
            dep_id=dep_id,
            ask_date=day,
            official=official,
        )

    def route_targets(
        self,
        course_id: Optional[int],
        dep_id: Optional[int],
        exclude: Optional[int] = None,
    ) -> List[int]:
        """Students likely able to answer, best candidates first.

        Course questions go to students who took the course, preferring
        those who also commented on it (they demonstrably engage).
        Department questions go to the students with the most enrollments
        in that department.
        """
        candidates: List[int] = []
        if course_id is not None:
            rows = self.database.query(
                "SELECT e.SuID, COUNT(c.CourseID) AS engagement "
                "FROM Enrollments e "
                "LEFT JOIN Comments c "
                "ON c.SuID = e.SuID AND c.CourseID = e.CourseID "
                "WHERE e.CourseID = ? "
                "GROUP BY e.SuID "
                "ORDER BY engagement DESC, e.SuID ASC",
                (course_id,),
            ).rows
            candidates = [row[0] for row in rows]
        elif dep_id is not None:
            rows = self.database.query(
                "SELECT e.SuID, COUNT(*) AS n FROM Enrollments e "
                "JOIN Courses c ON e.CourseID = c.CourseID "
                "WHERE c.DepID = ? "
                "GROUP BY e.SuID ORDER BY n DESC, e.SuID ASC",
                (dep_id,),
            ).rows
            candidates = [row[0] for row in rows]
        if exclude is not None:
            candidates = [suid for suid in candidates if suid != exclude]
        return candidates[: self.max_routes]

    # -- answering ----------------------------------------------------------

    def answer(
        self,
        question_id: int,
        author_id: Optional[int],
        text: str,
        day: Optional[datetime.date] = None,
    ) -> Answer:
        if not text or not text.strip():
            raise CourseRankError("answer text must be non-empty")
        if self.database.table("Questions").lookup_pk((question_id,)) is None:
            raise CourseRankError(f"unknown question {question_id}")
        answers = self.database.table("Answers")
        answer_id = answers.next_id()
        day = day or datetime.date.today()
        answers.insert([answer_id, question_id, author_id, text, day, False])
        return Answer(
            answer_id=answer_id,
            question_id=question_id,
            author_id=author_id,
            text=text,
            answer_date=day,
        )

    def mark_best(self, question_id: int, answer_id: int, by_suid: int) -> None:
        """The asker selects the best answer (one per question)."""
        question = self.database.table("Questions").lookup_pk((question_id,))
        if question is None:
            raise CourseRankError(f"unknown question {question_id}")
        if question[1] != by_suid:
            raise CourseRankError("only the asker may select the best answer")
        answers = self.database.table("Answers")
        target = answers.lookup_pk((answer_id,))
        if target is None or target[1] != question_id:
            raise CourseRankError(
                f"answer {answer_id} does not belong to question {question_id}"
            )
        answers.update_where(
            lambda row: row[1] == question_id,
            lambda row: (
                row[0],
                row[1],
                row[2],
                row[3],
                row[4],
                row[0] == answer_id,
            ),
        )

    # -- seeding -----------------------------------------------------------

    def seed_faq(
        self,
        entries: Sequence[Tuple[str, str]],
        dep_id: Optional[int] = None,
        day: Optional[datetime.date] = None,
    ) -> List[int]:
        """Seed official Q&A pairs ("who do I see to have my program
        approved?") so the forum has a useful body of content."""
        question_ids = []
        for question_text, answer_text in entries:
            question = self.ask(
                asker_id=None,
                text=question_text,
                dep_id=dep_id,
                day=day,
                official=True,
            )
            posted = self.answer(
                question.question_id, author_id=None, text=answer_text, day=day
            )
            # Official answers are pre-marked best.
            self.database.table("Answers").update_where(
                lambda row: row[0] == posted.answer_id,
                lambda row: (row[0], row[1], row[2], row[3], row[4], True),
            )
            question_ids.append(question.question_id)
        return question_ids

    # -- reading ----------------------------------------------------------------

    def answers_for(self, question_id: int) -> List[Answer]:
        rows = self.database.query(
            "SELECT AnswerID, QuestionID, AuthorID, Text, AnswerDate, Best "
            "FROM Answers WHERE QuestionID = ? "
            "ORDER BY Best DESC, AnswerID ASC",
            (question_id,),
        ).rows
        return [
            Answer(
                answer_id=row[0],
                question_id=row[1],
                author_id=row[2],
                text=row[3],
                answer_date=row[4],
                best=row[5],
            )
            for row in rows
        ]

    def routed_to(self, suid: int) -> List[int]:
        """Question ids routed to a student (their inbox)."""
        return self.database.query(
            "SELECT QuestionID FROM QuestionRoutes WHERE SuID = ? "
            "ORDER BY QuestionID",
            (suid,),
        ).column("QuestionID")

    def unanswered(self) -> List[int]:
        """Questions with no answers yet (the cold-start problem)."""
        return self.database.query(
            "SELECT q.QuestionID FROM Questions q "
            "LEFT JOIN Answers a ON a.QuestionID = q.QuestionID "
            "WHERE a.AnswerID IS NULL ORDER BY q.QuestionID"
        ).column("QuestionID")

    def stats(self) -> dict:
        questions = self.database.query(
            "SELECT COUNT(*) FROM Questions"
        ).scalar()
        answers = self.database.query("SELECT COUNT(*) FROM Answers").scalar()
        official = self.database.query(
            "SELECT COUNT(*) FROM Questions WHERE Official"
        ).scalar()
        return {
            "questions": questions,
            "answers": answers,
            "official_seeded": official,
            "unanswered": len(self.unanswered()),
        }
