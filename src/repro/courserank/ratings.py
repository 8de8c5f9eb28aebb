"""Comments, ratings, and comment helpfulness votes.

Students "provide information, such as comments on courses, ratings,
questions and answers" and can "rank the accuracy of each others'
comments" (Section 2).  One comment+rating per (student, course) — the
Comments primary key — keeps rating vectors well-defined for FlexRecs.
"""

from __future__ import annotations

import datetime
from typing import Dict, List, Optional, Tuple

from repro.errors import CourseRankError
from repro.courserank.models import Comment
from repro.minidb.catalog import Database

MIN_RATING = 1.0
MAX_RATING = 5.0


class RatingsService:
    """Write and read comments/ratings with validation."""

    def __init__(self, database: Database) -> None:
        self.database = database

    # -- writes ---------------------------------------------------------------

    def add_comment(
        self,
        suid: int,
        course_id: int,
        text: Optional[str],
        rating: Optional[float],
        year: Optional[int] = None,
        term: Optional[str] = None,
        day: Optional[datetime.date] = None,
    ) -> Comment:
        """Add (or replace) a student's comment+rating on a course."""
        if text is None and rating is None:
            raise CourseRankError("a comment needs text, a rating, or both")
        if rating is not None and not (MIN_RATING <= rating <= MAX_RATING):
            raise CourseRankError(
                f"rating must be between {MIN_RATING} and {MAX_RATING}"
            )
        table = self.database.table("Comments")
        day = day or datetime.date.today()
        row = [suid, course_id, year, term, text, rating, day]
        if not table.update_pk((suid, course_id), row):
            table.insert(row)
        return Comment(
            suid=suid,
            course_id=course_id,
            year=year,
            term=term,
            text=text,
            rating=rating,
            comment_date=day,
        )

    def vote_comment(
        self, voter_suid: int, author_suid: int, course_id: int, helpful: bool
    ) -> None:
        """Record a helpfulness vote; re-voting replaces the old vote."""
        if voter_suid == author_suid:
            raise CourseRankError("students cannot vote on their own comments")
        comments = self.database.table("Comments")
        if comments.lookup_pk((author_suid, course_id)) is None:
            raise CourseRankError(
                f"no comment by student {author_suid} on course {course_id}"
            )
        votes = self.database.table("CommentVotes")
        row = [voter_suid, author_suid, course_id, helpful]
        if not votes.update_pk((voter_suid, author_suid, course_id), row):
            votes.insert(row)

    def delete_comment(self, suid: int, course_id: int) -> bool:
        """Remove a comment and its votes; True if one existed."""
        votes = self.database.table("CommentVotes")
        votes.delete_where(lambda r: r[1] == suid and r[2] == course_id)
        removed = self.database.table("Comments").delete_where(
            lambda r: r[0] == suid and r[1] == course_id
        )
        return removed > 0

    # -- reads --------------------------------------------------------------

    def comments_for_course(
        self, course_id: int, order_by_helpfulness: bool = True
    ) -> List[Comment]:
        """All comments on a course, with vote tallies folded in."""
        result = self.database.query(
            "SELECT SuID, CourseID, Year, Term, Text, Rating, CommentDate "
            "FROM Comments WHERE CourseID = ?",
            (course_id,),
        )
        tallies = self._vote_tallies(course_id)
        comments = []
        for suid, cid, year, term, text, rating, day in result.rows:
            helpful, unhelpful = tallies.get(suid, (0, 0))
            comments.append(
                Comment(
                    suid=suid,
                    course_id=cid,
                    year=year,
                    term=term,
                    text=text,
                    rating=rating,
                    comment_date=day,
                    helpful_votes=helpful,
                    unhelpful_votes=unhelpful,
                )
            )
        if order_by_helpfulness:
            comments.sort(key=lambda c: (-c.helpfulness, -(c.rating or 0), c.suid))
        return comments

    def _vote_tallies(self, course_id: int) -> Dict[int, Tuple[int, int]]:
        result = self.database.query(
            "SELECT SuID, "
            "SUM(CASE WHEN Helpful THEN 1 ELSE 0 END) AS up, "
            "SUM(CASE WHEN Helpful THEN 0 ELSE 1 END) AS down "
            "FROM CommentVotes WHERE CourseID = ? GROUP BY SuID",
            (course_id,),
        )
        return {row[0]: (int(row[1] or 0), int(row[2] or 0)) for row in result.rows}

    def average_rating(self, course_id: int) -> Optional[float]:
        return self.database.query(
            "SELECT AVG(Rating) FROM Comments WHERE CourseID = ?",
            (course_id,),
        ).scalar()

    def rating_count(self, course_id: int) -> int:
        return self.database.query(
            "SELECT COUNT(Rating) FROM Comments WHERE CourseID = ?",
            (course_id,),
        ).scalar()

    def top_rated_courses(
        self, limit: int = 10, min_ratings: int = 3
    ) -> List[Tuple[int, float, int]]:
        """[(course_id, avg_rating, n)], requiring a minimum sample."""
        result = self.database.query(
            "SELECT CourseID, AVG(Rating) AS avg_r, COUNT(Rating) AS n "
            "FROM Comments WHERE Rating IS NOT NULL GROUP BY CourseID "
            "HAVING COUNT(Rating) >= ? "
            f"ORDER BY avg_r DESC, CourseID ASC LIMIT {int(limit)}",
            (min_ratings,),
        )
        return [(row[0], row[1], row[2]) for row in result.rows]
