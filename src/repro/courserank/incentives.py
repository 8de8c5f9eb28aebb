"""The incentive-point scheme.

Section 2.2 ("Meaningful Incentives") describes Yahoo! Answers' scoring
scheme — best answer 10 points, daily login 1 point, voting for what
becomes the best answer 1 point — and argues points alone don't make
users contribute *sensibly*; CourseRank's real incentive is useful tools.
We implement the ledger anyway (it's part of the system the paper
sketches) with a Y!-Answers-style schedule extended to CourseRank
actions, plus the audit queries the L1 experiment uses.
"""

from __future__ import annotations

import datetime
from typing import Dict, List, Optional, Tuple

from repro.errors import CourseRankError
from repro.minidb.catalog import Database

#: points awarded per action (Yahoo! Answers-inspired, Section 2.2)
POINT_SCHEDULE: Dict[str, int] = {
    "daily_login": 1,
    "ask_question": 2,
    "answer_question": 3,
    "best_answer": 10,
    "vote_for_best_answer": 1,
    "comment": 5,
    "rate_course": 1,
    "report_textbook": 2,
    "enter_courses": 3,
    "share_plan": 1,
}


class IncentiveLedger:
    """Append-only point ledger over the PointsLedger relation."""

    def __init__(self, database: Database) -> None:
        self.database = database

    def award(
        self,
        user_id: int,
        action: str,
        day: Optional[datetime.date] = None,
    ) -> int:
        """Record one action; returns the points awarded.

        ``daily_login`` is idempotent per (user, day) — logging in twice
        the same day yields one point, per the Y! Answers rule.
        """
        points = POINT_SCHEDULE.get(action)
        if points is None:
            raise CourseRankError(
                f"unknown incentive action {action!r}; "
                f"known: {sorted(POINT_SCHEDULE)}"
            )
        day = day or datetime.date.today()
        if action == "daily_login" and self._logged_in_on(user_id, day):
            return 0
        ledger = self.database.table("PointsLedger")
        ledger.insert([ledger.next_id(), user_id, action, points, day])
        return points

    def _logged_in_on(self, user_id: int, day: datetime.date) -> bool:
        result = self.database.query(
            "SELECT COUNT(*) FROM PointsLedger "
            "WHERE UserID = ? AND Action = 'daily_login' AND AwardDate = ?",
            (user_id, day),
        )
        return result.scalar() > 0

    # -- reporting -----------------------------------------------------------

    def total(self, user_id: int) -> int:
        value = self.database.query(
            "SELECT SUM(Points) FROM PointsLedger WHERE UserID = ?",
            (user_id,),
        ).scalar()
        return int(value or 0)

    def breakdown(self, user_id: int) -> Dict[str, int]:
        result = self.database.query(
            "SELECT Action, SUM(Points) AS p FROM PointsLedger "
            "WHERE UserID = ? GROUP BY Action",
            (user_id,),
        )
        return {row[0]: int(row[1]) for row in result.rows}

    def leaderboard(self, limit: int = 10) -> List[Tuple[int, int]]:
        """Top users by points: [(user_id, points), ...]."""
        result = self.database.query(
            "SELECT UserID, SUM(Points) AS p FROM PointsLedger "
            f"GROUP BY UserID ORDER BY p DESC, UserID ASC LIMIT {int(limit)}"
        )
        return [(row[0], int(row[1])) for row in result.rows]

    def action_counts(self) -> Dict[str, int]:
        """Sitewide count of each incentivized action (audit view)."""
        result = self.database.query(
            "SELECT Action, COUNT(*) AS n FROM PointsLedger GROUP BY Action"
        )
        return {row[0]: row[1] for row in result.rows}
