"""Comment-quality metrics ("The Power of a Closed Community").

Section 2.2: in CourseRank's closed community "we already see much higher
quality comments than what one typically finds in public course
evaluation sites or in social sites".  These metrics quantify that claim
so the L2 benchmark can compare a closed-community corpus against the
open-community simulation:

* **mean_words** — average comment length in content words;
* **lexical_diversity** — distinct words / total words over the corpus
  (spam repeats itself);
* **topical_fraction** — fraction of comments sharing at least one
  content token with their course's title or description (spam is
  off-topic);
* **rating_extremity** — fraction of ratings at the 1.0/5.0 extremes
  (drive-by raters bomb or gush);
* **rating_signal** — Pearson correlation between a course's average
  rating and its average self-reported grade points (honest ratings
  track the actual course experience; spam ratings are noise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.similarity import pearson
from repro.courserank.schema import GRADE_POINTS
from repro.minidb.catalog import Database
from repro.search.tokenizer import tokens


@dataclass
class CommentQualityReport:
    comments: int
    mean_words: float
    lexical_diversity: float
    topical_fraction: float
    rating_extremity: Optional[float]
    rating_signal: Optional[float]

    def as_dict(self) -> Dict[str, Optional[float]]:
        return {
            "comments": self.comments,
            "mean_words": round(self.mean_words, 2),
            "lexical_diversity": round(self.lexical_diversity, 4),
            "topical_fraction": round(self.topical_fraction, 4),
            "rating_extremity": (
                None
                if self.rating_extremity is None
                else round(self.rating_extremity, 4)
            ),
            "rating_signal": (
                None
                if self.rating_signal is None
                else round(self.rating_signal, 4)
            ),
        }


def comment_quality_report(database: Database) -> CommentQualityReport:
    """Compute the quality metrics over every comment in the database."""
    rows = database.query(
        "SELECT cm.Text, cm.Rating, c.Title, c.Description "
        "FROM Comments cm JOIN Courses c ON cm.CourseID = c.CourseID"
    ).rows
    total_words = 0
    vocabulary = set()
    topical = 0
    texted = 0
    extreme = 0
    rated = 0
    for text, rating, title, description in rows:
        if text:
            texted += 1
            comment_tokens = tokens(text)
            total_words += len(comment_tokens)
            vocabulary.update(comment_tokens)
            course_tokens = set(tokens(f"{title} {description or ''}"))
            if course_tokens & set(comment_tokens):
                topical += 1
        if rating is not None:
            rated += 1
            if rating <= 1.0 or rating >= 5.0:
                extreme += 1
    mean_words = total_words / texted if texted else 0.0
    diversity = len(vocabulary) / total_words if total_words else 0.0
    topical_fraction = topical / texted if texted else 0.0
    extremity = extreme / rated if rated else None
    return CommentQualityReport(
        comments=len(rows),
        mean_words=mean_words,
        lexical_diversity=diversity,
        topical_fraction=topical_fraction,
        rating_extremity=extremity,
        rating_signal=_rating_grade_correlation(database),
    )


def _rating_grade_correlation(database: Database) -> Optional[float]:
    """Pearson r between per-course average rating and average grade."""
    ratings = {
        course_id: value
        for course_id, value in database.query(
            "SELECT CourseID, AVG(Rating) FROM Comments "
            "WHERE Rating IS NOT NULL GROUP BY CourseID"
        ).rows
    }
    case = " ".join(
        f"WHEN Grade = '{bucket}' THEN {points}"
        for bucket, points in GRADE_POINTS.items()
    )
    grades = {
        course_id: value
        for course_id, value in database.query(
            f"SELECT CourseID, AVG(CASE {case} END) FROM Enrollments "
            "WHERE Grade IS NOT NULL GROUP BY CourseID"
        ).rows
    }
    return pearson(ratings, grades)
