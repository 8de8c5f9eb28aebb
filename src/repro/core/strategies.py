"""Prebuilt recommendation strategies over the CourseRank schema.

These are the workflows of the paper's Figure 5 plus the variants the
text motivates ("recommendations based on people with similar grades",
"recommended majors", "recommended quarters in which to take a course").
Each function returns a :class:`~repro.core.workflow.Workflow` that runs
on both execution paths.

The CourseRank schema relations referenced here (see
:mod:`repro.courserank.schema`)::

    Courses(CourseID, DepID, Title, Description, Units, Url)
    Students(SuID, Name, Class, Major, GPA)
    Comments(SuID, CourseID, Year, Term, Text, Rating, CommentDate)
    Enrollments(SuID, CourseID, Year, Term, Grade)
    Departments(DepID, Name)
    Offerings(CourseID, Year, Term)
"""

from __future__ import annotations

from typing import Optional

from repro.core.library import (
    CommonCount,
    EqualityMatch,
    InverseEuclidean,
    NumericCloseness,
    PearsonCorrelation,
    SetJaccard,
    SetOverlap,
    TextJaccard,
    VectorLookup,
)
from repro.core.operators import (
    Extend,
    GraphRecommend,
    Join,
    Operator,
    Project,
    Recommend,
    Select,
    Source,
    SqlSource,
    TopK,
    extend,
)
from repro.core.workflow import Workflow


def _students_with_ratings() -> Operator:
    """Students extended with their rating vector {CourseID: Rating}.

    This is the ε (extend) operator of Figure 5(b): "view the set of
    ratings for each student as another attribute of the student".
    """
    return extend(
        Source("Students"),
        attribute="ratings",
        source_table="Comments",
        source_key="SuID",
        key_column="SuID",
        value_column="Rating",
        map_column="CourseID",
    )


def related_courses(
    course_id: int,
    top_k: int = 10,
    offered_year: Optional[int] = None,
) -> Workflow:
    """Figure 5(a): courses with titles similar to the given course.

    ``offered_year`` reproduces the figure's "courses for 2008" filter by
    restricting targets to courses offered that year.
    """
    if offered_year is not None:
        target: Operator = SqlSource(
            "SELECT DISTINCT c.CourseID, c.DepID, c.Title, c.Description, "
            "c.Units, c.Url FROM Courses c JOIN Offerings o "
            f"ON c.CourseID = o.CourseID WHERE o.Year = {offered_year}"
        )
    else:
        target = Source("Courses")
    reference = Select(Source("Courses"), f"CourseID = {course_id}")
    root = Recommend(
        target=target,
        reference=reference,
        comparator=TextJaccard("Title", "Title"),
        target_key="CourseID",
        aggregate="max",
        score_column="score",
        top_k=top_k,
        exclude_self=("CourseID", "CourseID"),
    )
    return Workflow(root, name=f"related_courses({course_id})")


def collaborative_filtering(
    student_id: int,
    similar_students: int = 20,
    top_k: int = 10,
) -> Workflow:
    """Figure 5(b): two stacked recommend operators.

    The lower triangle finds students similar to the target student by
    the inverse Euclidean distance of their rating vectors; the upper
    triangle scores each course by the average rating those similar
    students gave it.
    """
    everyone = _students_with_ratings()
    me = Select(_students_with_ratings(), f"SuID = {student_id}")
    similar = Recommend(
        target=everyone,
        reference=me,
        comparator=InverseEuclidean("ratings", "ratings"),
        target_key="SuID",
        aggregate="max",
        score_column="sim",
        top_k=similar_students,
        exclude_self=("SuID", "SuID"),
    )
    root = Recommend(
        target=Source("Courses"),
        reference=similar,
        comparator=VectorLookup("CourseID", "ratings"),
        target_key="CourseID",
        aggregate="avg",
        score_column="score",
        top_k=top_k,
    )
    return Workflow(root, name=f"collaborative_filtering({student_id})")


def collaborative_filtering_fresh(
    student_id: int,
    similar_students: int = 20,
    top_k: int = 10,
) -> Workflow:
    """Figure 5(b) restricted to courses the student has *not* taken.

    The already-taken filter runs inside the engine (a ``NOT IN``
    subquery on the target relation) instead of post-processing — "if a
    course A has as a prerequisite a course B, then A should not be
    recommended independently" is the same in-engine filtering idea.
    """
    untaken = SqlSource(
        "SELECT CourseID, DepID, Title, Description, Units, Url "
        "FROM Courses WHERE CourseID NOT IN "
        f"(SELECT CourseID FROM Enrollments WHERE SuID = {student_id})"
    )
    me = Select(_students_with_ratings(), f"SuID = {student_id}")
    similar = Recommend(
        target=_students_with_ratings(),
        reference=me,
        comparator=InverseEuclidean("ratings", "ratings"),
        target_key="SuID",
        aggregate="max",
        score_column="sim",
        top_k=similar_students,
        exclude_self=("SuID", "SuID"),
    )
    root = Recommend(
        target=untaken,
        reference=similar,
        comparator=VectorLookup("CourseID", "ratings"),
        target_key="CourseID",
        aggregate="avg",
        score_column="score",
        top_k=top_k,
    )
    return Workflow(root, name=f"collaborative_filtering_fresh({student_id})")


def similar_grade_students(
    student_id: int,
    top_k: int = 20,
    scale: float = 0.5,
) -> Workflow:
    """Students with a GPA close to the target student's.

    The paper: "a student may want to base her recommendations on people
    with similar grades, as opposed to with similar tastes."  The
    comparator compiles to pure SQL arithmetic (no UDF needed).
    """
    reference = Select(Source("Students"), f"SuID = {student_id}")
    root = Recommend(
        target=Source("Students"),
        reference=reference,
        comparator=NumericCloseness("GPA", "GPA", scale=scale),
        target_key="SuID",
        aggregate="max",
        score_column="score",
        top_k=top_k,
        exclude_self=("SuID", "SuID"),
    )
    return Workflow(root, name=f"similar_grade_students({student_id})")


def grade_based_filtering(
    student_id: int,
    similar_students: int = 20,
    top_k: int = 10,
    scale: float = 0.5,
) -> Workflow:
    """CF variant seeded by grade-similar students instead of taste."""
    me = Select(Source("Students"), f"SuID = {student_id}")
    peers = Recommend(
        target=_students_with_ratings(),
        reference=me,
        comparator=NumericCloseness("GPA", "GPA", scale=scale),
        target_key="SuID",
        aggregate="max",
        score_column="sim",
        top_k=similar_students,
        exclude_self=("SuID", "SuID"),
    )
    root = Recommend(
        target=Source("Courses"),
        reference=peers,
        comparator=VectorLookup("CourseID", "ratings"),
        target_key="CourseID",
        aggregate="avg",
        score_column="score",
        top_k=top_k,
    )
    return Workflow(root, name=f"grade_based_filtering({student_id})")


def similar_students_pearson(
    student_id: int,
    top_k: int = 20,
) -> Workflow:
    """Taste neighbours by Pearson correlation of rating vectors."""
    me = Select(_students_with_ratings(), f"SuID = {student_id}")
    root = Recommend(
        target=_students_with_ratings(),
        reference=me,
        comparator=PearsonCorrelation("ratings", "ratings"),
        target_key="SuID",
        aggregate="max",
        score_column="score",
        top_k=top_k,
        exclude_self=("SuID", "SuID"),
    )
    return Workflow(root, name=f"similar_students_pearson({student_id})")


def recommended_majors(
    student_id: int,
    top_k: int = 5,
) -> Workflow:
    """Recommend a major from the courses a student has taken.

    "Maybe a student is not looking for a course, but is looking for a
    major that suits the courses she has taken."  Departments are scored
    by the overlap coefficient between their course set and the student's
    taken-course set.
    """
    departments = extend(
        Source("Departments"),
        attribute="dep_courses",
        source_table="Courses",
        source_key="DepID",
        key_column="DepID",
        value_column="CourseID",
    )
    me = Select(
        extend(
            Source("Students"),
            attribute="taken",
            source_table="Enrollments",
            source_key="SuID",
            key_column="SuID",
            value_column="CourseID",
        ),
        f"SuID = {student_id}",
    )
    root = Recommend(
        target=departments,
        reference=me,
        comparator=SetOverlap("dep_courses", "taken"),
        target_key="DepID",
        aggregate="max",
        score_column="score",
        top_k=top_k,
    )
    return Workflow(root, name=f"recommended_majors({student_id})")


def recommended_quarters(
    course_id: int,
    top_k: int = 4,
) -> Workflow:
    """Which quarter to take a course in, by enrollment evidence.

    "Trying to figure out what is the best quarter to take a calculus
    course this year."  Terms are scored by how many students took the
    course in that term (sum of equality matches against enrollment
    records).
    """
    terms = SqlSource("SELECT DISTINCT Term FROM Offerings")
    evidence = Select(Source("Enrollments"), f"CourseID = {course_id}")
    root = Recommend(
        target=terms,
        reference=evidence,
        comparator=EqualityMatch("Term", "Term"),
        target_key="Term",
        aggregate="sum",
        score_column="score",
        top_k=top_k,
    )
    return Workflow(root, name=f"recommended_quarters({course_id})")


def courses_taken_together(
    course_id: int,
    top_k: int = 10,
) -> Workflow:
    """Courses most often co-taken with the given course.

    A classic "people who took X also took Y", expressed as a set
    comparator: courses extended with their student sets, compared by
    intersection size to the given course's student set.
    """
    courses_with_students = extend(
        Source("Courses"),
        attribute="takers",
        source_table="Enrollments",
        source_key="CourseID",
        key_column="CourseID",
        value_column="SuID",
    )
    this_course = Select(
        extend(
            Source("Courses"),
            attribute="takers",
            source_table="Enrollments",
            source_key="CourseID",
            key_column="CourseID",
            value_column="SuID",
        ),
        f"CourseID = {course_id}",
    )
    root = Recommend(
        target=courses_with_students,
        reference=this_course,
        comparator=CommonCount("takers", "takers"),
        target_key="CourseID",
        aggregate="max",
        score_column="score",
        top_k=top_k,
        exclude_self=("CourseID", "CourseID"),
    )
    return Workflow(root, name=f"courses_taken_together({course_id})")


def similar_audience_courses(
    course_id: int,
    top_k: int = 10,
) -> Workflow:
    """Courses whose student audience best matches the given course's.

    Like :func:`courses_taken_together` but normalized: Jaccard over the
    taker sets, so giant survey courses don't dominate just by size.
    """
    courses_with_students = extend(
        Source("Courses"),
        attribute="takers",
        source_table="Enrollments",
        source_key="CourseID",
        key_column="CourseID",
        value_column="SuID",
    )
    this_course = Select(
        extend(
            Source("Courses"),
            attribute="takers",
            source_table="Enrollments",
            source_key="CourseID",
            key_column="CourseID",
            value_column="SuID",
        ),
        f"CourseID = {course_id}",
    )
    root = Recommend(
        target=courses_with_students,
        reference=this_course,
        comparator=SetJaccard("takers", "takers"),
        target_key="CourseID",
        aggregate="max",
        score_column="score",
        top_k=top_k,
        exclude_self=("CourseID", "CourseID"),
    )
    return Workflow(root, name=f"similar_audience_courses({course_id})")


def graph_rank_courses(
    student_id: int,
    top_k: int = 10,
    max_iters: int = GraphRecommend.max_iters,
) -> Workflow:
    """Courses ranked by the student's FolkRank differential.

    Seeds the preference-biased walk at the student's user node and
    reads off the baseline-subtracted course ranking — recommendations
    driven by the whole tripartite graph (enrollments, comments, course
    text) rather than one pairwise comparator.  Direct-only: the graph
    lives outside the relational algebra, so there is no SQL form.
    """
    root = GraphRecommend(
        preference=(("user", student_id),),
        top_k=top_k,
        max_iters=max_iters,
    )
    return Workflow(
        root, name=f"graph_rank_courses({student_id})", direct_only=True
    )


def similar_by_folkrank(
    course_id: int,
    top_k: int = 10,
    max_iters: int = GraphRecommend.max_iters,
) -> Workflow:
    """Courses most lifted by seeding the walk at the given course.

    The differential cancels global popularity, so the answer is "what
    this course specifically pulls up" — its graph neighborhood through
    shared students, commenters, and vocabulary.  The seed course itself
    is excluded.  Direct-only, like :func:`graph_rank_courses`.
    """
    root = GraphRecommend(
        preference=(("course", course_id),),
        top_k=top_k,
        exclude_seed=True,
        max_iters=max_iters,
    )
    return Workflow(
        root, name=f"similar_by_folkrank({course_id})", direct_only=True
    )
