"""The CourseRank relational schema.

The core relations follow Section 3.2 of the paper verbatim::

    Courses(CourseID, DepID, Title, Description, Units, Url)
    Students(SuID, Name, Class, GPA)
    Comments(SuID, CourseID, Year, Term, Text, Rating, Date)

extended with the relations the rest of the paper describes: instructors
and teaching assignments, offerings with meeting times (the Planner's
conflict checks), prerequisites, textbooks (volunteer-reported), official
grade distributions (released per-school), enrollments with self-reported
grades, four-year plans with a sharing opt-out, comment helpfulness
votes, the Q&A forum, the incentive-point ledger, and program
requirements.
"""

from __future__ import annotations

from repro.minidb.catalog import Database

#: academic terms in order within a year
TERMS = ("Aut", "Win", "Spr", "Sum")

#: grade buckets used by official and self-reported distributions
GRADE_BUCKETS = ("A", "B", "C", "D", "F")

#: letter grade → grade points (coarse 5-bucket scale)
GRADE_POINTS = {"A": 4.0, "B": 3.0, "C": 2.0, "D": 1.0, "F": 0.0}

_DDL = """
CREATE TABLE Departments (
  DepID INTEGER PRIMARY KEY,
  Name TEXT NOT NULL,
  School TEXT,
  ReleasesOfficialGrades BOOLEAN
);

CREATE TABLE Courses (
  CourseID INTEGER PRIMARY KEY,
  DepID INTEGER NOT NULL,
  Title TEXT NOT NULL,
  Description TEXT,
  Units INTEGER,
  Url TEXT,
  FOREIGN KEY (DepID) REFERENCES Departments (DepID)
);

CREATE TABLE Instructors (
  InstructorID INTEGER PRIMARY KEY,
  Name TEXT NOT NULL,
  DepID INTEGER,
  FOREIGN KEY (DepID) REFERENCES Departments (DepID)
);

CREATE TABLE Teaches (
  InstructorID INTEGER,
  CourseID INTEGER,
  PRIMARY KEY (InstructorID, CourseID),
  FOREIGN KEY (InstructorID) REFERENCES Instructors (InstructorID),
  FOREIGN KEY (CourseID) REFERENCES Courses (CourseID)
);

CREATE TABLE Offerings (
  CourseID INTEGER,
  Year INTEGER,
  Term TEXT,
  Days TEXT,
  StartMinute INTEGER,
  EndMinute INTEGER,
  PRIMARY KEY (CourseID, Year, Term),
  FOREIGN KEY (CourseID) REFERENCES Courses (CourseID)
);

CREATE TABLE Prerequisites (
  CourseID INTEGER,
  PrereqID INTEGER,
  PRIMARY KEY (CourseID, PrereqID),
  FOREIGN KEY (CourseID) REFERENCES Courses (CourseID),
  FOREIGN KEY (PrereqID) REFERENCES Courses (CourseID)
);

CREATE TABLE Textbooks (
  TextbookID INTEGER PRIMARY KEY,
  Title TEXT NOT NULL,
  Author TEXT
);

CREATE TABLE CourseTextbooks (
  CourseID INTEGER,
  TextbookID INTEGER,
  ReportedBy INTEGER,
  PRIMARY KEY (CourseID, TextbookID),
  FOREIGN KEY (CourseID) REFERENCES Courses (CourseID),
  FOREIGN KEY (TextbookID) REFERENCES Textbooks (TextbookID)
);

CREATE TABLE Students (
  SuID INTEGER PRIMARY KEY,
  Name TEXT NOT NULL,
  Class INTEGER,
  Major TEXT,
  GPA FLOAT
);

CREATE TABLE Users (
  UserID INTEGER PRIMARY KEY,
  Username TEXT NOT NULL,
  Role TEXT NOT NULL,
  PersonID INTEGER,
  UNIQUE (Username)
);

CREATE TABLE Enrollments (
  SuID INTEGER,
  CourseID INTEGER,
  Year INTEGER,
  Term TEXT,
  Grade TEXT,
  PRIMARY KEY (SuID, CourseID),
  FOREIGN KEY (SuID) REFERENCES Students (SuID),
  FOREIGN KEY (CourseID) REFERENCES Courses (CourseID)
);

CREATE TABLE Plans (
  SuID INTEGER,
  CourseID INTEGER,
  Year INTEGER,
  Term TEXT,
  Shared BOOLEAN,
  PRIMARY KEY (SuID, CourseID),
  FOREIGN KEY (SuID) REFERENCES Students (SuID),
  FOREIGN KEY (CourseID) REFERENCES Courses (CourseID)
);

CREATE TABLE Comments (
  SuID INTEGER,
  CourseID INTEGER,
  Year INTEGER,
  Term TEXT,
  Text TEXT,
  Rating FLOAT,
  CommentDate DATE,
  PRIMARY KEY (SuID, CourseID),
  FOREIGN KEY (SuID) REFERENCES Students (SuID),
  FOREIGN KEY (CourseID) REFERENCES Courses (CourseID)
);

CREATE TABLE CommentVotes (
  VoterID INTEGER,
  SuID INTEGER,
  CourseID INTEGER,
  Helpful BOOLEAN,
  PRIMARY KEY (VoterID, SuID, CourseID),
  FOREIGN KEY (VoterID) REFERENCES Students (SuID)
);

CREATE TABLE FacultyNotes (
  NoteID INTEGER PRIMARY KEY,
  CourseID INTEGER,
  InstructorID INTEGER,
  Text TEXT,
  NoteDate DATE,
  FOREIGN KEY (CourseID) REFERENCES Courses (CourseID),
  FOREIGN KEY (InstructorID) REFERENCES Instructors (InstructorID)
);

CREATE TABLE OfficialGrades (
  CourseID INTEGER,
  Year INTEGER,
  Bucket TEXT,
  GradeCount INTEGER,
  PRIMARY KEY (CourseID, Year, Bucket),
  FOREIGN KEY (CourseID) REFERENCES Courses (CourseID)
);

CREATE TABLE Requirements (
  ReqID INTEGER PRIMARY KEY,
  DepID INTEGER,
  Name TEXT NOT NULL,
  Rule TEXT NOT NULL,
  FOREIGN KEY (DepID) REFERENCES Departments (DepID)
);

CREATE TABLE Questions (
  QuestionID INTEGER PRIMARY KEY,
  AskerID INTEGER,
  CourseID INTEGER,
  DepID INTEGER,
  Text TEXT NOT NULL,
  AskDate DATE,
  Official BOOLEAN
);

CREATE TABLE Answers (
  AnswerID INTEGER PRIMARY KEY,
  QuestionID INTEGER,
  AuthorID INTEGER,
  Text TEXT NOT NULL,
  AnswerDate DATE,
  Best BOOLEAN,
  FOREIGN KEY (QuestionID) REFERENCES Questions (QuestionID)
);

CREATE TABLE QuestionRoutes (
  QuestionID INTEGER,
  SuID INTEGER,
  PRIMARY KEY (QuestionID, SuID),
  FOREIGN KEY (QuestionID) REFERENCES Questions (QuestionID),
  FOREIGN KEY (SuID) REFERENCES Students (SuID)
);

CREATE TABLE PointsLedger (
  EntryID INTEGER PRIMARY KEY,
  UserID INTEGER,
  Action TEXT NOT NULL,
  Points INTEGER NOT NULL,
  AwardDate DATE,
  FOREIGN KEY (UserID) REFERENCES Users (UserID)
);
"""

_INDEXES = """
CREATE INDEX idx_courses_dep ON Courses (DepID);
CREATE INDEX idx_enroll_course ON Enrollments (CourseID);
CREATE INDEX idx_enroll_student ON Enrollments (SuID);
CREATE INDEX idx_comments_course ON Comments (CourseID);
CREATE INDEX idx_comments_student ON Comments (SuID);
CREATE INDEX idx_votes_course ON CommentVotes (CourseID);
CREATE INDEX idx_plans_course ON Plans (CourseID);
CREATE INDEX idx_plans_student ON Plans (SuID);
CREATE INDEX idx_offerings_course ON Offerings (CourseID);
CREATE INDEX idx_teaches_course ON Teaches (CourseID);
CREATE INDEX idx_prereq_course ON Prerequisites (CourseID);
CREATE INDEX idx_textbooks_course ON CourseTextbooks (CourseID);
CREATE INDEX idx_official_course ON OfficialGrades (CourseID);
CREATE INDEX idx_answers_question ON Answers (QuestionID);
CREATE INDEX idx_points_user ON PointsLedger (UserID);
"""


def create_schema(database: Database) -> None:
    """Create all CourseRank tables and their indexes."""
    database.execute_script(_DDL)
    database.execute_script(_INDEXES)


def new_database() -> Database:
    """A fresh Database with the CourseRank schema installed."""
    database = Database()
    create_schema(database)
    return database
