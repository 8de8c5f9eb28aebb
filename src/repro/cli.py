"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``      — a condensed tour (search + cloud + recommendations);
* ``generate``  — build a synthetic university and save it to a directory;
* ``stats``     — site statistics with the paper's numbers alongside;
* ``search``    — keyword search with a course cloud, optional refinement;
* ``recommend`` — run a FlexRecs strategy (any execution path);
* ``sql``       — run a SQL statement against the database (with
  ``--explain`` / ``--analyze`` to see the plan).

Every command accepts either ``--load DIR`` (a database saved by
``generate``) or ``--scale``/``--seed`` to generate one on the fly.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Optional

from repro.clouds.render import render_text
from repro.courserank.app import CourseRank
from repro.courserank.recommendations import DEFAULT_STRATEGIES
from repro.datagen import SCALES, generate_university
from repro.evalkit.reports import site_scale_report
from repro.minidb.catalog import Database
from repro.minidb.executor import ResultSet
from repro.minidb.persist import load_database, save_database


def _add_db_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        default="small",
        choices=sorted(SCALES),
        help="generation scale when not loading (default: small)",
    )
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument(
        "--load",
        metavar="DIR",
        help="load a database saved by 'generate' instead of generating",
    )


def _open_database(args: argparse.Namespace) -> Database:
    if args.load:
        return load_database(args.load)
    print(
        f"generating scale={args.scale} seed={args.seed} ...",
        file=sys.stderr,
    )
    return generate_university(scale=args.scale, seed=args.seed)


def _print_result(result: ResultSet, max_rows: int) -> None:
    print(result.pretty(max_rows=max_rows))
    print(f"({len(result)} rows)")


def cmd_demo(args: argparse.Namespace) -> int:
    app = CourseRank(_open_database(args))
    stats = app.site_statistics()
    print(
        f"university: {stats['courses']} courses, {stats['students']} "
        f"students, {stats['comments']} comments, {stats['ratings']} ratings"
    )
    result, cloud = app.search_courses(args.query)
    print(f"\nsearch {args.query!r}: {len(result)} courses")
    print(render_text(cloud, columns=4))
    for row in app.cloudsearch.resolve_courses(result, limit=5):
        print(f"  [{row['score']:.2f}] {row['Title']} ({row['Department']})")
    suid = app.db.query(
        "SELECT SuID FROM Comments WHERE Rating IS NOT NULL "
        "GROUP BY SuID HAVING COUNT(*) >= 3 ORDER BY SuID LIMIT 1"
    ).scalar()
    print(f"\ncollaborative filtering for student {suid}:")
    for row in app.recommendations.courses_for_student(suid, top_k=5).rows:
        print(f"  [{row['score']:.2f}] {row['Title']}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    database = generate_university(scale=args.scale, seed=args.seed)
    save_database(database, args.out)
    print(f"saved {args.scale} university (seed {args.seed}) to {args.out}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    app = CourseRank(_open_database(args))
    print(f"{'statistic':>14} | {'paper':>8} | {'measured':>8}")
    for row in site_scale_report(app):
        print(
            f"{row['statistic']:>14} | {row['paper']:>8} | {row['measured']:>8}"
        )
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    app = CourseRank(_open_database(args))
    session = app.search_session(args.query)
    print(f"{args.query!r}: {len(session.result)} matching courses")
    print(render_text(session.cloud, columns=4))
    for term in args.refine or []:
        step = session.refine(term)
        print(f"\nrefined with {term!r}: {len(step.result)} courses")
        print(render_text(step.cloud, columns=4))
    for row in app.cloudsearch.resolve_courses(
        session.result, limit=args.top, with_snippets=True
    ):
        print(f"  [{row['score']:.2f}] {row['Title']} ({row['Department']})")
        if row.get("snippet"):
            print(f"      {row['snippet']}")
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    app = CourseRank(_open_database(args))
    params = {}
    if args.student is not None:
        params["student_id"] = args.student
    if args.course is not None:
        params["course_id"] = args.course
    params["top_k"] = args.top
    recommendation = app.recommendations.run(
        args.strategy, path=args.path, **params
    )
    for row in recommendation.rows:
        label = row.get("Title") or row.get("Name") or row.get("Term")
        score = row.get("score")
        print(f"  [{score:.3f}] {label}")
    return 0


def cmd_sql(args: argparse.Namespace) -> int:
    database = _open_database(args)
    if args.explain:
        print(database.explain(args.statement))
        return 0
    if args.analyze:
        report = database.analyze(args.statement)
        print(report.text)
        print()
        _print_result(report.result, args.max_rows)
        return 0
    outcome = database.execute(args.statement)
    if isinstance(outcome, ResultSet):
        _print_result(outcome, args.max_rows)
    elif outcome is not None:
        print(f"{outcome} rows affected")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CourseRank reproduction (CIDR 2009) command line",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="condensed feature tour")
    _add_db_options(demo)
    demo.add_argument("--query", default="american")
    demo.set_defaults(handler=cmd_demo)

    generate = commands.add_parser(
        "generate", help="generate a university and save it"
    )
    generate.add_argument("--scale", default="small", choices=sorted(SCALES))
    generate.add_argument("--seed", type=int, default=2008)
    generate.add_argument("--out", required=True, metavar="DIR")
    generate.set_defaults(handler=cmd_generate)

    stats = commands.add_parser("stats", help="site statistics vs the paper")
    _add_db_options(stats)
    stats.set_defaults(handler=cmd_stats)

    search = commands.add_parser("search", help="search with a course cloud")
    _add_db_options(search)
    search.add_argument("query")
    search.add_argument(
        "--refine", action="append", metavar="TERM",
        help="click a cloud term (repeatable)",
    )
    search.add_argument("--top", type=int, default=10)
    search.set_defaults(handler=cmd_search)

    recommend = commands.add_parser("recommend", help="run a FlexRecs strategy")
    _add_db_options(recommend)
    recommend.add_argument("--strategy", default="collaborative_filtering")
    recommend.add_argument("--student", type=int)
    recommend.add_argument("--course", type=int)
    recommend.add_argument("--top", type=int, default=10)
    recommend.add_argument(
        "--path", choices=("direct", "sql", "staged"), default="direct"
    )
    recommend.set_defaults(handler=cmd_recommend)

    sql = commands.add_parser("sql", help="run a SQL statement")
    _add_db_options(sql)
    sql.add_argument("statement")
    sql.add_argument("--explain", action="store_true")
    sql.add_argument("--analyze", action="store_true")
    sql.add_argument("--max-rows", type=int, default=20)
    sql.set_defaults(handler=cmd_sql)

    return parser


#: the ``recommend`` flag that supplies each strategy parameter
_STRATEGY_FLAGS = {"student_id": "student", "course_id": "course"}


def _missing_strategy_flag(args: argparse.Namespace) -> Optional[str]:
    """The flag a ``recommend`` strategy requires but was not given."""
    factory = DEFAULT_STRATEGIES.get(args.strategy)
    parameters = inspect.signature(factory).parameters if factory else {}
    for name, flag in _STRATEGY_FLAGS.items():
        parameter = parameters.get(name)
        required = parameter is not None and parameter.default is parameter.empty
        if required and getattr(args, flag) is None:
            return f"--{flag}"
    return None


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "recommend":
        missing = _missing_strategy_flag(args)
        if missing:
            parser.error(f"strategy {args.strategy!r} needs {missing}")
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
