"""Command-line fuzz entry point: ``python -m repro.testkit``.

Runs the differential fuzzer (and optionally the churn driver) with a
configurable budget.  Any failing case is shrunk and written to
``--artifacts`` as a corpus seed + standalone repro script, so a nightly
CI job can upload the minimized failure for a human (or the next run) to
replay.  Exits nonzero on any divergence.
"""

from __future__ import annotations

import argparse
import sys

from repro.testkit.churn import ChurnDriver
from repro.testkit.minimize import Shrinker, write_repro
from repro.testkit.oracle import case_fails, run_differential


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testkit",
        description="Differential + metamorphic fuzz run against sqlite3.",
    )
    parser.add_argument(
        "--ops", type=int, default=2000,
        help="minimum generated query executions to compare (default 2000)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base generator seed (cases use seed, seed+1, ...)",
    )
    parser.add_argument(
        "--artifacts", default="fuzz-artifacts",
        help="directory for shrunk failing seeds + repro scripts",
    )
    parser.add_argument(
        "--churn-seeds", type=int, default=4,
        help="number of metamorphic churn runs (0 disables)",
    )
    parser.add_argument(
        "--churn-steps", type=int, default=32,
        help="mutations per churn run",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="write failing cases without delta-debugging them first",
    )
    args = parser.parse_args(argv)

    failed = False
    report = run_differential(min_query_ops=args.ops, base_seed=args.seed)
    print(
        f"differential: {report.cases} cases, {report.query_ops} query ops, "
        f"{report.error_ops} error ops, {len(report.failures)} failing"
    )
    fails = case_fails()
    for failure in report.failures:
        failed = True
        case = failure.case
        if not args.no_shrink:
            case = Shrinker(fails).shrink(case)
        paths = write_repro(
            case,
            args.artifacts,
            f"fuzz_seed_{failure.seed}",
            note=failure.report.divergences[0]
            if failure.report.divergences else "",
        )
        print(f"  seed {failure.seed}: shrunk to {len(case.tables)} "
              f"table(s), {case.total_rows} row(s), {len(case.ops)} op(s)")
        print(f"  wrote {paths['seed']} and {paths['script']}")
        for line in failure.report.divergences[:3]:
            print(f"    {line}")
    if report.error_ops:
        # Both-engine errors are not divergences, but a nonzero rate means
        # the generator is wasting budget on invalid SQL — flag it.
        print(f"  warning: {report.error_ops} op(s) errored on both engines")

    for index in range(args.churn_seeds):
        churn = ChurnDriver(
            seed=args.seed + index, steps=args.churn_steps
        ).run()
        status = "ok" if churn.ok else "FAIL"
        print(
            f"churn[{index}]: {status} steps={churn.steps} "
            f"checks={churn.checks} coverage={churn.coverage}"
        )
        for line in churn.failures[:5]:
            failed = True
            print(f"    {line}")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
