#!/usr/bin/env python3
"""Repeatability harness: is every end-to-end metric steady enough to gate on?

    python3 benchmarks/e2e/repeat.py --runs 10

Runs each workload of ``BENCHMARK.json`` in fresh subprocesses as two
interleaved sets (A, B, A, B, ...), every run with a different ``--seed``,
exactly as the acceptance driver does.  For each metric it prints both
sets' medians, each set's spread (interquartile range over the median,
``statistics.quantiles(values, n=4)``) and the gap by which set B's median
is *worse* than set A's, next to the declared bound.  A metric is steady
when both spreads stay under its bound (ideally under a third of it) and
the gap does too.  The table is committed as ``out/repeatability.txt``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_once(contract: Dict, workload: str, seed: int) -> Dict[str, float]:
    command = contract["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(contract["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=180
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {
        name: entry["value"] for name, entry in result["metrics"].items()
    }


def spread(values: List[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set (two sets per workload)")
    parser.add_argument("--workload", action="append",
                        help="only these workloads (default: all)")
    parser.add_argument("--output", type=Path,
                        default=HERE / "out" / "repeatability.txt")
    args = parser.parse_args()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in contract["workloads"]]

    lines = [
        f"# repeat.py --runs {args.runs}: two interleaved sets of "
        f"{args.runs} runs, a different seed per run, "
        f"--seconds {contract['run_seconds']}",
        "# spread = (Q3 - Q1) / median within a set; gap = how much worse "
        "set B's median is than set A's",
        f"{'workload':<22} {'metric':<12} {'unit':<4} {'median A':>11} "
        f"{'median B':>11} {'spread A':>9} {'spread B':>9} {'gap':>8} "
        f"{'bound':>6}  verdict",
    ]
    steady = True
    for workload in names:
        sets: List[List[Dict[str, float]]] = [[], []]
        for index in range(args.runs):
            for which in (0, 1):
                seed = 1 + index + which * args.runs
                sets[which].append(run_once(contract, workload, seed))
                print(f"{workload} set {'AB'[which]} seed {seed} done",
                      file=sys.stderr)
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a = [run[name] for run in sets[0]]
            b = [run[name] for run in sets[1]]
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse = (median_b - median_a) / median_a
            if metric["better"] == "higher":
                worse = -worse
            spreads = (spread(a), spread(b))
            # The driver exempts setup_s from the spread test, not the gap.
            within = worse <= metric["bound"] and (
                name == "setup_s" or max(spreads) <= metric["bound"]
            )
            steady = steady and within
            lines.append(
                f"{workload:<22} {name:<12} {metric['unit']:<4} "
                f"{median_a:>11.4f} {median_b:>11.4f} {spreads[0]:>9.4f} "
                f"{spreads[1]:>9.4f} {worse:>+8.4f} {metric['bound']:>6.2f}  "
                f"{'ok' if within else 'NOISY'}"
            )
    text = "\n".join(lines) + "\n"
    print(text, end="")
    args.output.parent.mkdir(exist_ok=True)
    args.output.write_text(text)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
