"""Which functions of ``repro`` does some traffic reach?

    python -m repro.testkit.reach "python -m pytest -x -q" \\
        "python examples/quickstart.py" ...

Each argument is one shell command, run from the current directory with
``src`` on ``PYTHONPATH`` and a temporary ``sitecustomize`` ahead of it,
so every Python process the commands start (subprocesses included)
records the calls into ``repro`` (call events only, through
``sys.settrace``).  Then every ``def`` under ``src/repro`` is reported
per file as *never called*, or as *test only* when every call into it
came from ``tests/`` or from other test-only code.  Abstract methods and
``@overload`` stubs are skipped.  The never-called list should be empty:
``ALLOWLIST`` names the functions kept although only their own tests
reach them, with the reason, and the report marks them.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1]
ROOT = PACKAGE.parents[1]

_EXPLAIN = "Workflow.explain() names this operator"
_TRACKER = "the paper's requirement tracker (Sections 2, 2.1)"

#: ``(module:qualified name, reason)`` of functions that nothing but their
#: own tests reaches, kept on purpose.
ALLOWLIST = (
    ("repro.core.compiler:_Compiler._compile_join",
     "the FlexRecs Join operator on the compiled-SQL path"),
    ("repro.core.library:LevenshteinSimilarity.__init__",
     "a FlexRecs library comparator (edit distance)"),
    ("repro.core.library:LevenshteinSimilarity.score",
     "a FlexRecs library comparator (edit distance)"),
    ("repro.core.library:LevenshteinSimilarity.pair_function",
     "a FlexRecs library comparator (edit distance)"),
    ("repro.core.operators:SqlSource.describe", _EXPLAIN),
    ("repro.core.operators:MaterializedSource.describe", _EXPLAIN),
    ("repro.core.operators:Project.describe", _EXPLAIN),
    ("repro.core.operators:Join.describe", _EXPLAIN),
    ("repro.core.operators:GraphRecommend.describe", _EXPLAIN),
    ("repro.courserank.models:RequirementStatus.__bool__", _TRACKER),
    ("repro.courserank.requirements:UnitsAmong.gaps", _TRACKER),
    ("repro.courserank.requirements:UnitsAmong.helpful_courses", _TRACKER),
    ("repro.courserank.requirements:And.gaps", _TRACKER),
    ("repro.courserank.requirements:And.helpful_courses", _TRACKER),
    ("repro.courserank.requirements:And.helpful_departments", _TRACKER),
    ("repro.courserank.requirements:Or.helpful_courses", _TRACKER),
    ("repro.courserank.requirements:Or.helpful_departments", _TRACKER),
    ("repro.graphrank.engine:GraphRankEngine.rank",
     "benchmarks/e2e/spans.py wraps it by name"),
    ("repro.minidb.expressions:Expression.__repr__",
     "hypothesis prints a falsifying expression through it"),
    ("repro.minidb.planner:SingleRowNode.describe",
     "EXPLAIN of a SELECT without FROM"),
)

_HOOK = '''\
import atexit, os, sys, threading
_inside, _edges = {{}}, set()
def _hook(frame, event, arg):
    code = frame.f_code
    mine = _inside.get(code)
    if mine is None:
        mine = _inside[code] = os.path.abspath(code.co_filename).startswith({package!r})
    if mine:
        _edges.add((frame.f_back and frame.f_back.f_code, code))
def _where(code):
    path = os.path.abspath(code.co_filename) if code else ""
    if path.startswith({package!r}):
        return f"{{path}}:{{code.co_firstlineno}}"
    return "test" if path.startswith({tests!r}) else "-"
def _dump():
    sys.settrace(None)
    with open(os.path.join({out!r}, f"{{os.getpid()}}.txt"), "a") as out:
        out.writelines(f"{{_where(a)}}\\t{{_where(b)}}\\n" for a, b in list(_edges))
atexit.register(_dump)
sys.settrace(_hook)
threading.settrace(_hook)
'''


def trace(commands) -> tuple:
    """Run ``commands``; return ``({callee: {callers}}, failed commands)``."""
    callers, failed = defaultdict(set), []
    with tempfile.TemporaryDirectory() as tmp:
        hook = Path(tmp, "sitecustomize.py")
        hook.write_text(_HOOK.format(
            package=str(PACKAGE), tests=str(ROOT / "tests") + os.sep, out=tmp))
        path = os.pathsep.join(
            filter(None, [tmp, str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        for command in commands:
            if subprocess.run(command, shell=True, env=env).returncode:
                failed.append(command)
        for dump in Path(tmp).glob("[0-9]*.txt"):
            for line in dump.read_text().splitlines():
                caller, callee = line.split("\t")
                callers[callee].add(caller)
    return callers, failed


def functions():
    """Yield ``(path, first line, last line, module:qualified name)`` per def."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        yield from _defs(path, module, ast.parse(path.read_text()).body, [])


def _defs(path, module, body, scope):
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _defs(path, module, node.body, scope + [node.name])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            marks = {ast.unparse(d).rsplit(".", 1)[-1] for d in node.decorator_list}
            if not marks & {"abstractmethod", "overload"}:
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                name = ".".join(scope + [node.name])
                yield path, first, node.end_lineno, f"{module}:{name}"
            yield from _defs(path, module, node.body, scope + [node.name, "<locals>"])


def classify(callers):
    """``(never called, test only)`` lists of ``functions()`` entries."""
    program, frontier = set(), [c for c, by in callers.items() if "-" in by]
    called_by = defaultdict(set)
    for callee, by in callers.items():
        for caller in by:
            called_by[caller].add(callee)
    while frontier:
        code = frontier.pop()
        if code not in program:
            program.add(code)
            frontier.extend(called_by[code])
    never, test_only, inside = [], [], []
    for entry in functions():
        path, first, last, _ = entry
        if any(p == path and a <= first and last <= b for p, a, b in inside):
            continue  # nested in a function already listed
        key = f"{path}:{first}"
        if key not in program:
            (test_only if key in callers else never).append(entry)
            inside.append((path, first, last))
    return never, test_only


def report(title, entries, allowed) -> None:
    lines = sum(last - first + 1 for _, first, last, _ in entries)
    print(f"{title}: {len(entries)} functions, {lines} lines")
    by_file = defaultdict(list)
    for path, first, last, name in entries:
        by_file[path.relative_to(ROOT)].append((first, last, name))
    for path, rows in sorted(by_file.items()):
        print(f"  {path}")
        for first, last, name in rows:
            mark = "  [allowlisted]" if name in allowed else ""
            print(f"    {first:5d} {last - first + 1:4d}  {name.split(':')[1]}{mark}")


def main(argv=None) -> int:
    commands = sys.argv[1:] if argv is None else argv
    if not commands:
        print(__doc__, file=sys.stderr)
        return 2
    callers, failed = trace(commands)
    never, test_only = classify(callers)
    allowed = dict(ALLOWLIST)
    report("never called", never, allowed)
    report("test only", test_only, allowed)
    left = [name for *_, name in never if name not in allowed]
    print(f"never called and not allowlisted: {len(left)}")
    for command in failed:
        print(f"command failed: {command}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
