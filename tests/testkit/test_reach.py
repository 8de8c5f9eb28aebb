"""The reachability tracer: its allowlist resolves, and a traced run works."""

import importlib
import re
import sys

import pytest

from repro.testkit import reach


@pytest.mark.parametrize(
    "name, reason", reach.ALLOWLIST, ids=[name for name, _ in reach.ALLOWLIST]
)
def test_allowlisted_name_resolves(name, reason):
    module_name, qualified = name.split(":")
    target = importlib.import_module(module_name)
    for part in qualified.split("."):
        target = vars(target)[part]  # defined right there, not inherited
    assert callable(target)
    assert reason


def test_one_traced_command(capsys):
    command = (
        f'"{sys.executable}" -c '
        '"from repro.caching import LRUCache; LRUCache(2).put(1, 1)"'
    )
    assert reach.main([command]) == 0
    out = capsys.readouterr().out
    never, test_only = out.split("\ntest only: ")
    assert re.search(r"^ +\d+ +\d+  LRUCache\.clear$", never, re.M)
    assert not re.search(r"  LRUCache\.(put|__init__)$", out, re.M)
    assert test_only.startswith("0 functions")
    assert out.splitlines()[-1].startswith("never called and not allowlisted: ")
