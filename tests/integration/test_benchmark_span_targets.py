"""Every callable the end-to-end benchmark wraps in a span still exists.

``benchmarks/e2e/spans.py`` patches ``TARGETS`` by attribute replacement,
looking each method up in its class's own ``__dict__``; a renamed or
deleted target would only show up when a traced benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("e2e_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [
        (module_name, class_name, attribute)
        for _layer, module_name, class_name, attributes in module.TARGETS
        for attribute in attributes
    ]


@pytest.mark.parametrize("module_name, class_name, attribute", load_targets())
def test_span_target_resolves(module_name, class_name, attribute):
    module = importlib.import_module(module_name)
    if class_name is None:
        assert callable(getattr(module, attribute, None))
    else:
        assert attribute in vars(getattr(module, class_name))
