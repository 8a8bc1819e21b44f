"""The benchmark's tracer wraps fenkit functions by (module, name); a name
that a change deletes or renames must fail here, in the fast suite, and
not only when the benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, func_name",
                         [(module, name) for module, name, _ in _targets()])
def test_traced_name_resolves(module_name, func_name):
    module = importlib.import_module(f"fenkit.{module_name}")
    assert callable(getattr(module, func_name, None)), \
        f"fenkit.{module_name}.{func_name} is traced but does not exist"
