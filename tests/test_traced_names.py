"""The benchmark's tracer (perfbench/tracer.py) wraps package functions that
it looks up by name, and a traced run raises on a name that is gone.  These
tests read its TRACED list, without changing the tracer, and resolve every
name the way `Tracer.install` does, so that deleting or renaming a traced
function fails here and not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = load_tracer()


@pytest.mark.parametrize("layer, qualname", _TRACER.TRACED,
                         ids=[f"{layer}.{name}" for layer, name in _TRACER.TRACED])
def test_traced_name_resolves(layer, qualname):
    module = importlib.import_module(f"tkkwb.{layer}")
    if "." in qualname:
        # a method is wrapped on its own class, so it must be defined there
        cls_name, attr = qualname.split(".")
        assert callable(vars(getattr(module, cls_name))[_TRACER.SPECIAL.get(attr, attr)])
    else:
        assert callable(getattr(module, qualname))
