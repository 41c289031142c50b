"""The benchmark tracer's targets must name functions the package still has."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("modname, attr, name, kind", TARGETS, ids=[t[2] for t in TARGETS])
def test_every_tracer_target_resolves(modname, attr, name, kind):
    # the tracer's install() resolves each target by name; a missing one
    # makes every traced benchmark run raise AttributeError
    obj = importlib.import_module(modname)
    if kind == "method":
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(obj, cls_name))
    else:
        assert callable(getattr(obj, attr))
