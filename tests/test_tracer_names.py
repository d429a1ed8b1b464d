"""The benchmark's span tracer names only functions that gridzeta still has.

`Tracer.install` looks every traced name up when a traced run starts and
fails on the first one that is missing, so a rename in gridzeta would break
`perfbench/run.py --trace 1`.  The tracer is loaded from its file, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module_name, attr, span", _traced())
def test_traced_name_resolves(module_name, attr, span):
    module = importlib.import_module(f"gridzeta.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name)), f"{span}: {attr} is not in the class dict"
    else:
        assert callable(getattr(module, attr, None)), f"{span}: gridzeta.{module_name}.{attr} is missing"
