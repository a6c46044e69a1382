"""The benchmark tracer wraps rwalk functions by name: every entry of
perfbench/tracing.py's TRACED must still resolve, or `perfbench/run.py
--trace 1` fails while the rest of the suite passes."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attr, _ in tracing.TRACED:
        mod = importlib.import_module(f"rwalk.{module}")
        if "." in attr:   # a method, patched in its class dict
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(mod, cls_name, object))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{module}.{attr}")
    assert not missing, f"traced names missing from rwalk: {missing}"
