"""The benchmark tracer wraps rwalk functions by name and reads fields of
their results: every entry of perfbench/tracing.py's TRACED must still
resolve, and every counter must still find what it reads, or
`perfbench/run.py --trace 1` fails while the rest of the suite passes."""

import importlib
import importlib.util
from pathlib import Path

import rwalk.cli

from conftest import FIXTURES

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    tracing = load_tracing()
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


def test_traced_commands_fill_every_counter(capsys):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    commands = [["verify", str(FIXTURES / "bernoulli_025.spec")],
                ["verify", str(FIXTURES / "z6.spec")],
                ["analyze", str(FIXTURES / "drift2d.spec")],
                ["simulate", str(FIXTURES / "drift2d.spec"), "--trajectories", "20",
                 "--horizon", "20", "--series-horizon", "20"]]
    tracer.install()
    try:
        for i, argv in enumerate(commands):
            tracer.command = i
            assert tracer.call("cli", rwalk.cli.main, argv) == 0
    finally:
        tracer.uninstall()
    counts = tracing.pass_profile(tracer.spans, set(range(len(commands))))["counts"]
    # no CLI command reaches Law.convolve
    empty = [k for k in tracing.COUNT_METRICS
             if k != "laws.convolve.pairs" and not counts.get(k)]
    assert not empty, f"counters left at zero: {empty}"
