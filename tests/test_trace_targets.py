"""Every entry point that perfbench/layertrace.py wraps must still be
bound somewhere in modp, so a rename fails here and not only in a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
MODULES = ("exactalg", "groupdata", "invariants", "charclass", "quillen", "cli")


def test_every_trace_target_is_bound():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    modules = {name: importlib.import_module(f"modp.{name}") for name in MODULES}
    mul = vars(modules["exactalg"].Poly)["__mul__"]
    # raises RuntimeError for a target that is not bound anywhere in modp
    tracer = layertrace.Tracer(modules)
    assert {"exactalg.mul", "exactalg.basis", "charclass.deriv", "charclass.whitney",
            "quillen.sq", "cli.cache"} <= set(tracer.layers)
    # building the tracer must not install its wrappers
    assert vars(modules["exactalg"].Poly)["__mul__"] is mul
