"""Every name the benchmark's tracer wraps still exists.

``bench/tracer.py`` rebinds each ``TARGETS`` function on its module and
replaces each method through its class's ``__dict__``, so a traced benchmark
run fails with a ``KeyError`` once a wrapped name is deleted. This test
fails first, and fast.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_targets_exist():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr, _span in tracer.TARGETS:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in getattr(owner, cls_name).__dict__
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(f"{module}.{attr}")
    assert not missing, f"traced names missing: {missing}"
