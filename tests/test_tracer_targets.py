"""Every function the benchmark's tracer wraps still exists under its name.

``bench/tracer.py`` is loaded from its file, read only; a name renamed or
moved in ``src/gnar`` fails here rather than only in a traced benchmark run.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("tracer_under_test", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = []
    for module_name, attr, _ in tracer.TARGETS:
        module = importlib.import_module(f"gnar.{module_name}")
        try:
            target = functools.reduce(getattr, attr.split("."), module)
        except AttributeError:
            missing.append(f"gnar.{module_name}.{attr}")
            continue
        assert callable(target), f"gnar.{module_name}.{attr}"
    assert missing == []
