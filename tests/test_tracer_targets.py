"""Every function the benchmark's tracer wraps still exists under its name, and takes
every argument its counter reads.

``bench/tracer.py`` is loaded from its file, read only; a name renamed or
moved in ``src/gnar`` fails here rather than only in a traced benchmark run.
"""

import ast
import functools
import importlib
import importlib.util
import inspect
import textwrap
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer_under_test", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    return tracer


def test_every_traced_name_resolves():
    tracer = load_tracer()
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


def test_every_counted_argument_is_a_parameter_of_its_target():
    """A ``_count_<name>`` method gets the wrapped call's bound arguments by parameter name;
    each name it subscripts them with is a parameter of the function it counts."""
    tracer = load_tracer()
    read, unknown = set(), []
    for module_name, attr, _ in tracer.TARGETS:
        count = getattr(tracer.Tracer, "_count_" + attr.split(".")[-1], None)
        if count is None:
            continue
        target = functools.reduce(getattr, attr.split("."),
                                  importlib.import_module(f"gnar.{module_name}"))
        method = ast.parse(textwrap.dedent(inspect.getsource(count))).body[0]
        args = method.args.args[1].arg
        for node in ast.walk(method):
            if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == args:
                name = node.slice.value if isinstance(node.slice, ast.Constant) else None
                read.add(name)
                if name not in inspect.signature(target).parameters:
                    unknown.append(f"gnar.{module_name}.{attr}: {name!r}")
    assert unknown == []
    assert {"T", "burn_in", "path"} <= read
