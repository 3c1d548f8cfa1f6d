"""Every function that the benchmark's tracer wraps still exists.

The tracer looks its names up only when a traced run starts, so a refactor
that deletes or renames one would otherwise fail only there.  The table is
read from the tracer's source, not imported.
"""

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_table():
    """The literal TRACED table of the tracer: module name -> function names."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in the tracer")


def test_every_traced_name_is_a_function_of_the_package():
    table = traced_table()
    assert table
    missing = [f"{mod}.{fn}" for mod, fns in table.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"hilbcheck.{mod}"), fn, None))]
    assert missing == []
