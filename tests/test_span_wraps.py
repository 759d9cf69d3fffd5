"""The benchmark's span tracer (`perfbench/spantrace.py`) wraps opml
functions by module and attribute path, listed in its `WRAPS` table. A
refactor that renames or moves one of them must fail here, not only in a
traced benchmark run."""

import ast
import importlib
from pathlib import Path

SPANTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "spantrace.py"


def _wrapped() -> list[tuple[str, str]]:
    """(module, attribute path) of every WRAPS row, read without importing
    the tracer."""
    for node in ast.parse(SPANTRACE.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPS"]:
            return [(row.elts[1].value, row.elts[2].value) for row in node.value.elts]
    raise AssertionError(f"no WRAPS table in {SPANTRACE}")


def test_every_wrapped_function_resolves():
    wrapped = _wrapped()
    assert len(wrapped) > 50
    for module_name, path in wrapped:
        owner = importlib.import_module(f"opml.{module_name}")
        for part in path.split("."):
            assert hasattr(owner, part), f"opml.{module_name}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"opml.{module_name}.{path}"
