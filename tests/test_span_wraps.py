"""The benchmark's span tracer (`perfbench/spantrace.py`) wraps opml
functions by module and attribute path, listed in its `WRAPS` table. A
refactor that renames or moves one of them must fail here, not only in a
traced benchmark run."""

import ast
import importlib
import inspect
from pathlib import Path

SPANTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "spantrace.py"
TRACER = ast.parse(SPANTRACE.read_text())


def _rows() -> list[ast.Tuple]:
    """The rows of the WRAPS table, read without importing the tracer."""
    for node in TRACER.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPS"]:
            return node.value.elts
    raise AssertionError(f"no WRAPS table in {SPANTRACE}")


def _wrapped() -> list[tuple[str, str]]:
    """(module, attribute path) of every WRAPS row."""
    return [(row.elts[1].value, row.elts[2].value) for row in _rows()]


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(f"opml.{module_name}")
    for part in path.split("."):
        assert hasattr(owner, part), f"opml.{module_name}.{path}"
        owner = getattr(owner, part)
    return owner


def test_every_wrapped_function_resolves():
    wrapped = _wrapped()
    assert len(wrapped) > 50
    for module_name, path in wrapped:
        owner = importlib.import_module(f"opml.{module_name}")
        for part in path.split("."):
            assert hasattr(owner, part), f"opml.{module_name}.{path}"
            owner = getattr(owner, part)
        assert callable(owner), f"opml.{module_name}.{path}"


def _arg_reads() -> dict[str, list[tuple[int, str]]]:
    """Hook name -> (position, parameter name) of each `_arg(args, kwargs,
    pos, name)` call in it. A call may take both from the loop variables of
    a comprehension over a literal table."""
    reads: dict[str, list[tuple[int, str]]] = {}
    for fn in TRACER.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        tables = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.comprehension) and isinstance(node.target, ast.Tuple):
                for i, var in enumerate(node.target.elts):
                    tables[var.id] = [row[i] for row in ast.literal_eval(node.iter)]
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_arg":
                pos, name = node.args[2:4]
                if isinstance(pos, ast.Constant):
                    pairs = [(pos.value, name.value)]
                else:
                    pairs = list(zip(tables[pos.id], tables[name.id]))
                reads.setdefault(fn.name, []).extend(pairs)
    return reads


def test_hook_argument_reads_match_the_wrapped_signatures():
    """A hook reads an argument by position, or by name when it was passed
    by keyword; both must name the same parameter of the wrapped function."""
    reads = _arg_reads()
    checked = 0
    for row in _rows():
        module_name, path, hook = row.elts[1].value, row.elts[2].value, row.elts[4]
        if not isinstance(hook, ast.Name):
            continue
        params = list(inspect.signature(_resolve(module_name, path)).parameters)
        for pos, name in reads.get(hook.id, []):
            assert params[pos : pos + 1] == [name], (hook.id, f"opml.{module_name}.{path}", params)
            checked += 1
    assert checked
