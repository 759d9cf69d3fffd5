"""Statement reach check for `src/opml`, as a stdlib pytest plugin.

Run the whole tier-1 suite under it:

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

It traces every line executed in `src/opml` with `sys.settrace` and, when
the session ends, lists each statement that no test ran. A statement is
one `ast` statement that compiles to bytecode; it counts as run when any
line of it (of its header, for a compound statement) was traced. The
session fails when a statement outside `ALLOWED` never ran, or when an
`ALLOWED` entry did run or names no statement, so the list only shrinks.
Code run only in a subprocess is not seen. The tracer slows the suite
about fivefold, so it checks a full run only: a subset leaves statements
unrun that other files reach.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "opml"

#: (file, first line of the statement) that no in-process test runs, with why.
ALLOWED = {
    # Run only as `python -m opml.cli`, in subprocesses.
    ("cli.py", "sys.exit(main())"),
    # Named by the benchmark's span tracer (`perfbench/spantrace.py`'s WRAPS).
    ("lowering.py", "return merkle.region_root(self.program, fpvm.PROGRAM_LEVEL, scheme)"),
}

#: Resolved path of each `src/opml` file -> the lines traced in it.
_executed: dict[str, set[int]] = {}
#: co_filename -> its `_executed` set, or None for a file outside `src/opml`.
_files: dict[str, set[int] | None] = {}


def _tracer(frame, event, arg):
    filename = frame.f_code.co_filename
    if filename not in _files:
        _files[filename] = _executed.get(str(Path(filename).resolve()))
    lines = _files[filename]
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(source: str, filename: str) -> list[tuple[int, range]]:
    """(first line, lines that run it) of each statement with bytecode."""
    code_lines = _code_lines(compile(source, filename, "exec"))
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        bodies = [s.lineno for field in ("body", "orelse", "handlers", "finalbody", "cases")
                  for s in getattr(node, field, ()) if hasattr(s, "lineno")]
        last = min(bodies) - 1 if bodies else node.end_lineno
        lines = range(first, max(first, last) + 1)
        if code_lines.intersection(lines):
            out.append((first, lines))
    return out


def unrun() -> list[tuple[str, int, str]]:
    """(file, line, source line) of each statement no traced frame ran."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        run = _executed[str(path.resolve())]
        for first, lines in sorted(_statements(source, str(path))):
            if not run.intersection(lines):
                out.append((path.name, first, text[first - 1].strip()))
    return out


def pytest_configure(config):
    for path in SRC.glob("*.py"):
        _executed[str(path.resolve())] = set()
    sys.settrace(_tracer)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    missed = unrun()
    allowed = {(name, text) for name, _, text in missed if (name, text) in ALLOWED}
    unexpected = [m for m in missed if (m[0], m[2]) not in ALLOWED]
    stale = sorted(ALLOWED - allowed)
    session.config._linetrace_report = (missed, unexpected, stale)
    if (unexpected or stale) and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    missed, unexpected, stale = config._linetrace_report
    terminalreporter.section("statements no test runs (src/opml)")
    for name, line, text in missed:
        mark = "" if (name, text) in ALLOWED else "  <- not in linetrace.ALLOWED"
        terminalreporter.write_line(f"{name}:{line}: {text}{mark}")
    for name, text in stale:
        terminalreporter.write_line(f"ALLOWED entry runs or names no statement: {name}: {text}")
    terminalreporter.write_line(f"{len(missed)} unrun, {len(unexpected)} outside ALLOWED, "
                                f"{len(stale)} stale ALLOWED entries")
