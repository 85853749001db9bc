"""Line-trace gate: every executable line of src/volcnn runs in the tests.

An opt-in pytest plugin.  From the repository root:

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

It traces line events in every frame of a src/volcnn file, on the main
thread and on every thread started after it loads (sys.settrace and
threading.settrace).  pytest loads it before it collects a test, so
before volcnn is imported, and the modules' top-level lines count too.

The executable lines of a file are the lines its compiled code objects
start, less docstrings and `global` statements.  At session end the run
fails if one of them was never traced, unless its source text is in
ALLOWED.  Run it over the whole suite: a subset leaves lines untraced.
"""

import ast
import os
import sys
import threading

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "volcnn")

# (file, stripped source line) of the lines no test can run in this process
ALLOWED = {
    # a C library without mallopt
    ("__init__.py", "except (OSError, TypeError, AttributeError):"),
    ("__init__.py", "return None"),
    # a platform without os.sched_getaffinity
    ("nn.py", "else os.cpu_count() or 1)"),
    # runs only in a forked child
    ("nn.py", "_POOL, _POOL_LOCK = None, threading.Lock()"),
}

_traced = {}  # file -> set of traced line numbers
_report = []


def _trace(frame, event, arg):
    path = frame.f_code.co_filename
    if not path.startswith(SRC):
        return None
    lines = _traced.setdefault(path, set())

    def line(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return line

    return line


def _code_lines(code):
    """Every line that code or a code object nested in it starts."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _skipped_lines(tree):
    """Lines of docstrings and of `global` statements."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            skipped.add(node.lineno)
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            skipped.update(range(body[0].lineno, body[0].end_lineno + 1))
    return skipped


def untraced():
    """(file, line, text) of each untraced executable line, and the
    ALLOWED entries that matched no untraced line."""
    missing, allowed_hits = [], set()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as f:
            source = f.read()
        text = source.splitlines()
        lines = (_code_lines(compile(source, path, "exec"))
                 - _skipped_lines(ast.parse(source)) - _traced.get(path, set()))
        for n in sorted(lines):
            key = (name, text[n - 1].strip())
            if key in ALLOWED:
                allowed_hits.add(key)
            else:
                missing.append((name, n, key[1]))
    return missing, sorted(ALLOWED - allowed_hits)


sys.settrace(_trace)
threading.settrace(_trace)


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    missing, stale = untraced()
    _report[:] = [f"{name}:{n}: untraced: {text}" for name, n, text in missing]
    _report.extend(f"{name}: allowed but traced or gone: {text}" for name, text in stale)
    if _report and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("line trace of src/volcnn")
    for line in _report:
        terminalreporter.write_line(line)
    terminalreporter.write_line(f"{len(_report)} problem(s); {len(ALLOWED)} line(s) allowed")
