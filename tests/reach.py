"""Line reach of src/ under tier-1: a pytest plugin built on sys.settrace.

    PYTHONPATH=src:tests python -m pytest -q -p reach

runs the suite and records every line of an `idrig` function body that runs,
split by whether it ran inside an `idrig.cli.main` call or outside one (a test
calling the function itself).  The session fails on any line that ran only
outside one: src/ ships what an idrig command runs, and a line that only a test
reaches belongs next to that test, in tests/references.py.  Run it over the
whole suite; a subset sees fewer command lines.

Two kinds of arm are exempt, where an arm is a statement list (a function
body, the branch of an `if`, a loop body, an `except` clause with its header):
an arm that ends in `raise`, a guard a test provokes with input no command line
passes, and an arm whose every statement calls `warnings.warn`.  Lines that
never run are not flagged, and neither are lines run at import: module-level
and class-level code does not count.  Subprocesses are not traced.

sys.settrace and not sys.monitoring (Python 3.12+) or coverage (not a
dependency): CI runs Python 3.10 and 3.11.  Most of the tracer's cost is the
trace hook on every Python call, not the src/ lines it records: a tier-1 run
takes about 1.3 to 1.6 times as long.
"""
import ast
import sys
from pathlib import Path

import pytest

def _is_warn(stmt):
    """Whether `stmt` is a bare call of warnings.warn."""
    if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
        return False
    func = stmt.value.func
    return (isinstance(func, ast.Attribute) and func.attr == "warn"
            and isinstance(func.value, ast.Name) and func.value.id == "warnings")


def _exempt(stmts):
    return isinstance(stmts[-1], ast.Raise) or all(_is_warn(stmt) for stmt in stmts)


def body_lines(source):
    """{line: exempt} over every line of a function or lambda body in `source`.

    Each line takes the status of the innermost arm holding it, so an `if`
    header belongs to the arm around the `if`, and an `except` header to its
    clause.
    """
    status = {}

    def mark(first, stmts):
        for line in range(first, stmts[-1].end_lineno + 1):
            status[line] = _exempt(stmts)

    def arms(node):
        for name in ("body", "orelse", "finalbody"):
            stmts = getattr(node, name, None)
            if isinstance(stmts, list) and stmts:  # a lambda's body is an expression
                yield stmts[0].lineno, stmts
        for handler in getattr(node, "handlers", ()):
            yield handler.lineno, handler.body

    def visit(node, in_function):
        if isinstance(node, ast.Lambda):
            for line in range(node.body.lineno, node.body.end_lineno + 1):
                status.setdefault(line, False)
        in_function = not isinstance(node, ast.ClassDef) and (
            in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
        if in_function:
            for first, stmts in arms(node):
                mark(first, stmts)
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(ast.parse(source), False)
    return status


class Reach:
    """Lines of the code under directory `root` that run, inside a call of the code object
    `entry` or outside one.  A context manager: tracing runs inside the `with`."""

    def __init__(self, root, entry):
        self.root = str(Path(root).resolve())
        self.entry = entry
        self.depth = 0
        self.inside, self.outside = set(), set()
        self._ours = {}
        self._previous = None

    def _traced(self, code):
        ours = self._ours.get(code)
        if ours is None:
            ours = self._ours[code] = code.co_filename.startswith(self.root)
        return ours

    def _call(self, frame, event, arg):
        if frame.f_code is self.entry:
            self.depth += 1
            return self._entry_line
        return self._line if self._traced(frame.f_code) else None

    def _line(self, frame, event, arg):
        if event == "line":
            (self.inside if self.depth else self.outside).add(
                (frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def _entry_line(self, frame, event, arg):
        self._line(frame, event, arg)
        if event == "return":  # also when the call ends in an exception
            self.depth -= 1
        return self._entry_line

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)

    def outside_only(self):
        """"<file>:<line>  <source>" of each body line that ran only outside `entry` and
        is not in an exempt arm, sorted."""
        found = []
        only = self.outside - self.inside
        for filename in sorted({filename for filename, _ in only}):
            source = Path(filename).read_text()
            status, text = body_lines(source), source.splitlines()
            found += [f"{Path(filename).name}:{line}  {text[line - 1].strip()}"
                      for line in sorted(line for name, line in only if name == filename)
                      if status.get(line) is False]
        return found


OUTSIDE_ONLY = pytest.StashKey[list]()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtestloop(session):
    from idrig import cli
    with Reach(Path(cli.__file__).parent, cli.main.__code__) as reach:
        yield
    lines = session.config.stash[OUTSIDE_ONLY] = reach.outside_only()
    if lines:
        session.testsfailed += 1


def pytest_terminal_summary(terminalreporter, config):
    lines = config.stash.get(OUTSIDE_ONLY, None)
    if lines is None:
        return
    if lines:
        terminalreporter.section("src/ lines that only tests run", red=True)
        terminalreporter.write_line("move them to tests/references.py, or reach them through "
                                    "an idrig command line:")
        for line in lines:
            terminalreporter.write_line(line)
    else:
        terminalreporter.write_line("reach: every src/ body line tier-1 runs ran inside "
                                    "an idrig command")
