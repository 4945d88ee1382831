"""The line-reach guard (tests/reach.py) on a synthetic package and on a mock session."""
import importlib.util
import textwrap
import types

import pytest

import reach
from idrig import killing_dev

SYNTHETIC = textwrap.dedent('''\
    import warnings


    def main(argv):
        if not argv:
            raise ValueError("no arguments")
        return shared(len(argv)) + guarded(len(argv)) + branched(1)


    def shared(n):
        if n < 0:
            warnings.warn("negative count")
            warnings.warn("clamped to 0")
        return max(n, 0) + 1


    def guarded(n):
        if n > 10:
            message = f"{n} is too large"
            raise ValueError(message)
        return n


    def test_only(n):
        total = n * 2
        return total


    def branched(n):
        if n:
            return 1
        return 0
    ''')


def _numbered(text):
    """"synthetic.py:<line>  <text>" of the line of SYNTHETIC that reads `text`."""
    number = [line.strip() for line in SYNTHETIC.splitlines()].index(text) + 1
    return f"synthetic.py:{number}  {text}"


def _load(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)
    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lines_that_only_a_test_runs_are_found(tmp_path):
    module = _load(tmp_path)
    with reach.Reach(tmp_path, module.main.__code__) as traced:
        module.main("ab")
        with pytest.warns(UserWarning):
            module.shared(-1)  # a test provokes the warning arm
        with pytest.raises(ValueError):
            module.guarded(11)  # and the arm that ends in raise
        with pytest.raises(ValueError):
            module.main("")  # an entry call that raises leaves the entry
        module.test_only(3)
        module.branched(0)  # "if n:" ran inside main too; "return 0" did not
    assert traced.depth == 0
    assert traced.outside_only() == [_numbered(text)
                                     for text in ("total = n * 2", "return total", "return 0")]


def test_raise_and_warn_arms_are_exempt_and_module_code_does_not_count():
    status = reach.body_lines(SYNTHETIC)
    lines = SYNTHETIC.splitlines()
    at = {text.strip(): status.get(number) for number, text in enumerate(lines, 1)}
    assert at['raise ValueError("no arguments")'] is True
    assert at['message = f"{n} is too large"'] is True  # the arm ends in raise
    assert at['warnings.warn("clamped to 0")'] is True
    assert at["if n > 10:"] is False and at["return n"] is False
    assert at["import warnings"] is None and at["def shared(n):"] is None


def test_an_except_header_belongs_to_its_clause():
    source = textwrap.dedent('''\
        def f(x):
            try:
                y = int(x)
            except ValueError:
                raise TypeError(x)
            return y
        ''')
    assert reach.body_lines(source) == {2: False, 3: False, 4: True, 5: True, 6: False}


def test_the_session_fails_when_a_test_alone_runs_src_lines():
    session = types.SimpleNamespace(testsfailed=0, config=types.SimpleNamespace(stash={}))
    loop = reach.pytest_runtestloop(session)
    next(loop)
    killing_dev.causal_direction_set(2, 4)  # called from no idrig command
    with pytest.raises(StopIteration):
        next(loop)
    assert session.testsfailed == 1
    found = session.config.stash[reach.OUTSIDE_ONLY]
    assert found and all(line.startswith("killing_dev.py:") for line in found)
