import math

import numpy as np
import pytest

from idrig import exprlang as ex
from helpers import CORPUS
from references import unparse


def val(src, **env):
    return ex.evaluate(ex.parse(src), env)


def test_precedence_and_associativity():
    assert val("1+2*3^2") == 19.0
    assert val("-2^2") == -4.0          # ^ binds tighter than unary minus
    assert val("2^-2") == 0.25
    assert val("2^3^2") == 512.0        # right associative
    assert val("6/3/2") == 1.0          # left associative
    assert val("1-2-3") == -4.0
    assert val("-s^2", s=2.0) == -4.0
    assert val("2*pi") == 2 * math.pi


def test_scientific_notation_and_whitespace():
    assert val("1.5e2") == 150.0
    assert val("2E-3") == 0.002
    assert val("  1 +  2 ") == 3.0


def test_vectorized_evaluation():
    s = np.linspace(0.0, 1.0, 7)
    out = val("exp(s)*2", s=s)
    assert np.allclose(out, 2 * np.exp(s))
    # broadcasting across distinct axes
    x = np.linspace(0.0, 1.0, 5).reshape(1, -1)
    out = val("s + x1", s=s.reshape(-1, 1), x1=x)
    assert out.shape == (7, 5)


def test_constant_folding():
    assert isinstance(ex.parse("2*3 + 4^2"), ex.Num)
    assert unparse(ex.parse("2*3 + s*0 + 4^2")) == "22.0"
    # identities fold away without touching the variable part
    assert unparse(ex.parse("s*1")) == "s"
    assert unparse(ex.parse("s + 0")) == "s"
    assert unparse(ex.parse("s^1")) == "s"
    # complex-valued literal powers are left for evaluation to reject
    with pytest.raises(ex.ExprDomainError):
        ex.evaluate(ex.parse("(0-1)^0.5"), {})
    with pytest.raises(ex.ExprDomainError):
        ex.evaluate(ex.parse("0^-1"), {})


@pytest.mark.parametrize("src,err,offset", [
    ("1 + ", ex.ExprSyntaxError, 4),
    ("1 ) 2", ex.ExprSyntaxError, 2),
    ("1..2", ex.ExprSyntaxError, 2),
    ("foo(2)", ex.ExprNameError, 0),
    ("x17", ex.ExprNameError, 0),
    ("sin 2", ex.ExprNameError, 0),
    # digits and letters are ASCII: a superscript or an Arabic-Indic digit is no number
    ("1 + ²", ex.ExprSyntaxError, 4),
    ("٣", ex.ExprSyntaxError, 0),
])
def test_error_offsets(src, err, offset):
    with pytest.raises(err) as info:
        ex.evaluate(ex.parse(src), {"s": 1.0})
    assert info.value.offset == offset
    assert f"offset {offset}" in str(info.value)


@pytest.mark.parametrize("src", ["log(0-1)", "sqrt(0-4)", "1/0", "log(s-2)"])
def test_domain_errors(src):
    with pytest.raises(ex.ExprDomainError):
        ex.evaluate(ex.parse(src), {"s": 1.0})


def test_unbound_variable():
    with pytest.raises(ex.ExprNameError):
        ex.evaluate(ex.parse("s + x2"), {"s": 1.0})


def test_variables_of():
    assert ex.variables_of(ex.parse("s + x1*x3")) == {"s", "x1", "x3"}
    assert ex.variables_of(ex.parse("2*pi")) == set()


def test_unparse_round_trip():
    for src in CORPUS:
        ast = ex.parse(src)
        again = ex.parse(unparse(ast))
        env = {"s": 0.37, "x1": 0.61}
        assert ex.evaluate(ast, env) == pytest.approx(ex.evaluate(again, env), abs=1e-15)


def central_difference(ast, var, env, h=1e-5):
    hi = dict(env)
    lo = dict(env)
    hi[var] = env[var] + h
    lo[var] = env[var] - h
    return (ex.evaluate(ast, hi) - ex.evaluate(ast, lo)) / (2 * h)


@pytest.mark.parametrize("src", CORPUS)
@pytest.mark.parametrize("var", ["s", "x1"])
def test_diff_against_central_difference(src, var):
    ast = ex.parse(src)
    d = ex.diff(ast, var)
    rng = np.random.default_rng(3)
    for _ in range(5):
        env = {"s": rng.uniform(0.1, 0.9), "x1": rng.uniform(0.0, 1.0)}
        want = central_difference(ast, var, env)
        got = ex.evaluate(d, env)
        assert got == pytest.approx(want, rel=2e-7, abs=2e-7)


def test_diff_exact_cases():
    assert ex.evaluate(ex.diff(ex.parse("s^3"), "s"), {"s": 2.0}) == 12.0
    assert ex.evaluate(ex.diff(ex.parse("sin(2*pi*x1)"), "x1"), {"x1": 0.0}) == pytest.approx(2 * math.pi)
    # derivative in an absent variable folds to zero
    assert isinstance(ex.diff(ex.parse("exp(s)"), "x1"), ex.Num)
    assert ex.diff(ex.parse("exp(s)"), "x1").value == 0.0


def test_second_derivatives():
    ast = ex.parse("exp(s^2)")
    d2 = ex.diff(ex.diff(ast, "s"), "s")
    s = 0.3
    want = (2 + 4 * s**2) * math.exp(s**2)
    assert ex.evaluate(d2, {"s": s}) == pytest.approx(want, rel=1e-12)


def test_lint_periodicity():
    assert ex.lint_periodicity(ex.parse("sin(2*pi*x1)"), {"x1": 1.0}) == []
    bad = ex.lint_periodicity(ex.parse("sin(x1)"), {"x1": 1.0})
    assert len(bad) == 1 and bad[0][0] == "x1" and bad[0][1] > 0.1
    # period-3 torus and an inert variable
    assert ex.lint_periodicity(ex.parse("sin(2*pi*x1/3) + s"), {"x1": 3.0, "x2": 1.0}) == []
