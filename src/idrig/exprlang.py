"""Closed-form scalar expressions over product-grid coordinates.

This is the toolkit's independent oracle: scenes specify metric profiles and
kinematic data as strings in this language, fields are sampled from them, and
grid derivative operators are validated against the symbolic derivative.

Grammar (EBNF, whitespace between tokens is insignificant):

    expr    := term   (("+" | "-") term)*
    term    := unary  (("*" | "/") unary)*
    unary   := "-" unary | power
    power   := atom   ("^" unary)?          right associative, "2^3^2" = 512
    atom    := NUMBER | NAME | NAME "(" expr ")" | "(" expr ")"
    NUMBER  := digits ["." digits] [("e"|"E") ["+"|"-"] digits]
    NAME    := letter (letter | digit | "_")*

"^" binds tighter than unary minus, so "-x1^2" is "-(x1^2)".  Variables are
"s" and "x1" .. "x9"; "pi" is a literal constant.  Functions are sin, cos,
exp, log, tanh, sqrt.  Literal subexpressions are folded at parse time; no
further simplification is performed.

Digits and letters are ASCII; any other character is a syntax error.  Errors
carry the character offset into the source string (an accepted source is
ASCII, so character and byte offsets coincide).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

VARIABLES = ("s",) + tuple(f"x{i}" for i in range(1, 10))

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "tanh": np.tanh,
    "sqrt": np.sqrt,
}


class ExprError(Exception):
    """Base class for expression language errors."""

    def __init__(self, message, offset=None):
        self.reason = message
        self.offset = offset
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)


class ExprSyntaxError(ExprError):
    pass


class ExprNameError(ExprError):
    pass


class ExprDomainError(ExprError):
    pass


@dataclass(frozen=True)
class Num:
    value: float
    offset: int = 0


@dataclass(frozen=True)
class Var:
    name: str
    offset: int = 0


@dataclass(frozen=True)
class Neg:
    arg: "Expr"
    offset: int = 0


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"
    offset: int = 0


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"
    offset: int = 0


Expr = Num | Var | Neg | BinOp | Call


# --- tokenizer -------------------------------------------------------------

# one token after optional whitespace: a number, a name, an operator, any other
# character (an error), or the end of the source; every class is ASCII
_TOKEN = re.compile(r"[ \t\r\n]*(?:"
                    r"(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
                    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*/^()])"
                    r"|(?P<other>.)"
                    r"|(?P<end>\Z))", re.DOTALL)


def _tokenize(src):
    """(kind, text, offset) triples; kind is 'num', 'name', 'op' or, last, 'end'."""
    tokens = []
    for match in _TOKEN.finditer(src):
        kind = match.lastgroup
        if kind == "other":
            raise ExprSyntaxError(f"unexpected character {match[kind]!r}", match.start(kind))
        tokens.append((kind, match[kind], match.start(kind)))
        if kind == "end":
            return tokens


# --- smart constructors (literal folding only) -----------------------------


def _num(v):
    return Num(float(v))


def _neg(a):
    if isinstance(a, Num):
        return _num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a, a.offset)


def _add(a, b):
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value + b.value)
    if isinstance(a, Num) and a.value == 0.0:
        return b
    if isinstance(b, Num) and b.value == 0.0:
        return a
    return BinOp("+", a, b, a.offset)


def _sub(a, b):
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value - b.value)
    if isinstance(b, Num) and b.value == 0.0:
        return a
    if isinstance(a, Num) and a.value == 0.0:
        return _neg(b)
    return BinOp("-", a, b, a.offset)


def _mul(a, b):
    if isinstance(a, Num) and isinstance(b, Num):
        return _num(a.value * b.value)
    if isinstance(a, Num):
        if a.value == 0.0:
            return _num(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Num):
        if b.value == 0.0:
            return _num(0.0)
        if b.value == 1.0:
            return a
    return BinOp("*", a, b, a.offset)


def _div(a, b):
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
        return _num(a.value / b.value)
    if isinstance(a, Num) and a.value == 0.0 and not (isinstance(b, Num) and b.value == 0.0):
        return _num(0.0)
    if isinstance(b, Num) and b.value == 1.0:
        return a
    return BinOp("/", a, b, a.offset)


def _pow(a, b):
    if isinstance(a, Num) and isinstance(b, Num):
        # negative base with fractional exponent gives complex; leave those
        # unfolded so evaluation reports an ExprDomainError with an offset
        try:
            v = a.value**b.value
        except (OverflowError, ValueError, ZeroDivisionError):
            v = None
        if isinstance(v, float):
            return _num(v)
    if isinstance(b, Num):
        if b.value == 1.0:
            return a
        if b.value == 0.0:
            return _num(1.0)
    return BinOp("^", a, b, a.offset)


def _call(fn, a, offset=0):
    if isinstance(a, Num):
        with np.errstate(invalid="ignore", divide="ignore"):
            v = FUNCTIONS[fn](a.value)
        if np.isfinite(v):
            return _num(float(v))
    return Call(fn, a, offset)


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, src):
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        return self.next()

    def parse(self):
        e = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r}", off)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.term()
                e = _add(e, rhs) if text == "+" else _sub(e, rhs)
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                rhs = self.unary()
                e = _mul(e, rhs) if text == "*" else _div(e, rhs)
            else:
                return e

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return _neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            return _pow(base, self.unary())
        return base

    def atom(self):
        kind, text, off = self.next()
        if kind == "num":
            return Num(float(text), off)
        if kind == "name":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTIONS:
                    raise ExprNameError(f"unknown function {text!r}", off)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return _call(text, arg, off)
            if text == "pi":
                return Num(math.pi, off)
            if text not in VARIABLES:
                raise ExprNameError(f"unknown variable {text!r}", off)
            return Var(text, off)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError("expected a number, name or '('", off)


def parse(src):
    """Parse source text into an AST, folding literal subexpressions."""
    return _Parser(src).parse()


# --- evaluation ------------------------------------------------------------


def evaluate(expr, env):
    """Evaluate an AST over an environment of scalars or numpy arrays.

    Division, fractional powers, log and sqrt are checked for non-finite
    results and raise ExprDomainError at the offending node.
    """
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in env:
            raise ExprNameError(f"variable {expr.name!r} is not bound", expr.offset)
        return env[expr.name]
    if isinstance(expr, Neg):
        return -evaluate(expr.arg, env)
    if isinstance(expr, BinOp):
        a = evaluate(expr.left, env)
        b = evaluate(expr.right, env)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.divide(a, b)
            _check_finite(out, "division", expr.offset)
            return out
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            out = np.power(a, b)
        _check_finite(out, "power", expr.offset)
        return out
    if isinstance(expr, Call):
        a = evaluate(expr.arg, env)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out = FUNCTIONS[expr.fn](a)
        _check_finite(out, expr.fn, expr.offset)
        return out
    raise TypeError(f"not an expression node: {expr!r}")


def _check_finite(value, what, offset):
    if not np.all(np.isfinite(value)):
        raise ExprDomainError(f"{what} produced a non-finite value", offset)


# --- symbolic differentiation ----------------------------------------------


def diff(expr, var):
    """Exact derivative of the AST with respect to variable name `var`."""
    if var not in VARIABLES:
        raise ExprNameError(f"cannot differentiate with respect to {var!r}")
    return _diff(expr, var)


def _diff(e, var):
    if isinstance(e, Num):
        return _num(0.0)
    if isinstance(e, Var):
        return _num(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        return _neg(_diff(e.arg, var))
    if isinstance(e, BinOp):
        a, b = e.left, e.right
        da, db = _diff(a, var), _diff(b, var)
        if e.op == "+":
            return _add(da, db)
        if e.op == "-":
            return _sub(da, db)
        if e.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if e.op == "/":
            return _div(_sub(_mul(da, b), _mul(a, db)), _mul(b, b))
        # power: constant exponent uses the power rule, else a^b * (b' log a + b a'/a)
        if isinstance(b, Num):
            return _mul(_mul(b, _pow(a, _num(b.value - 1.0))), da)
        inner = _add(_mul(db, _call("log", a)), _div(_mul(b, da), a))
        return _mul(_pow(a, b), inner)
    if isinstance(e, Call):
        da = _diff(e.arg, var)
        u = e.arg
        if e.fn == "sin":
            return _mul(_call("cos", u), da)
        if e.fn == "cos":
            return _neg(_mul(_call("sin", u), da))
        if e.fn == "exp":
            return _mul(_call("exp", u), da)
        if e.fn == "log":
            return _div(da, u)
        if e.fn == "tanh":
            t = _call("tanh", u)
            return _mul(_sub(_num(1.0), _mul(t, t)), da)
        if e.fn == "sqrt":
            return _div(da, _mul(_num(2.0), _call("sqrt", u)))
    raise TypeError(f"not an expression node: {e!r}")


def variables_of(expr):
    """Set of variable names that occur in the AST."""
    if isinstance(expr, Num):
        return set()
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Neg):
        return variables_of(expr.arg)
    if isinstance(expr, BinOp):
        return variables_of(expr.left) | variables_of(expr.right)
    if isinstance(expr, Call):
        return variables_of(expr.arg)
    raise TypeError(f"not an expression node: {expr!r}")


def lint_periodicity(expr, leaf_lengths):
    """Check Li-periodicity of `expr` in each leaf variable it uses.

    leaf_lengths maps variable names ("x1", ...) to torus circumferences.
    Returns a list of (variable, mismatch) pairs where the expression, at 17
    fixed random points, fails to be periodic beyond 1e-10 relative to its
    sampled magnitude.  The s variable is never linted.  The points are drawn
    variable by variable in sorted order, so the report does not depend on
    the iteration order of a set, which follows PYTHONHASHSEED.
    """
    used = variables_of(expr)
    samples = 17
    rng = np.random.default_rng(20260814)
    base = {v: rng.uniform(0.0, leaf_lengths.get(v, 1.0), samples)
            for v in sorted(used - {"s"})}
    base["s"] = rng.uniform(0.0, 1.0, samples)
    warnings = []
    for var, length in sorted(leaf_lengths.items()):
        if var not in used or var == "s":
            continue
        lo = dict(base)
        hi = dict(base)
        lo[var] = np.zeros(samples)
        hi[var] = np.full(samples, float(length))
        flo = np.asarray(evaluate(expr, lo), dtype=float)
        fhi = np.asarray(evaluate(expr, hi), dtype=float)
        scale = 1.0 + max(np.max(np.abs(flo)), np.max(np.abs(fhi)))
        mismatch = float(np.max(np.abs(fhi - flo)))
        if mismatch > 1e-10 * scale:
            warnings.append((var, mismatch))
    return warnings
