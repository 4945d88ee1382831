"""Shared fixtures-by-hand for the test suite.

CORPUS is the fixed 10-expression set every derivative operator is validated
against; each entry mixes an interval profile in s with a torus profile in x1
so both axis schemes are exercised by the same expression.
"""
import numpy as np

from idrig import exprlang
from idrig.mesh import Grid, Scheme, Field, _contract, partial_stack, fit_order

SCHEME = Scheme("fd4", "spectral")

CORPUS = (
    "exp(s/2)*sin(2*pi*x1)",
    "tanh(s - 1/2) + cos(2*pi*x1)",
    "1/(2 + s^2) * (1 + 0.3*sin(2*pi*x1))",
    "sqrt(1 + s^2) * cos(4*pi*x1)",
    "log(2 + s) + 0.2*sin(4*pi*x1)*cos(2*pi*x1)",
    "s^3 - 2*s + 0.5 + 0.1*cos(2*pi*x1)",
    "exp(-s^2)*(1 + 0.2*cos(6*pi*x1))",
    "sin(s)*sin(2*pi*x1) + s/3",
    "(1 + 0.1*s)^4 + 0.05*sin(2*pi*x1)^2",
    "cos(s)^2 * (2 + sin(2*pi*x1))",
)

# an error sequence below this is at round-off; order fits on it are noise
FLOOR = 1e-12


def sample_expr(grid, source):
    ast = exprlang.parse(source) if isinstance(source, str) else source
    vals = exprlang.evaluate(ast, grid.coord_env())
    return np.broadcast_to(np.asarray(vals, dtype=float), grid.shape).copy()


def measured_order(hs, errors, floor=FLOOR):
    """fit_order with a round-off floor: returns (order_or_None, floor_hit)."""
    if all(e <= floor for e in errors):
        return None, True
    return fit_order(hs, [max(e, 1e-300) for e in errors]), False


def order_passes(hs, errors, want, floor=FLOOR):
    order, hit = measured_order(hs, errors, floor)
    return hit or order >= want


def dense_christoffels_from(ginv, dg):
    """Gamma^a_bc with every lowered component built densely and the 0.5 applied last.

    The reference for geometry.christoffels_from, which builds only the live
    components and applies the 0.5 before the contraction.
    """
    low = np.einsum("bdc...->dbc...", dg) + np.einsum("cdb...->dbc...", dg) - dg
    return _contract("ad...,dbc...->abc...", ginv, low) * 0.5  # low[d, b, c] = 2 Gamma_dbc


def grid3(n_s=17, leaf=16, ell=1.0):
    return Grid.product(ell, n_s, (leaf, leaf), (1.0, 1.0))
