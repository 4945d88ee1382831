"""Numerical checks for initial data rigidity on [0, l] x T^(n-1).

Subpackage map: exprlang (closed-form scalar expressions and their exact
derivatives), mesh (grids, fields, derivative operators, contractions),
geometry (metric tensor calculus), initial_data (constraint quantities and
the ambient R + TM bundle), rigidity (parallel candidate, leafwise identity
residuals), killing_dev (Killing development, pp-wave checks), scene (scene
files), cli (reports, command line).  Every definition here is reached from
an `idrig` command; the Hodge and TT splits, parallel transport and L2
quadrature are test-side references in tests/references.py.
"""

__version__ = "0.1.0"
