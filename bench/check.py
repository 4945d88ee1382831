"""Correctness check of one idrig report, independent of its verdicts.

A report fails when any of these holds:

* the command exits 2 (bad scene) or 3 (numerical failure), or raises;
* a residual is not finite;
* a residual that holds by construction rises above round-off
  (``BY_CONSTRUCTION``: the wave formula, the parallel Killing vector and the
  round-trip gaps; the two lambda routes, d(phi lambda) and two-for-three);
* the report's scene is in the committed reference (``reference.json``:
  every shipped scene, and the generated scenes of the default seed) and a
  residual differs from the reference by more than round-off.

Verdicts are not compared: known truncation failures (a 4D leaf residual of
1e-6, say) would count as failures, and a verdict fix would then have to edit
the benchmark.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# residuals that vanish by algebra or are exact on band-limited grid data
BY_CONSTRUCTION = ("formula_residual_max", "parallel_kv_max",
                   "roundtrip_metric_gap_max", "roundtrip_einstein_gap_max",
                   "roundtrip_frame_table_gap_max",
                   "lambda_route_gap_max", "d_phi_lambda_max", "two_for_three_max")

# round-off: 40x above the largest by-construction residual seen (2.5e-12,
# over the shipped scenes and 200 small2d and 3 grid4d seeds, full grids), and
# 100x below the 1e-8 verdict tolerance
ROUNDOFF = 1e-10

# agreement with the reference: absolute round-off plus relative round-off
REF_ATOL = 1e-10
REF_RTOL = 1e-9


def reference_key(report):
    """Command, convergence check and scene digest: what fixes a report's residuals."""
    return f"{report['command']}|{report.get('check', '')}|{report['digest']}"


def load_reference(path=REFERENCE):
    with open(path) as fh:
        return json.load(fh)


def problems(code, text, reference):
    """Reasons the report fails the check; empty when it passes."""
    if code is None:
        return ["raised an exception"]
    if code not in (0, 1):
        return [f"exit code {code}"]
    report = json.loads(text)
    residuals = report["residuals"]
    found = [f"{key} = {value} is not finite" for key, value in residuals.items()
             if value is not None and not math.isfinite(value)]
    found += [f"{key} = {residuals[key]:.3e} above round-off {ROUNDOFF:g}"
              for key in BY_CONSTRUCTION
              if key in residuals and math.isfinite(residuals[key])
              and abs(residuals[key]) > ROUNDOFF]
    expected = reference.get(reference_key(report))
    if expected is not None:
        if set(expected) != set(residuals):
            found.append(f"residual keys differ from the reference: "
                         f"{sorted(set(expected) ^ set(residuals))}")
        for key in sorted(set(expected) & set(residuals)):
            want, got = expected[key], residuals[key]
            if want is None or got is None:
                if want is not got:
                    found.append(f"{key} = {got} against reference {want}")
            elif not abs(got - want) <= REF_ATOL + REF_RTOL * abs(want):
                found.append(f"{key} = {got!r} against reference {want!r}")
    return found
