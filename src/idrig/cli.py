"""Batch command line: evaluate a scene file, emit a JSON report, exit by verdict.

Commands
    constraints   energy/momentum densities and the energy-condition margin
    rigidity      full residual report for the parallel-section identities
    killing-dev   development Einstein frame table, pattern and energy scan
    ppwave        closed-form wave checks, plus induction round trip if the
                  scene names a hypersurface
    convergence   re-run one named residual at {N, 2N, 4N} s-resolutions and
                  fit the observed order against actual spacings

Every command returns its residuals, its fields, extra report keys, and a map
from each judged residual to its rule; `main` alone judges, in one loop:

    rule     verdict
    bound    |value| <= tol
    margin   value >= -tol
    order    value >= tol, or no value (every error at the floor)

`_tolerance`, the only tolerance lookup, gives a key of DEFAULTS
(`parallel_kv_max`, `order`) its own [tolerances] key, else DEFAULTS; every
other key its [tolerances] key, then `default`, then 1e-8.

constraints judges only `dec_margin_min`, as a margin; killing-dev judges every
residual, `dec_margin_min` as a margin; rigidity reports `rho_max` and
`dec_margin_min` unjudged, ppwave `dec_margin_min`; convergence judges `order`.
`--tol` replaces `default`, so it moves every tolerance but those of DEFAULTS.

Exit codes: 0 all verdicts pass, 1 a verdict fails, 2 scene parse/validation
error, 3 numerical failure (non-finite values, solver breakdown).  Reports are
deterministic for fixed scene and flags except the single `volatile` field.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
import time
import warnings
from datetime import datetime, timezone

import numpy as np

from . import killing_dev as kdm
from . import rigidity
from .exprlang import ExprError
from .initial_data import constraints, dec_margin, j_norm, null_section
from .mesh import LEAF_SCHEMES, S_SCHEMES, DataError, Field, MeshError, dump_field_csv, fit_order
from .scene import (SceneError, is_tolerance, parse_scene, scene_initial_data, scene_ppwave,
                    undefined_expression)

# built-in tolerances where the contract differs from 1e-8, which `default` and
# --tol leave alone; "order" is the lower bound on the fitted convergence order
DEFAULTS = {"parallel_kv_max": 1e-11, "order": 3.5}

RULES = {
    "bound": lambda value, tol: abs(value) <= tol,
    "margin": lambda value, tol: value >= -tol,
    # no order is fit when every error sits at the round-off floor
    "order": lambda value, tol: value is None or value >= tol,
}


def _tolerance(scene, key):
    tols = dict(scene.tolerances)
    return tols.get(key, DEFAULTS.get(key, tols.get("default", 1e-8)))


def _bounds(residuals, *unjudged):
    """Judge every residual but `unjudged` as a bound."""
    return {key: "bound" for key in residuals if key not in unjudged}


def cmd_constraints(scene, args):
    ids = scene_initial_data(scene)
    rho, j = constraints(ids)
    margin = dec_margin(ids, rho, j)
    residuals = {
        "rho_max": float(np.max(np.abs(rho.data))),
        "j_norm_max": float(np.max(j_norm(ids, j))),
        "dec_margin_min": float(np.min(margin.data)),
    }
    fields = {"rho": rho, "dec_margin": margin, "j": j}
    return residuals, {"dec_margin_min": "margin"}, fields, {}


def cmd_rigidity(scene, args):
    ids = scene_initial_data(scene)
    residuals = rigidity.rigid_report(ids)
    fields = {"lambda": rigidity.lambda_form(ids),
              "theta_plus": rigidity.theta_plus_field(ids)}
    return residuals, _bounds(residuals, "rho_max", "dec_margin_min"), fields, {}


def cmd_killing_dev(scene, args):
    ids = scene_initial_data(scene)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kd = kdm.build_kd(ids, null_section(ids, -1.0 if scene.source == "ppwave" else 1.0))
    residuals = kdm.kd_pattern_residuals(kd)
    sigma = residuals.pop("sigma")
    residuals["section_lightlike_max"] = kd.lightlike_max
    residuals["section_parallel_max"] = kd.parallel_max
    dec = kdm.kd_dec_check(kd, count=args.directions)
    residuals["dec_margin_min"] = dec.minimum
    extra = {"sigma": sigma,
             "dec_argmin_coords": list(dec.coords),
             "dec_direction_count": dec.direction_count}
    fields = {"frame_table": kdm.kd_einstein(kd)}
    return residuals, dict(_bounds(residuals), dec_margin_min="margin"), fields, extra


def cmd_ppwave(scene, args):
    spec = scene_ppwave(scene)
    residuals = kdm.ppwave_einstein_check(spec)
    ein = kdm.spacetime_curvature(kdm.wave_spacetime(spec)).einstein
    fields = {"ein_ss": Field(spec.grid, "scalar", ein[1, 1])}
    if scene.hypersurface is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rt = kdm.kd_roundtrip(spec, scene.hypersurface)
            # the data set that kd_roundtrip induced and stored on the spec
            ids = kdm.induce_from_ppwave(spec, scene.hypersurface)
        rho, j = constraints(ids)
        residuals.update({f"roundtrip_{k}": v for k, v in rt.items()})
        residuals["marginal_modulus_max"] = float(np.max(np.abs(
            j_norm(ids, j) - np.abs(rho.data))))
    return residuals, _bounds(residuals, "dec_margin_min"), fields, {}


# check name -> residual of the data set, or of the wave spec for ppwave_formula;
# the mid-leaf checks look at the leaf s = ell/2
CONVERGENCE_CHECKS = {
    "parallel_s": lambda ids: rigidity.parallel_residuals(ids)["s"],
    "lambda": lambda ids: rigidity.lambda_form(ids).max_norm(),
    "d_phi_lambda": lambda ids: rigidity.closedness_residual(
        ids, 0.5 * ids.grid.ell)[0].max_norm(),
    "two_for_three": lambda ids: rigidity.two_for_three_residual(
        ids, 0.5 * ids.grid.ell).residual.max_norm(),
    "variation": lambda ids: rigidity.variation_residual(
        ids, 0.5 * ids.grid.ell).residual.max_norm(),
    "ppwave_formula": lambda spec: kdm.ppwave_einstein_check(spec)["formula_residual_max"],
}

CONVERGENCE_FLOOR = 1e-13


def _levels(scene):
    return [scene.n_s, 2 * scene.n_s, 4 * scene.n_s]


def cmd_convergence(scene, args):
    build = scene_ppwave if args.check == "ppwave_formula" else scene_initial_data
    levels = _levels(scene)
    residuals = {f"err_n{n_s}": float(CONVERGENCE_CHECKS[args.check](build(scene, n_s)))
                 for n_s in levels}
    errors = list(residuals.values())
    floor_hit = max(errors) < CONVERGENCE_FLOOR
    if not floor_hit:
        hs = [scene.ell / (n_s - 1) for n_s in levels]
        residuals["order"] = fit_order(hs, [max(e, 1e-300) for e in errors])
    extra = {"check": args.check, "levels": levels, "floor_hit": floor_hit}
    return residuals, {"order": "order"}, {}, extra


COMMANDS = {
    "constraints": cmd_constraints,
    "rigidity": cmd_rigidity,
    "killing-dev": cmd_killing_dev,
    "ppwave": cmd_ppwave,
    "convergence": cmd_convergence,
}


@functools.cache
def build_parser():
    """The command-line parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="idrig",
        description="residual checks for product initial data and their developments")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("scene", help="scene file path")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    parser.add_argument("--dump-fields", metavar="DIR",
                        help="write field CSVs into this directory")
    parser.add_argument("--tol", type=float,
                        help="override the scene's default tolerance")
    parser.add_argument("--scheme-s", choices=S_SCHEMES,
                        help="override the s-axis derivative scheme")
    parser.add_argument("--scheme-leaf", choices=LEAF_SCHEMES,
                        help="override the leaf derivative scheme")
    parser.add_argument("--check", help="convergence: which residual to refine")
    parser.add_argument("--directions", type=int, default=64,
                        help="direction count for the energy-condition scan")
    return parser


def _dump_fields(fields, directory):
    os.makedirs(directory, exist_ok=True)
    for name, obj in fields.items():
        path = os.path.join(directory, f"{name}.csv")
        try:
            if isinstance(obj, kdm.FrameEinstein):
                kdm.dump_frame_table_csv(obj, path)
            else:
                dump_field_csv(obj, path)
        except OSError as exc:  # one raised as the file is flushed at close names no file
            raise OSError(exc.errno, exc.strerror, exc.filename or path) from exc


def _output_errno(path, directory):
    """errno of writing `path`, or 0, found without creating or truncating anything.

    A `directory` is made with its missing parents, as `_dump_fields` does.
    """
    if os.path.exists(path):
        if os.path.isdir(path) != directory:
            return errno.EEXIST if directory else errno.EISDIR
        return 0 if os.access(path, os.W_OK | (os.X_OK if directory else 0)) else errno.EACCES
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(parent) or directory and not os.path.exists(parent):
        return _output_errno(parent, True)
    return errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.directions < 1:
        parser.error(f"--directions must be a positive integer, got {args.directions}")
    if args.directions > 4096:  # the energy scan takes count^2 ray pairs per distinct node
        parser.error(f"--directions must be at most 4096, got {args.directions}")
    if args.check is not None and args.command != "convergence":
        parser.error(f"--check applies only to convergence, not {args.command}")
    if args.tol is not None and not is_tolerance(args.tol):
        parser.error(f"--tol must be finite and >= 0, got {args.tol}")
    started = time.perf_counter()
    try:
        scene = parse_scene(args.scene)
        if args.tol is not None:
            scene = scene.override_tolerance(args.tol)
        if args.scheme_s or args.scheme_leaf:
            scene = scene.override_scheme(args.scheme_s, args.scheme_leaf)
        if args.command == "convergence":
            if not args.check:
                raise SceneError("convergence needs --check")
            if args.check not in CONVERGENCE_CHECKS:
                raise SceneError(f"unknown convergence check {args.check!r}; "
                                 f"choose from {sorted(CONVERGENCE_CHECKS)}")
        scene.grid()  # validate counts/lengths before heavy work
    except (SceneError, ExprError, MeshError) as exc:
        print(f"scene error: {exc}", file=sys.stderr)
        return 2
    for path, directory in ((args.out, False), (args.dump_fields, True)):
        if path and (code := _output_errno(path, directory)):  # before any work or output
            print(f"output error: {path}: {os.strerror(code)}", file=sys.stderr)
            return 2

    try:
        with np.errstate(over="raise"):  # an overflow is a numerical failure, not a warning
            residuals, rules, fields, extra = COMMANDS[args.command](scene, args)
        bad = [k for k, v in residuals.items()
               if v is not None and not np.isfinite(v)]
        if bad:
            raise MeshError(f"non-finite residuals: {bad}")
    except (SceneError, DataError) as exc:
        print(f"scene error: {exc}", file=sys.stderr)
        return 2
    except ExprError as exc:  # a scene expression undefined at a node
        levels = _levels(scene) if args.command == "convergence" else [scene.n_s]
        print(f"scene error: {undefined_expression(scene, levels) or exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a grid too large to allocate is bad input, not a failed verdict
        nodes = math.prod(scene.grid().counts)
        print(f"scene error: a grid of {nodes} nodes does not fit in memory", file=sys.stderr)
        return 2
    except (MeshError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    tolerances = {key: _tolerance(scene, key) for key in rules}
    verdicts = {key: bool(RULES[rule](residuals.get(key), tolerances[key]))
                for key, rule in rules.items()}
    elapsed = time.perf_counter() - started
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    report = {
        "command": args.command,
        "scene": os.path.basename(args.scene),
        "digest": scene.digest,
        "grid": {"ell": scene.ell, "n_s": scene.n_s,
                 "leaf_counts": list(scene.leaf_counts),
                 "leaf_lengths": list(scene.leaf_lengths)},
        "scheme": {"s": scene.scheme.s, "leaf": scene.scheme.leaf},
        "residuals": residuals,
        "tolerances": tolerances,
        "verdicts": verdicts,
        "pass": all(verdicts.values()),
        "volatile": f"{stamp} runtime={elapsed:.3f}s",
    }
    report.update(extra)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if args.dump_fields:
            _dump_fields(fields, args.dump_fields)
    except OSError as exc:  # one raised as --out is flushed at close names no file
        print(f"output error: {exc.filename or args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
