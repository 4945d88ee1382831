"""Command line: exit codes, report shape, flags, and the shipped scenes."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from idrig import cli, exprlang, geometry
from idrig import killing_dev as kdm
from idrig import rigidity
from idrig.cli import CONVERGENCE_CHECKS, main
from idrig.scene import parse_scene, scene_initial_data, scene_ppwave

SCENES = Path(__file__).resolve().parents[1] / "scenes"


def run_text(argv):
    """Invoke the CLI in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def run(argv):
    """Invoke the CLI in process; returns (exit code, report dict or None, stderr)."""
    code, text, err = run_text(argv)
    report = json.loads(text) if text.strip().startswith("{") else None
    return code, report, err


def test_constraints_flat_report_shape():
    code, rep, err = run(["constraints", SCENES / "flat.scene"])
    assert code == 0 and err == ""
    assert sorted(rep) == ["command", "digest", "grid", "pass", "residuals",
                           "scene", "scheme", "tolerances", "verdicts", "volatile"]
    assert rep["command"] == "constraints"
    assert rep["scene"] == "flat.scene"
    assert rep["pass"] is True
    assert rep["grid"] == {"ell": 1.0, "n_s": 16, "leaf_counts": [16, 16],
                           "leaf_lengths": [1.0, 1.0]}
    assert rep["scheme"] == {"s": "fd4", "leaf": "spectral"}
    # flat vacuum: every density is exactly zero
    assert rep["residuals"] == {"rho_max": 0.0, "j_norm_max": 0.0,
                                "dec_margin_min": 0.0}
    # only the energy margin is judged
    assert rep["verdicts"] == {"dec_margin_min": True}
    assert rep["tolerances"] == {"dec_margin_min": 1e-8}
    raw = (SCENES / "flat.scene").read_bytes()
    assert rep["digest"] == hashlib.sha256(raw).hexdigest()


def test_constraints_constant_trace_density():
    code, rep, _ = run(["constraints", SCENES / "constant_k.scene"])
    assert code == 0
    assert rep["residuals"]["rho_max"] == 3.0
    assert rep["residuals"]["j_norm_max"] == 0.0
    assert rep["residuals"]["dec_margin_min"] == 3.0


def test_constraints_energy_condition_failure_exits_one():
    code, rep, _ = run(["constraints", SCENES / "recipe.scene"])
    assert code == 1
    assert rep["pass"] is False
    assert rep["verdicts"] == {"dec_margin_min": False}
    # marginal data: the worst margin is -2 rho at the most negative node
    res = rep["residuals"]
    assert abs(res["dec_margin_min"] + 2 * res["rho_max"]) < 1e-10
    assert abs(res["j_norm_max"] - res["rho_max"]) < 1e-10
    assert res["rho_max"] > 4


def test_tolerance_override_flips_verdict(tmp_path):
    # --tol replaces the scene's default
    path = tmp_path / "default.scene"
    path.write_text((SCENES / "recipe.scene").read_text() + "\n[tolerances]\ndefault = 1e-3\n")
    for scene in (SCENES / "recipe.scene", path):
        code, rep, _ = run(["constraints", scene, "--tol", "100"])
        assert code == 0, scene
        assert rep["tolerances"] == {"dec_margin_min": 100.0}, scene
        assert rep["verdicts"] == {"dec_margin_min": True}, scene


def test_constraints_reads_the_dec_margin_min_tolerance(tmp_path):
    path = tmp_path / "loose.scene"
    path.write_text((SCENES / "recipe.scene").read_text()
                    + "\n[tolerances]\ndec_margin_min = 100\ndefault = 1e-3\n")
    # the key's own value beats `default` and --tol
    for extra in ([], ["--tol", "1e-5"]):
        code, rep, _ = run(["constraints", path] + extra)
        assert code == 0, extra
        assert rep["tolerances"] == {"dec_margin_min": 100.0}, extra
        assert rep["verdicts"] == {"dec_margin_min": True}, extra


def test_scheme_override_is_reflected():
    code, rep, _ = run(["constraints", SCENES / "flat.scene",
                        "--scheme-s", "fd2", "--scheme-leaf", "fd2"])
    assert code == 0
    assert rep["scheme"] == {"s": "fd2", "leaf": "fd2"}
    assert rep["residuals"]["rho_max"] == 0.0


def test_rigidity_recipe_passes():
    code, rep, _ = run(["rigidity", SCENES / "recipe.scene"])
    assert code == 0 and rep["pass"] is True
    res = rep["residuals"]
    # informational densities are reported but never judged
    assert res["rho_max"] > 4 and res["dec_margin_min"] < -4
    assert set(rep["verdicts"]) == set(rep["tolerances"]) == set(res) - {"rho_max",
                                                                         "dec_margin_min"}
    judged = {k: res[k] for k in rep["verdicts"]}
    assert max(abs(v) for v in judged.values()) < 1e-8
    # per-leaf families at the first, middle and last s nodes (n_s = 21)
    for tag in ("leaf_000", "leaf_010", "leaf_020"):
        assert f"{tag}_two_for_three_max" in res
        assert f"{tag}_variation_cross_check_max" in res
    assert os.path.basename(rep["scene"]) == "recipe.scene"


def test_killing_dev_vacuum_scene():
    code, rep, _ = run(["killing-dev", SCENES / "vacuum_kd.scene"])
    assert code == 0 and rep["pass"] is True
    res = rep["residuals"]
    # s-only lapse: the development is exactly Ricci flat
    assert res["scal_max"] == 0.0
    assert res["leaf_block_max"] == 0.0
    assert res["dec_margin_min"] == 0.0
    assert res["off_pattern_max"] < 1e-15
    assert res["section_lightlike_max"] < 1e-14
    assert res["section_parallel_max"] < 1e-8
    assert rep["sigma"] == 1.0
    assert rep["dec_direction_count"] == 64
    assert rep["dec_argmin_coords"] == [0.0, 0.0, 0.0]
    # every residual is judged, the energy margin from below
    assert set(rep["verdicts"]) == set(rep["tolerances"]) == set(res)


def test_killing_dev_energy_scan_flags_recipe():
    code, rep, _ = run(["killing-dev", SCENES / "recipe.scene"])
    assert code == 1
    bad = [k for k, v in rep["verdicts"].items() if not v]
    assert bad == ["dec_margin_min"]
    assert rep["residuals"]["dec_margin_min"] < -1


def test_killing_dev_direction_count_flag():
    code, rep, _ = run(["killing-dev", SCENES / "vacuum_kd.scene",
                        "--directions", "8"])
    assert code == 0
    assert rep["dec_direction_count"] == 8


def test_ppwave_wave_scene():
    code, rep, _ = run(["ppwave", SCENES / "wave.scene"])
    assert code == 0 and rep["pass"] is True
    res = rep["residuals"]
    assert res["off_component_max"] == 0.0
    assert res["scal_max"] == 0.0
    assert res["parallel_kv_max"] == 0.0
    assert res["formula_residual_max"] < 1e-10
    # sine profile: the energy scan bottoms out at -2 pi^2, reported only
    assert abs(res["dec_margin_min"] + 2 * math.pi**2) < 1e-10
    assert "dec_margin_min" not in rep["verdicts"]


def test_ppwave_roundtrip_scene():
    code, rep, _ = run(["ppwave", SCENES / "roundtrip.scene"])
    assert code == 0 and rep["pass"] is True
    res = rep["residuals"]
    for key in ("roundtrip_metric_gap_max", "roundtrip_einstein_gap_max",
                "roundtrip_frame_table_gap_max", "roundtrip_scal_max",
                "roundtrip_kd_formula_residual_max", "marginal_modulus_max"):
        assert abs(res[key]) < 1e-8, key
    assert set(rep["verdicts"]) == set(rep["tolerances"]) == set(res) - {"dec_margin_min"}
    assert rep["tolerances"]["parallel_kv_max"] == 1e-11


def test_default_and_tol_leave_parallel_kv_max_alone(tmp_path):
    # its built-in 1e-11 is stricter than 1e-8, so a looser default must not reach it
    path = tmp_path / "wave_default.scene"
    path.write_text((SCENES / "wave.scene").read_text() + "\n[tolerances]\ndefault = 1e-3\n")
    # ... but its own key does, over `default` and --tol alike
    keyed = tmp_path / "wave_keyed.scene"
    keyed.write_text(path.read_text() + "parallel_kv_max = 1e-9\n")
    for argv, kv_tol in ((["ppwave", SCENES / "wave.scene", "--tol", "1e-3"], 1e-11),
                         (["ppwave", path], 1e-11),
                         (["ppwave", keyed, "--tol", "1e-3"], 1e-9)):
        code, rep, _ = run(argv)
        assert code == 0, argv
        tolerances = rep["tolerances"]
        assert tolerances.pop("parallel_kv_max") == kv_tol, argv
        assert tolerances and set(tolerances.values()) == {1e-3}, argv


def test_ppwave_roundtrip_reuses_the_wave_check(tmp_path, monkeypatch):
    calls = []
    original = kdm.spacetime_curvature
    monkeypatch.setattr(kdm, "spacetime_curvature",
                        lambda *args: calls.append(args) or original(*args))
    # w = 0: the graph develops back into the scene's own wave, checked once
    code, _, _ = run(["ppwave", SCENES / "roundtrip.scene"])
    assert code == 0 and len(calls) == 2
    # w' != 0: the shifted wave is another wave and gets a check of its own
    path = tmp_path / "shifted.scene"
    path.write_text(SMALL_GRID + "[data]\nppwave_f = 1 + 0.2*sin(2*pi*x1)\n"
                    "hypersurface = 0.1*s^2\n")
    calls.clear()
    code, _, _ = run(["ppwave", path])
    assert code in (0, 1) and len(calls) == 3


@pytest.mark.parametrize("graph", ["0", "0.05*s^2"])
def test_a_ppwave_report_lints_its_profile_once(tmp_path, monkeypatch, graph):
    # parse_scene lints f; the shifted wave f - 2w' of a graph w(s) needs no lint of its own
    calls = []
    lint = exprlang.lint_periodicity
    monkeypatch.setattr(exprlang, "lint_periodicity",
                        lambda *args: calls.append(args) or lint(*args))
    path = tmp_path / "graph.scene"
    path.write_text(SMALL_GRID + "[data]\nppwave_f = 1 + 0.2*sin(2*pi*x1)\n"
                    f"hypersurface = {graph}\n")
    assert run(["ppwave", path])[0] in (0, 1)
    assert len(calls) == 1


def test_the_periodicity_lint_does_not_depend_on_the_hash_seed(tmp_path):
    # the lint's sample points are drawn per variable; in set order they followed the seed
    path = tmp_path / "aperiodic.scene"
    path.write_text("[grid]\nn_s = 16\nleaf_counts = 16, 16\nleaf_lengths = 1, 1\n[data]\n"
                    "ppwave_f = 1 + 0.2*sin(2*pi*x1) + 0.1*s*x2 + 0.3*x1*x2\n")
    root = Path(__file__).resolve().parents[1]
    code = f"import sys; from idrig import cli; sys.exit(cli.main(['ppwave', {str(path)!r}]))"
    runs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": str(root / "src"),
                                "PYTHONHASHSEED": seed}, timeout=120)
            for seed in ("1", "2")]
    assert [out.returncode for out in runs] == [2, 2]
    assert "not periodic on the leaves" in runs[0].stderr
    assert runs[0].stderr == runs[1].stderr


def test_a_rigidity_report_builds_nabla_k_once(monkeypatch):
    # j and lambda read one stored nabla k; the other call is the leaf divergence in
    # two-for-three's rate terms, on the leaf metric
    calls = []
    cov_rank2 = geometry.cov_rank2
    monkeypatch.setattr(geometry, "cov_rank2",
                        lambda *args: calls.append(args) or cov_rank2(*args))
    assert run(["rigidity", SCENES / "recipe.scene"])[0] == 0
    assert len(calls) == 2
    ids = scene_initial_data(parse_scene(SCENES / "recipe.scene"))
    assert ids.nu is ids.nu and not ids.nu.flags.writeable


@pytest.mark.parametrize("graph,inverses", [(None, 2), ("0.1*s^2", 3)])
def test_a_ppwave_report_inverts_each_wave_metric_once(tmp_path, monkeypatch, graph, inverses):
    # the wave check and the induction share one connection per wave, so the report inverts
    # the scene's wave, the shifted wave where w' != 0, and the development's metric
    path = SCENES / "roundtrip.scene"
    if graph is not None:
        path = tmp_path / "graph.scene"
        path.write_text(SMALL_GRID + "[data]\nppwave_f = 1 + 0.2*sin(2*pi*x1)\n"
                        f"hypersurface = {graph}\n")
    code, rep, _ = run(["ppwave", path])
    calls = []
    inverse = geometry.inverse
    monkeypatch.setattr(geometry, "inverse", lambda gdata: calls.append(1) or inverse(gdata))
    again = run(["ppwave", path])
    assert len(calls) == inverses
    assert again[0] == code in (0, 1)
    rep.pop("volatile")
    again[1].pop("volatile")
    assert again[1] == rep


def test_killing_dev_on_induced_wave_data():
    code, rep, _ = run(["killing-dev", SCENES / "roundtrip.scene"])
    # identities hold, but the wave violates the energy condition
    assert code == 1
    bad = [k for k, v in rep["verdicts"].items() if not v]
    assert bad == ["dec_margin_min"]
    assert rep["sigma"] == -1.0


def test_wave_scene_without_positive_profile_is_a_scene_error():
    for command in ("constraints", "killing-dev"):
        code, rep, err = run([command, SCENES / "wave.scene"])
        assert code == 2
        assert rep is None
        assert err.startswith("scene error:")
        assert "spacelike" in err


def test_convergence_order_fit():
    code, rep, _ = run(["convergence", SCENES / "convergence.scene",
                        "--check", "parallel_s"])
    assert code == 0 and rep["pass"] is True
    assert rep["check"] == "parallel_s"
    assert rep["levels"] == [11, 22, 44]
    assert rep["floor_hit"] is False
    errs = [rep["residuals"][f"err_n{n}"] for n in (11, 22, 44)]
    assert errs[0] > errs[1] > errs[2] > 0
    assert 3.9 < rep["residuals"]["order"] < 4.3
    assert rep["tolerances"] == {"order": 3.5}
    assert rep["verdicts"] == {"order": True}


def test_convergence_order_threshold_ignores_the_default_tolerance(tmp_path):
    # fd2 on the s axis fits order 2, below the built-in threshold 3.5
    argv = ["convergence", SCENES / "vacuum_kd.scene", "--check", "parallel_s",
            "--scheme-s", "fd2"]
    default = tmp_path / "default.scene"
    default.write_text((SCENES / "vacuum_kd.scene").read_text()
                       + "\n[tolerances]\ndefault = 1e-3\n")
    for scene, extra in ((argv[1], []), (argv[1], ["--tol", "1e-8"]), (default, [])):
        code, rep, _ = run(argv[:1] + [scene] + argv[2:] + extra)
        assert code == 1, extra
        assert 1.9 < rep["residuals"]["order"] < 2.1
        assert rep["tolerances"] == {"order": 3.5}
        assert rep["verdicts"] == {"order": False}
    # only an [tolerances] order key moves the threshold, whatever --tol says
    path = tmp_path / "order.scene"
    path.write_text(default.read_text() + "order = 1.5\n")
    for extra in ([], ["--tol", "1e-8"]):
        code, rep, _ = run(argv[:1] + [path] + argv[2:] + extra)
        assert code == 0, extra
        assert rep["tolerances"] == {"order": 1.5}, extra


# each check's residual, recomputed from the library on the level's own grid
LIBRARY_RESIDUALS = {
    "parallel_s": lambda ids, tau: rigidity.parallel_residuals(ids)["s"],
    "lambda": lambda ids, tau: rigidity.lambda_form(ids).max_norm(),
    "d_phi_lambda": lambda ids, tau: rigidity.closedness_residual(ids, tau)[0].max_norm(),
    "two_for_three": lambda ids, tau: rigidity.two_for_three_residual(
        ids, tau).residual.max_norm(),
    "variation": lambda ids, tau: rigidity.variation_residual(ids, tau).residual.max_norm(),
    "ppwave_formula": lambda spec, tau: kdm.ppwave_einstein_check(spec).formula_residual_max,
}


@pytest.mark.parametrize("check", sorted(CONVERGENCE_CHECKS))
def test_every_convergence_check_reports_the_library_residual(check):
    assert set(LIBRARY_RESIDUALS) == set(CONVERGENCE_CHECKS)
    wave = check == "ppwave_formula"
    path = SCENES / ("wave.scene" if wave else "convergence.scene")
    code, rep, err = run(["convergence", path, "--check", check])
    assert code in (0, 1) and err == ""
    scene = parse_scene(path)
    assert rep["check"] == check and rep["levels"] == [scene.n_s, 2 * scene.n_s, 4 * scene.n_s]
    build = scene_ppwave if wave else scene_initial_data
    for n_s in rep["levels"]:
        expected = LIBRARY_RESIDUALS[check](build(scene, n_s), 0.5 * scene.ell)
        assert rep["residuals"][f"err_n{n_s}"] == float(expected), n_s
    assert set(rep["verdicts"]) == set(rep["tolerances"]) == {"order"}


@pytest.mark.parametrize("check", ["parallel_s", "lambda", "d_phi_lambda"])
def test_connection_checks_build_no_riemann_tensor(monkeypatch, check):
    argv = ["convergence", SCENES / "convergence.scene", "--check", check]
    code, rep, _ = run(argv)

    def forbidden(*args):
        raise AssertionError("a connection-only check built the Riemann tensor")

    monkeypatch.setattr(geometry, "riemann_from", forbidden)
    again = run(argv)
    assert again[0] == code
    rep.pop("volatile")
    again[1].pop("volatile")
    assert again[1] == rep


@pytest.mark.parametrize("argv", [
    ["rigidity", SCENES / "recipe.scene"],
    ["convergence", SCENES / "convergence.scene", "--check", "two_for_three"],
    ["ppwave", SCENES / "roundtrip.scene"],
    ["killing-dev", SCENES / "roundtrip.scene"],
    ["convergence", SCENES / "wave.scene", "--check", "ppwave_formula"],
])
def test_a_report_parses_each_scene_expression_once(monkeypatch, argv):
    texts = []
    parse = exprlang.parse
    monkeypatch.setattr(exprlang, "parse", lambda text: texts.append(text) or parse(text))
    assert run(argv)[0] in (0, 1)
    raw = Path(argv[1]).read_text()
    given = [text for text in texts if text in raw]
    assert given and len(given) == len(set(given)), texts


def test_convergence_floor_on_flat_data():
    code, rep, _ = run(["convergence", SCENES / "flat.scene",
                        "--check", "parallel_s"])
    assert code == 0
    assert rep["floor_hit"] is True
    assert "order" not in rep["residuals"]
    assert rep["verdicts"] == {"order": True}
    for n in (16, 32, 64):
        assert rep["residuals"][f"err_n{n}"] == 0.0


def test_convergence_check_flag_validation():
    code, _, err = run(["convergence", SCENES / "convergence.scene"])
    assert code == 2 and "needs --check" in err
    code, _, err = run(["convergence", SCENES / "convergence.scene",
                        "--check", "bogus"])
    assert code == 2 and "unknown convergence check" in err
    assert "parallel_s" in err  # the message lists the choices


BROKEN_SCENES = {
    "both_sources": ("[data]\nphi = 1\nppwave_f = 1\n",
                     "exactly one of phi and ppwave_f"),
    "bad_expression": ("[data]\nphi = 1 + sin(\n", "[data] phi"),
    "bad_k_kind": ("[data]\nphi = 1\nk = magic\n", "'recipe' or 'explicit'"),
    "k_entry_out_of_range": ("[data]\nphi = 1\nk = explicit\nk_0_7 = 1\n",
                             "outside 0..2"),
    "leaf_metric_shape": ("[data]\nphi = 1\nleaf_metric = 1, 0\n",
                          "must be 2 x 2"),
    "no_data_section": ("", "needs a [data] section"),
    # data that parses but breaks a precondition of the checks
    "nonpositive_lapse": ("[data]\nphi = -1 + 0.1*sin(2*pi*x1)\n",
                          "lapse phi must be positive"),
    "aperiodic_profile": ("[data]\nppwave_f = 1 + 0.2*x1\n",
                          "not periodic on the leaves"),
    "timelike_graph": ("[data]\nppwave_f = 1 + 0.2*sin(2*pi*x1)\nhypersurface = 2*s^2\n",
                       "graph is not spacelike"),
    "indefinite_leaf_metric": ("[data]\nphi = 1\nleaf_metric = 1, 0; 0, -1\n",
                               "metric is not positive definite"),
    "asymmetric_k": ("[data]\nphi = 1\nk = explicit\nk_0_1 = 1\nk_1_0 = 2\n",
                     "k_0_1 and k_1_0 differ"),
    # expressions that are undefined at a node of SMALL_GRID (s = 0.5 is one); the
    # message names the key and gives an offset only into that key's own text
    "lapse_pole": ("[data]\nphi = 1/(s - 0.5)\n",
                   "[data] phi: division produced a non-finite value (offset 0)"),
    "lapse_sqrt_domain": ("[data]\nphi = sqrt(s - 0.5) + 1\n",
                          "[data] phi: sqrt produced a non-finite value (offset 0)"),
    "profile_pole": ("[data]\nppwave_f = 1/(s-0.5)\n",
                     "[data] ppwave_f: division produced a non-finite value (offset 0)"),
    "shifted_profile_pole": ("[data]\nppwave_f = 2 + 1/(s - 0.5)\n",
                             "[data] ppwave_f: division produced a non-finite value (offset 4)"),
    "lapse_derivative_pole": ("[data]\nphi = 2 + sqrt(s)\n",
                              "[data] phi: its derivative d/ds is undefined at a node "
                              "(division produced a non-finite value)"),
    "k_entry_pole": ("[data]\nphi = 1\nk = explicit\nk_1_0 = 2 + 1/(s - 0.5)\n",
                     "[data] k_1_0: division produced a non-finite value (offset 4)"),
    "leaf_metric_pole": ("[data]\nphi = 1\nleaf_metric = 1, 0; 0, 2 + 1/(s - 0.5)\n",
                         "[data] leaf_metric: entry '2 + 1/(s - 0.5)' is undefined at a "
                         "node (division produced a non-finite value)"),
    "graph_slope_domain": ("[data]\nppwave_f = 2 + sin(2*pi*x1)\nhypersurface = sqrt(s - 0.5)\n",
                           "[data] hypersurface: its derivative d/ds is undefined at a node "
                           "(sqrt produced a non-finite value)"),
}
UNDEFINED_EXPRESSIONS = ["lapse_pole", "lapse_sqrt_domain", "profile_pole",
                         "shifted_profile_pole", "lapse_derivative_pole", "k_entry_pole",
                         "leaf_metric_pole", "graph_slope_domain"]


SMALL_GRID = "[grid]\nn_s = 9\nleaf_counts = 8, 8\nleaf_lengths = 1, 1\n"


@pytest.mark.parametrize("name", sorted(BROKEN_SCENES))
def test_scene_validation_errors(tmp_path, name):
    body, needle = BROKEN_SCENES[name]
    path = tmp_path / f"{name}.scene"
    path.write_text(SMALL_GRID + body)
    code, rep, err = run(["constraints", path])
    assert code == 2
    assert rep is None
    assert err.startswith("scene error:")
    assert needle in err


@pytest.mark.parametrize("name", ["aperiodic_profile", "timelike_graph", "profile_pole"])
def test_ppwave_on_bad_wave_data_is_a_scene_error(tmp_path, name):
    body, needle = BROKEN_SCENES[name]
    path = tmp_path / f"{name}.scene"
    path.write_text(SMALL_GRID + body)
    code, rep, err = run(["ppwave", path])
    assert code == 2
    assert rep is None
    assert err.startswith("scene error:") and needle in err


@pytest.mark.parametrize("name", UNDEFINED_EXPRESSIONS)
def test_undefined_expression_names_its_scene_key(tmp_path, name):
    body, message = BROKEN_SCENES[name]
    path = tmp_path / f"{name}.scene"
    path.write_text(SMALL_GRID + body)
    commands = ["constraints", "rigidity"] + (["ppwave"] if "ppwave_f" in body else [])
    for command in commands:
        code, rep, err = run([command, path])
        assert (code, rep, err) == (2, None, f"scene error: {message}\n"), command


def test_a_lapse_whose_square_overflows_is_a_scene_error(tmp_path):
    # finite and positive, but g_ss = phi^2 is not representable
    path = tmp_path / "huge_lapse.scene"
    path.write_text(SMALL_GRID + "[data]\nphi = 1e200*(1 + 0.1*sin(2*pi*x1))\nk = recipe\n")
    for command in ("constraints", "rigidity", "killing-dev"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, rep, err = run([command, path])
        assert (code, rep) == (2, None), command
        assert err == "scene error: lapse phi squared overflows (max |phi| 1.1e+200)\n", command
        assert not caught, command  # no raw RuntimeWarning


def test_an_overflow_inside_a_check_is_one_numerical_failure_line(tmp_path):
    # phi^2 is finite, but a contraction of the recipe's k overflows
    path = tmp_path / "huge_lapse.scene"
    path.write_text(SMALL_GRID + "[data]\nphi = 1e150*(1 + 0.1*sin(2*pi*x1))\nk = recipe\n")
    for command in ("constraints", "rigidity"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, rep, err = run([command, path])
        assert (code, rep) == (3, None), command
        assert err == "numerical failure: overflow encountered in multiply\n", command
        assert not caught, command  # no raw RuntimeWarning


def test_a_huge_lapse_development_is_lorentzian_and_fails_by_overflow(tmp_path):
    # the development of phi = 1e150 (...) has a {v, s} block [[0, 1], [1, phi^2]]:
    # Lorentzian at every node, though unscaled eigvalsh reads its small eigenvalue as 0
    path = tmp_path / "huge_lapse.scene"
    path.write_text(re.sub(r"(?m)^phi = .*$", "phi = 1e150*(1 + 0.1*sin(2*pi*x1))",
                           (SCENES / "recipe.scene").read_text()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, rep, err = run(["killing-dev", path])
    assert (code, rep) == (3, None)
    assert err == "numerical failure: overflow encountered in multiply\n"
    assert not caught  # no raw RuntimeWarning


def test_undefined_expression_on_a_refined_grid_only(tmp_path):
    # s = 1/3 is a node of the 2 n_s and 4 n_s levels but not of n_s = 8
    path = tmp_path / "refined_pole.scene"
    path.write_text(SMALL_GRID.replace("n_s = 9", "n_s = 8")
                    + "[data]\nphi = 2 + 1/(s - 1/3)^2\n")
    assert run(["constraints", path])[0] in (0, 1)
    code, rep, err = run(["convergence", path, "--check", "lambda"])
    assert (code, rep) == (2, None)
    assert err == "scene error: [data] phi: division produced a non-finite value (offset 4)\n"


@pytest.mark.parametrize("phi,offset", [("1 + ²", 4), ("٣", 0)])
def test_a_non_ascii_digit_is_a_scene_error(tmp_path, phi, offset):
    path = tmp_path / "non_ascii.scene"
    path.write_text(SMALL_GRID + f"[data]\nphi = {phi}\n", encoding="utf-8")
    code, rep, err = run(["constraints", path])
    assert (code, rep) == (2, None)
    char = phi[offset]
    assert err == f"scene error: [data] phi: unexpected character {char!r} (offset {offset})\n"


def test_a_scene_that_is_not_utf8_is_a_scene_error(tmp_path):
    # a latin-1 byte in an expression ends in exit 2 with one line, not a decode traceback
    head = (SMALL_GRID + "[data]\nphi = 1 + ").encode()
    path = tmp_path / "latin1.scene"
    path.write_bytes(head + b"\xff\n")
    for argv in (["constraints", path], ["killing-dev", path],
                 ["convergence", path, "--check", "lambda"]):
        code, rep, err = run(argv)
        assert (code, rep) == (2, None), argv
        assert err == (f"scene error: scene {path} is not UTF-8 text: "
                       f"byte 0xff at offset {len(head)}\n"), argv


def test_the_digest_of_a_utf8_scene_is_the_hash_of_its_bytes(tmp_path):
    # bench/reference.json is keyed by the digest, so reading scenes as UTF-8 must keep it
    path = tmp_path / "accented.scene"
    path.write_bytes((SMALL_GRID + "# lapse café, ² in a comment\n[data]\nphi = 1\n").encode())
    for scene in [path, *sorted(SCENES.glob("*.scene"))]:
        assert parse_scene(scene).digest == hashlib.sha256(scene.read_bytes()).hexdigest(), scene


def test_scene_grid_errors(tmp_path):
    code, _, err = run(["constraints", tmp_path / "missing.scene"])
    assert code == 2 and "cannot read scene" in err
    path = tmp_path / "bad.scene"
    path.write_text("[grid]\nell = -2.0\nn_s = 8\nleaf_counts = 8, 8\n"
                    "leaf_lengths = 1, 1\n[data]\nphi = 1\n")
    code, _, err = run(["constraints", path])
    assert code == 2 and "nonpositive length" in err
    path.write_text("[grid]\nn = 4\nn_s = 8\nleaf_counts = 8, 8\n"
                    "leaf_lengths = 1, 1\n[data]\nphi = 1\n")
    code, _, err = run(["constraints", path])
    assert code == 2 and "leaves imply 3" in err
    path.write_text("[grid]\nn = abc\nn_s = 8\nleaf_counts = 8, 8\n"
                    "leaf_lengths = 1, 1\n[data]\nphi = 1\n")
    code, _, err = run(["constraints", path])
    assert code == 2 and err.startswith("scene error: [grid] values")
    # infinite lengths and bad tolerances stop every command before it runs
    for grid_lines in ("ell = inf\nleaf_lengths = 1, 1\n", "leaf_lengths = inf, 1\n"):
        path.write_text("[grid]\nn_s = 8\nleaf_counts = 8, 8\n" + grid_lines
                        + "[data]\nphi = 1\n")
        for command in ("constraints", "rigidity"):
            code, _, err = run([command, path])
            assert code == 2 and "non-finite length inf" in err
    for value in ("-1", "nan", "inf"):
        path.write_text("[grid]\nn_s = 8\nleaf_counts = 8, 8\nleaf_lengths = 1, 1\n"
                        f"[data]\nphi = 1\n[tolerances]\ndefault = {value}\n")
        code, _, err = run(["constraints", path])
        assert code == 2 and "[tolerances] default must be finite and >= 0" in err
    # the wave commands need a scene with a ppwave_f profile
    for argv in (["ppwave", SCENES / "recipe.scene"],
                 ["convergence", SCENES / "recipe.scene", "--check", "ppwave_formula"]):
        code, _, err = run(argv)
        assert code == 2 and err == "scene error: scene has no wave profile\n"


def test_argparse_rejects_bad_invocations():
    with pytest.raises(SystemExit) as exc:
        run(["bogus", SCENES / "flat.scene"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["constraints", SCENES / "flat.scene", "--scheme-s", "spectral"])
    assert exc.value.code == 2
    for count in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            run(["killing-dev", SCENES / "vacuum_kd.scene", "--directions", count])
        assert exc.value.code == 2
    for tol in ("nan", "-1", "inf"):
        with pytest.raises(SystemExit) as exc:
            run(["constraints", SCENES / "flat.scene", "--tol", tol])
        assert exc.value.code == 2
    # --check refines a convergence residual and means nothing to the other commands
    with pytest.raises(SystemExit) as exc:
        run(["constraints", SCENES / "flat.scene", "--check", "lambda"])
    assert exc.value.code == 2


def test_one_parser_serves_every_call_with_the_same_messages(capsys):
    assert cli.build_parser() is cli.build_parser()
    bad = ["constraints", str(SCENES / "flat.scene"), "--tol", "-1"]
    outcomes = []
    for argv in (bad, ["constraints", str(SCENES / "flat.scene")], bad):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        outcomes.append((code, capsys.readouterr().err))
    assert outcomes[0] == outcomes[2] and outcomes[1] == (0, "")
    assert outcomes[0][0] == 2 and "--tol must be finite and >= 0, got -1.0" in outcomes[0][1]


@pytest.mark.parametrize("count", (4097, 10**20))
def test_directions_above_the_cap_exit_2_before_any_scan(count, tmp_path, monkeypatch, capsys):
    ran = counting_commands(monkeypatch)
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["killing-dev", str(SCENES / "flat.scene"), "--directions", str(count),
              "--out", str(out)])
    assert exc.value.code == 2
    assert f"--directions must be at most 4096, got {count}" in capsys.readouterr().err
    assert ran == [] and not out.exists()


def counting_commands(monkeypatch):
    """Replace every command by a counting wrapper; returns the list of names run."""
    ran = []
    for name, command in cli.COMMANDS.items():
        def counted(scene, args, name=name, command=command):
            ran.append(name)
            return command(scene, args)
        monkeypatch.setitem(cli.COMMANDS, name, counted)
    return ran


def test_out_flag_and_determinism(tmp_path, monkeypatch):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for path in (first, second):
        code, rep, _ = run(["constraints", SCENES / "flat.scene", "--out", path])
        assert code == 0
        assert rep is None  # report went to the file, not stdout
    blank = lambda text: re.sub(r'"volatile": "[^"]*"', '"volatile": ""', text)
    assert blank(first.read_text()) == blank(second.read_text())
    rep = json.loads(first.read_text())
    assert re.fullmatch(r"[0-9T:+\-]+ runtime=\d+\.\d{3}s", rep["volatile"])
    # a path that cannot be written exits 2 with one line naming it, before any work
    ran = counting_commands(monkeypatch)
    missing = tmp_path / "missing" / "r.json"
    for path, reason in ((missing, "No such file or directory"), (tmp_path, "Is a directory"),
                         (first / "r.json", "Not a directory")):
        result = run_text(["constraints", SCENES / "flat.scene", "--out", path])
        assert result == (2, "", f"output error: {path}: {reason}\n")
    assert ran == [] and not missing.parent.exists()


def test_a_grid_too_large_for_memory_exits_two(tmp_path):
    # 10^12 s nodes fail at the first allocation, so no test here comes near the RAM size
    scene = tmp_path / "huge.scene"
    flat = (SCENES / "flat.scene").read_text()
    scene.write_text(flat.replace("n_s = 16", "n_s = 1000000000000"))
    report = tmp_path / "r.json"
    for flags in ([], ["--out", report]):
        result = run_text(["constraints", scene, *flags])
        assert result == (2, "", "scene error: a grid of 256000000000000 nodes does not fit "
                                 "in memory\n")
    assert not report.exists()


def test_dump_fields_constraints(tmp_path, monkeypatch):
    out = tmp_path / "fields"
    code, _, _ = run(["constraints", SCENES / "flat.scene",
                      "--dump-fields", out])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "dec_margin.csv", "j.csv", "rho.csv"]
    lines = (out / "rho.csv").read_text().splitlines()
    assert lines[0] == "s,x1,x2,comp,value"
    assert len(lines) - 1 == 16 * 16 * 16
    assert lines[1] == "0,0,0,comp,0"
    lines = (out / "j.csv").read_text().splitlines()
    assert len(lines) - 1 == 3 * 16 * 16 * 16
    assert lines[1].endswith("comp_0,0")
    # a directory path that names an existing file exits 2 with one line naming it, before
    # the command runs, so no report goes to stdout or --out
    ran = counting_commands(monkeypatch)
    report = tmp_path / "ok.json"
    for flags in ([], ["--out", report]):
        result = run_text(["constraints", SCENES / "flat.scene",
                           "--dump-fields", out / "rho.csv", *flags])
        assert result == (2, "", f"output error: {out / 'rho.csv'}: File exists\n")
    below = out / "rho.csv" / "deeper"
    result = run_text(["constraints", SCENES / "flat.scene", "--dump-fields", below])
    assert result == (2, "", f"output error: {below}: Not a directory\n")
    assert ran == [] and not report.exists()


def test_dump_fields_frame_table(tmp_path):
    out = tmp_path / "table"
    code, _, _ = run(["killing-dev", SCENES / "vacuum_kd.scene",
                      "--dump-fields", out])
    assert code == 0
    lines = (out / "frame_table.csv").read_text().splitlines()
    assert lines[0] == "s,x1,x2,comp,value"
    assert len(lines) - 1 == 21 * 16 * 16 * 16
    assert lines[1] == "0,0,0,ein_e0_e0,0"
