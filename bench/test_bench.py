"""Self-tests of the benchmark: run with ``python3 -m pytest bench -q`` from the root."""

import json
import math
import sys

import pytest

import check
import run
import tracer as tracing
from workloads import GENERATORS, SHIPPED, WORKLOADS, Report, write_scenes

sys.path.insert(0, str(run.SRC))

from idrig import cli  # noqa: E402


def _strip_volatile(text):
    return [line for line in text.splitlines() if '"volatile"' not in line]


def _traced(fn):
    tracer = tracing.Tracer().install()
    tracer.report = [0, 0]
    try:
        return fn(), tracer
    finally:
        tracer.uninstall()


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_seed_fixes_the_scenes(tmp_path):
    for workload in WORKLOADS:
        first = write_scenes(workload, 3, tmp_path / "a", run.SHIPPED_SCENES)
        again = write_scenes(workload, 3, tmp_path / "b", run.SHIPPED_SCENES)
        assert first == again
        for report in first:
            assert ((tmp_path / "a" / report.scene).read_text()
                    == (tmp_path / "b" / report.scene).read_text())
    other = write_scenes("grid4d", 4, tmp_path / "c", run.SHIPPED_SCENES)
    assert (tmp_path / "c" / other[0].scene).read_text() != (
        tmp_path / "a" / other[0].scene).read_text()
    orders = {tuple(r.label for r in write_scenes("scenes3d", seed, tmp_path / "d",
                                                  run.SHIPPED_SCENES))
              for seed in range(8)}
    assert len(orders) > 1
    assert {tuple(sorted(order)) for order in orders} == {
        tuple(sorted(" ".join((cmd, name) + flags) for cmd, name, flags in SHIPPED))}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_reports_match_untraced(tmp_path, workload):
    reports = write_scenes(workload, 1, tmp_path, run.SHIPPED_SCENES, shrink=True)
    for report in reports:
        code, text, *_ = run.run_report(cli, report, tmp_path)
        (traced_code, traced_text, *_), tracer = _traced(
            lambda: run.run_report(cli, report, tmp_path))
        assert tracer.spans
        assert traced_code == code
        assert _strip_volatile(traced_text) == _strip_volatile(text)


def test_uninstall_restores_every_binding():
    from idrig import initial_data, mesh, rigidity
    before = (cli.main, cli.COMMANDS["rigidity"], cli.constraints, rigidity.constraints,
              initial_data.constraints, mesh.partial, initial_data.InitialDataSet.curvature)
    _, tracer = _traced(lambda: None)
    after = (cli.main, cli.COMMANDS["rigidity"], cli.constraints, rigidity.constraints,
             initial_data.constraints, mesh.partial, initial_data.InitialDataSet.curvature)
    assert after == before


def _pass_counts(tracer):
    own = tracing.self_times(tracer.spans)
    return tracing.pass_metrics(tracer.spans, own, range(len(tracer.spans)))


def test_rigidity_recipe_call_counts():
    report = next(Report(cmd, f"{name}.scene", flags)
                  for cmd, name, flags in SHIPPED if name == "recipe")
    (code, *_), tracer = _traced(lambda: run.run_report(cli, report, run.SHIPPED_SCENES))
    assert code in (0, 1)
    counts = _pass_counts(tracer)
    assert counts["initial_data.constraints.calls"] == 7
    assert counts["rigidity.lambda_form.calls"] == 9
    assert counts["rigidity.theta_plus_field.calls"] == 7
    assert counts["killing_dev.spacetime_curvature.calls"] == 0


def test_tracer_reaches_every_listed_function(tmp_path):
    seen = {}
    for workload in WORKLOADS:
        reports = write_scenes(workload, 2, tmp_path / workload, run.SHIPPED_SCENES,
                               shrink=True)
        _, tracer = _traced(lambda: [run.run_report(cli, r, tmp_path / workload)
                                     for r in reports])
        for name, value in _pass_counts(tracer).items():
            seen[name] = max(seen.get(name, 0.0), value)
    assert set(seen) == set(tracing.PASS_METRICS)
    missing = [name for name, value in seen.items() if not value > 0]
    assert missing == []


@pytest.mark.parametrize("workload,seeds", [("small2d", range(40)), ("grid4d", range(6))])
def test_generated_scenes_never_exit_2_or_3(tmp_path, workload, seeds):
    assert workload in GENERATORS
    for seed in seeds:
        reports = write_scenes(workload, seed, tmp_path / str(seed), run.SHIPPED_SCENES,
                               shrink=True)
        for report in reports:
            code, text, *_ = run.run_report(cli, report, tmp_path / str(seed))
            assert code in (0, 1), (seed, report.label)
            assert check.problems(code, text, {}) == [], (seed, report.label)


def _fake(residuals, command="ppwave"):
    return json.dumps({"command": command, "digest": "d", "residuals": residuals})


def test_check_flags_each_kind_of_failure():
    good = {"formula_residual_max": 1e-14, "rho_max": 2.0}
    assert check.problems(0, _fake(good), {}) == []
    assert check.problems(1, _fake(good), {}) == []
    assert check.problems(2, "", {}) and check.problems(3, "", {})
    assert check.problems(None, "", {})
    assert check.problems(0, _fake(dict(good, rho_max=math.inf)), {})
    assert check.problems(0, _fake(dict(good, formula_residual_max=1e-6)), {})
    reference = {"ppwave||d": dict(good)}
    assert check.problems(0, _fake(good), reference) == []
    assert check.problems(0, _fake(dict(good, rho_max=2.0 + 1e-6)), reference)
    assert check.problems(0, _fake(dict(good, extra=0.0)), reference)


def test_reference_covers_the_shipped_scenes_and_default_seed(tmp_path):
    reference = check.load_reference()
    for workload in WORKLOADS:
        reports = write_scenes(workload, run.DEFAULT_SEED, tmp_path / workload,
                               run.SHIPPED_SCENES)
        for report in reports:
            scene = cli.parse_scene(tmp_path / workload / report.scene)
            check_name = report.flags[1] if report.flags else ""
            assert f"{report.command}|{check_name}|{scene.digest}" in reference


def test_rescale_uses_the_samples_inside_and_beside_an_interval():
    import speed
    core = speed.CoreSpeed()
    core.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    core.seconds = [0.004, 0.01, 0.01, 0.002, 0.004]
    busy, rescaled = core.rescale(0.5, 2.5)
    assert busy == pytest.approx(2.0 - 0.02)
    # samples at 1 and 2 lie inside; those at 0 and 3 are the neighbours
    assert rescaled == pytest.approx(busy * speed.REFERENCE_S / 0.0065)
    assert speed.rescaled(1.0, 0.004, 0.006) == pytest.approx(speed.REFERENCE_S / 0.005)
