"""Golden reports: fixed idrig command lines against reports stored in tests/golden/.

Each case stores its exit code, its stderr and its report without the
`volatile` field.  Exit codes, stderr, verdicts, tolerances and every other
key must match exactly; residuals within 1e-10 + 1e-9 |ref|.

The stored reports change only through the regeneration command, run from the
repository root:

    PYTHONPATH=src python tests/test_golden.py --regenerate

which rewrites tests/golden/reports.json.  A residual within the tolerance
above of its stored value keeps the stored value, so a round-off move (another
BLAS kernel, say) rewrites nothing; it is printed as "within tolerance, kept".
Every other key that differs at all is rewritten and printed as "changed".
"""
import contextlib
import io
import json
import sys
import warnings
from pathlib import Path

import pytest

from idrig import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
REPORTS = GOLDEN / "reports.json"

# the benchmark's seven shipped-scene commands, then the other convergence
# checks and the --tol run, then the scenes whose metrics are diagonal with a
# null block (recipe development), dense (off-diagonal leaf metric) or
# indefinite, then a pp-wave and a recipe on a 4D grid (8^4 nodes) and on the
# small 2D grid (16 x 32 nodes)
CASES = [
    ["constraints", "scenes/constant_k.scene"],
    ["constraints", "scenes/flat.scene"],
    ["rigidity", "scenes/recipe.scene"],
    ["killing-dev", "scenes/vacuum_kd.scene"],
    ["ppwave", "scenes/wave.scene"],
    ["ppwave", "scenes/roundtrip.scene"],
    ["convergence", "scenes/convergence.scene", "--check", "parallel_s"],
    ["killing-dev", "scenes/recipe.scene"],
    ["convergence", "scenes/convergence.scene", "--check", "two_for_three"],
] + [["convergence", "scenes/convergence.scene", "--check", check]
     for check in ("lambda", "d_phi_lambda", "variation")] + [
    ["convergence", "scenes/wave.scene", "--check", "ppwave_formula"],
    ["ppwave", "scenes/wave.scene", "--tol", "1e-3"],
] + [[command, f"tests/golden/{scene}.scene"]
     for scene in ("offdiag", "indefinite")
     for command in ("constraints", "rigidity", "killing-dev")] + [
    [command, f"tests/golden/{scene}{dim}.scene"]
    for dim in ("4d", "2d")
    for scene, commands in (("wave", ("ppwave",)), ("recipe", ("rigidity", "killing-dev")))
    for command in commands]


def _label(argv):
    return " ".join(argv)


def run_case(argv):
    """Exit code, stderr and report without `volatile` of one idrig command line."""
    command, scene, *flags = argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True):
        code = cli.main([command, str(ROOT / scene), *flags])
    report = json.loads(out.getvalue()) if out.getvalue() else None
    if report is not None:
        del report["volatile"]
    return {"argv": list(argv), "exit": code, "stderr": err.getvalue(), "report": report}


def residual_close(value, ref):
    if value is None or ref is None:
        return value is ref
    return abs(value - ref) <= 1e-10 + 1e-9 * abs(ref)


def differences(got, ref, close=residual_close):
    """Keys of one case whose value in `got` does not match `ref`."""
    diffs = [key for key in ("argv", "exit", "stderr") if got[key] != ref[key]]
    if (got["report"] is None) != (ref["report"] is None):
        return diffs + ["report"]
    if got["report"] is None:
        return diffs
    rep, want = got["report"], ref["report"]
    for key in sorted(set(rep) | set(want)):
        if key == "residuals":
            continue
        if rep.get(key, KeyError) != want.get(key, KeyError):
            diffs.append(f"report.{key}")
    res, want_res = rep.get("residuals", {}), want.get("residuals", {})
    for key in sorted(set(res) | set(want_res)):
        if key not in res or key not in want_res or not close(res[key], want_res[key]):
            diffs.append(f"residuals.{key}")
    return diffs


def _stored():
    return json.loads(REPORTS.read_text())


@pytest.mark.parametrize("argv", CASES, ids=_label)
def test_report_matches_golden(argv):
    ref = _stored()[_label(argv)]
    got = run_case(argv)
    diffs = differences(got, ref)
    detail = {key: (got["report"] or {}).get("residuals", {}).get(key.split(".", 1)[-1])
              for key in diffs}
    assert not diffs, f"{_label(argv)} differs from its golden report in {diffs}: {detail}"


def test_golden_file_covers_exactly_the_cases():
    assert sorted(_stored()) == sorted(_label(argv) for argv in CASES)


def test_residual_tolerance_is_relative_and_absolute():
    assert residual_close(1.0 + 5e-10, 1.0)
    assert not residual_close(1.0 + 2e-9, 1.0)
    assert residual_close(5e-11, 0.0)
    assert not residual_close(2e-10, 0.0)
    assert residual_close(None, None) and not residual_close(0.0, None)


def test_regeneration_keeps_residuals_within_tolerance(tmp_path, monkeypatch, capsys):
    stored = {"exit": 1, "stderr": "", "report": {
        "pass": False, "residuals": {"kept": 1.0, "moved": 1.0, "other": 2.0}}}
    computed = {"exit": 1, "stderr": "", "report": {
        "pass": True, "residuals": {"kept": 1.0 + 4e-16, "moved": 1.1, "other": 2.0}}}
    reports = tmp_path / "reports.json"
    reports.write_text(json.dumps({"a b": {"argv": ["a", "b"], **stored}}))
    monkeypatch.setattr(sys.modules[__name__], "REPORTS", reports)
    monkeypatch.setattr(sys.modules[__name__], "CASES", [["a", "b"]])
    monkeypatch.setattr(sys.modules[__name__], "run_case",
                        lambda argv: {"argv": list(argv), **json.loads(json.dumps(computed))})
    regenerate()
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["a b: report.pass changed", "a b: residuals.kept within tolerance, kept",
                     "a b: residuals.moved changed"]
    written = json.loads(reports.read_text())["a b"]["report"]
    assert written == {"pass": True, "residuals": {"kept": 1.0, "moved": 1.1, "other": 2.0}}


def regenerate():
    """Rewrite the stored reports; a residual within residual_close of its stored value is kept.

    So a residual that only moved by round-off (say, another BLAS kernel) is
    not rewritten.  Prints every key that differs at all, as kept or changed.
    """
    old = _stored() if REPORTS.exists() else {}
    new = {_label(argv): run_case(argv) for argv in CASES}
    for label, case in new.items():
        if label not in old:
            print(f"{label}: new case")
            continue
        ref = old[label]
        for key in differences(case, ref, close=lambda a, b: a == b):
            name = key.removeprefix("residuals.")
            stored = (ref["report"] or {}).get("residuals", {})
            computed = (case["report"] or {}).get("residuals", {})
            if key != name and name in stored and name in computed and residual_close(
                    computed[name], stored[name]):
                computed[name] = stored[name]
                print(f"{label}: {key} within tolerance, kept")
            else:
                print(f"{label}: {key} changed")
    for label in sorted(set(old) - set(new)):
        print(f"{label}: case removed")
    REPORTS.write_text(json.dumps(new, sort_keys=True, indent=1) + "\n")

if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate")
    regenerate()
