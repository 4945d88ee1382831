"""Golden reports: fixed idrig command lines against reports stored in tests/golden/.

Each case stores its exit code, its stderr and its report without the
`volatile` field.  Exit codes, stderr, verdicts, tolerances and every other
key must match exactly; residuals within 1e-10 + 1e-9 |ref|.  A few command
lines also run with --dump-fields; their exit codes, CSV headers and labels
must match exactly, every number in the CSVs within the same tolerance.

The stored reports change only through the regeneration command, run from the
repository root:

    PYTHONPATH=src python tests/test_golden.py --regenerate

which rewrites tests/golden/reports.json, tests/golden/fields.json and
tests/golden/fields3d.json.gz.  A
residual or CSV number within the tolerance above of its stored value keeps
the stored value, so a round-off move (another BLAS kernel, say) rewrites
nothing; it is printed as "within tolerance, kept".  Every other key that
differs at all is rewritten and printed as "changed".

    PYTHONPATH=src python tests/test_golden.py --hashes

prints one sha256 per line, each followed by its label: of every golden
command line (exit code, stderr and report without `volatile`), of every
--dump-fields golden's CSVs, and of every benchmark report at seeds 0-2, on
scenes that bench/workloads.py writes into a temporary directory.  Reports are
deterministic apart from `volatile`, so two runs print the same lines, and a
change that keeps every result bit for bit leaves the output as it was.
"""
import contextlib
import csv
import gzip
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from idrig import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
REPORTS = GOLDEN / "reports.json"
FIELDS = GOLDEN / "fields.json"
FIELDS_3D = GOLDEN / "fields3d.json.gz"

# the benchmark's seven shipped-scene commands, then the other convergence
# checks and the --tol run, then the scenes whose metrics are diagonal with a
# null block (recipe development), dense (off-diagonal leaf metric),
# indefinite, or diagonal with a development metric constant along no grid
# axis (allaxes), then a pp-wave and a recipe on a 4D grid (8^4 nodes) and on the
# small 2D grid (16 x 32 nodes), then the energy scan on a frame Einstein table
# that is non-zero and constant along x2 (roundtrip) and on one that is exactly
# 0 and constant along every axis (constant_k), then the rigidity report on a
# leaf metric that varies along s (svary_metric) and on a k whose leaf and
# normal blocks vary along s over a metric that does not (svary_k), then the
# recipe under the periodic fd2 and fd4 leaf stencils, and a lapse that the
# parser folds and differentiates through each rule (folding: exit 2)
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
     for scene in ("offdiag", "indefinite", "allaxes")
     for command in ("constraints", "rigidity", "killing-dev")] + [
    [command, f"tests/golden/{scene}{dim}.scene"]
    for dim in ("4d", "2d")
    for scene, commands in (("wave", ("ppwave",)), ("recipe", ("rigidity", "killing-dev")))
    for command in commands] + [
    ["killing-dev", "scenes/roundtrip.scene"], ["killing-dev", "scenes/constant_k.scene"]] + [
    ["rigidity", f"tests/golden/{scene}.scene"] for scene in ("svary_metric", "svary_k")] + [
    ["rigidity", "scenes/recipe.scene", "--scheme-leaf", scheme] for scheme in ("fd2", "fd4")] + [
    ["rigidity", "tests/golden/folding.scene"]]


# the command lines whose --dump-fields CSVs are stored: in fields.json the
# three data-set commands on the 2D recipe and the pp-wave on the 2D wave; in
# fields3d.json.gz, gzipped because their CSVs run to megabytes, the shipped 3D
# recipe (constant along s and x2), vacuum development (constant along both
# leaf axes), round-trip wave and constant-k data
FIELD_CASES = [[command, "tests/golden/recipe2d.scene"]
               for command in ("constraints", "rigidity", "killing-dev")] + [
    ["ppwave", "tests/golden/wave2d.scene"]]
FIELD_CASES_3D = [["rigidity", "scenes/recipe.scene"], ["killing-dev", "scenes/vacuum_kd.scene"],
                  ["ppwave", "scenes/roundtrip.scene"], ["constraints", "scenes/constant_k.scene"]]


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


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def run_fields(argv):
    """Exit code and the cells of every CSV that one command line writes with --dump-fields.

    Each file is stored as its header and its columns; a cell that parses as a
    number is stored as a float, any other cell as its text.
    """
    command, scene = argv
    with tempfile.TemporaryDirectory() as directory, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings(record=True):
        code = cli.main([command, str(ROOT / scene), "--dump-fields", directory])
        files = {}
        for path in sorted(Path(directory).glob("*.csv")):
            with open(path, newline="") as fh:
                header, *rows = list(csv.reader(fh))
            files[path.name] = {"header": header,
                                "columns": [[_cell(text) for text in column]
                                            for column in zip(*rows)]}
    return {"argv": list(argv), "exit": code, "files": files}


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


def field_differences(got, ref, close=residual_close):
    """Per differing file and column, the cell positions whose value in `got` does not match `ref`.

    Numbers match within `close`, text exactly; a differing exit code, file
    set, header or column length is reported under its own key.
    """
    diffs = {key: None for key in ("argv", "exit") if got[key] != ref[key]}
    for name in sorted(set(got["files"]) | set(ref["files"])):
        mine, want = got["files"].get(name), ref["files"].get(name)
        if mine is None or want is None or mine["header"] != want["header"] or [
                len(column) for column in mine["columns"]] != [
                len(column) for column in want["columns"]]:
            diffs[name] = None
            continue
        for head, column, ref_column in zip(want["header"], mine["columns"], want["columns"]):
            bad = [i for i, (a, b) in enumerate(zip(column, ref_column))
                   if (a != b if isinstance(a, str) or isinstance(b, str) else not close(a, b))]
            if bad:
                diffs[f"{name}:{head}"] = bad
    return diffs


def _stored(path=None):
    path = path or REPORTS
    if path.suffix == ".gz":
        return json.loads(gzip.decompress(path.read_bytes()))
    return json.loads(path.read_text())


def _field_store(argv):
    return FIELDS_3D if argv in FIELD_CASES_3D else FIELDS


@pytest.mark.parametrize("argv", CASES, ids=_label)
def test_report_matches_golden(argv):
    ref = _stored()[_label(argv)]
    got = run_case(argv)
    diffs = differences(got, ref)
    detail = {key: (got["report"] or {}).get("residuals", {}).get(key.split(".", 1)[-1])
              for key in diffs}
    assert not diffs, f"{_label(argv)} differs from its golden report in {diffs}: {detail}"


@pytest.mark.parametrize("argv", FIELD_CASES + FIELD_CASES_3D, ids=_label)
def test_dumped_fields_match_golden(argv):
    ref = _stored(_field_store(argv))[_label(argv)]
    got = run_fields(argv)
    assert got["files"], f"{_label(argv)} wrote no CSV"
    diffs = field_differences(got, ref)
    assert not diffs, f"{_label(argv)} differs from its golden CSVs in {diffs}"


def test_golden_file_covers_exactly_the_cases():
    assert sorted(_stored()) == sorted(_label(argv) for argv in CASES)
    assert sorted(_stored(FIELDS)) == sorted(_label(argv) for argv in FIELD_CASES)
    assert sorted(_stored(FIELDS_3D)) == sorted(_label(argv) for argv in FIELD_CASES_3D)


def test_field_comparison_is_cellwise():
    ref = {"argv": ["a", "b"], "exit": 0, "files": {"f.csv": {
        "header": ["s", "comp", "value"], "columns": [[0.0, 0.5], ["c", "c"], [1.0, 0.0]]}}}
    got = json.loads(json.dumps(ref))
    assert field_differences(got, ref) == {}
    got["files"]["f.csv"]["columns"][2] = [1.0 + 5e-10, 5e-11]
    assert field_differences(got, ref) == {}
    got["files"]["f.csv"]["columns"][2] = [1.0, 2e-10]
    got["files"]["f.csv"]["columns"][1] = ["c", "d"]
    assert field_differences(got, ref) == {"f.csv:comp": [1], "f.csv:value": [1]}
    got["files"]["f.csv"]["columns"][2].append(0.0)
    assert field_differences(got, ref) == {"f.csv": None}
    got["files"] = {}
    got["exit"] = 1
    assert field_differences(got, ref) == {"exit": None, "f.csv": None}


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


def test_field_regeneration_keeps_numbers_within_tolerance(tmp_path, monkeypatch, capsys):
    def case(kept, moved):
        return {"argv": ["a", "b"], "exit": 0, "files": {"f.csv": {
            "header": ["comp", "kept", "moved"], "columns": [["c", "c"], kept, moved]}}}

    fields = tmp_path / "fields.json"
    fields.write_text(json.dumps({"a b": case([1.0, 2.0], [1.0, 2.0])}))
    monkeypatch.setattr(sys.modules[__name__], "FIELDS", fields)
    monkeypatch.setattr(sys.modules[__name__], "FIELD_CASES", [["a", "b"]])
    monkeypatch.setattr(sys.modules[__name__], "run_fields",
                        lambda argv: case([1.0 + 4e-16, 2.0], [1.0, 2.1]))
    regenerate_fields()
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["a b: f.csv:kept within tolerance, kept", "a b: f.csv:moved changed"]
    assert json.loads(fields.read_text()) == {"a b": case([1.0, 2.0], [1.0, 2.1])}


def test_hash_lines_digest_each_case_without_its_argv(monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "CASES", [["a", "b"]])
    monkeypatch.setattr(sys.modules[__name__], "FIELD_CASES", [["c", "d"]])
    monkeypatch.setattr(sys.modules[__name__], "FIELD_CASES_3D", [])
    monkeypatch.setattr(sys.modules[__name__], "run_case",
                        lambda argv: {"argv": list(argv), "exit": 0, "report": None})
    monkeypatch.setattr(sys.modules[__name__], "run_fields",
                        lambda argv: {"argv": list(argv), "exit": 0, "files": {}})
    lines = list(hash_lines(seeds=()))
    assert [line.split("  ", 1)[1] for line in lines] == ["a b", "c d --dump-fields"]
    assert lines[0].split()[0] == hashlib.sha256(b'{"exit": 0, "report": null}').hexdigest()
    assert lines[1].split()[0] == hashlib.sha256(b'{"exit": 0, "files": {}}').hexdigest()


def _digest(case):
    """sha256 of one case without its argv, which may name a temporary directory."""
    rest = {key: value for key, value in case.items() if key != "argv"}
    return hashlib.sha256(json.dumps(rest, sort_keys=True).encode()).hexdigest()


def hash_lines(seeds=range(3)):
    """"<sha256>  <label>" of every golden case, every field case and every benchmark
    report at `seeds`."""
    for argv in CASES:
        yield f"{_digest(run_case(argv))}  {_label(argv)}"
    for argv in FIELD_CASES + FIELD_CASES_3D:
        yield f"{_digest(run_fields(argv))}  {_label(argv)} --dump-fields"
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, write_scenes
    with tempfile.TemporaryDirectory() as directory:
        for workload in WORKLOADS:
            for seed in seeds:
                scenes = Path(directory) / f"{workload}-{seed}"
                for report in write_scenes(workload, seed, scenes, ROOT / "scenes"):
                    yield (f"{_digest(run_case(report.argv(scenes)))}  "
                           f"{workload} seed {seed}: {report.label}")


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


def regenerate_fields(path=None, cases=None):
    """Rewrite the CSV store `path` (fields.json) of `cases` (FIELD_CASES), keeping every
    stored number within residual_close."""
    path, cases = path or FIELDS, cases or FIELD_CASES
    old = _stored(path) if path.exists() else {}
    new = {_label(argv): run_fields(argv) for argv in cases}
    for label, case in new.items():
        if label not in old:
            print(f"{label}: new field case")
            continue
        ref = old[label]
        exact = field_differences(case, ref, close=lambda a, b: a == b)
        loose = field_differences(case, ref)
        for key, cells in exact.items():
            if key in loose:
                print(f"{label}: {key} changed")
                continue
            name, head = key.split(":", 1)
            column = ref["files"][name]["header"].index(head)
            kept = case["files"][name]["columns"][column]
            stored = ref["files"][name]["columns"][column]
            for i in cells:  # every differing cell is within tolerance
                kept[i] = stored[i]
            print(f"{label}: {key} within tolerance, kept")
    for label in sorted(set(old) - set(new)):
        print(f"{label}: field case removed")
    text = json.dumps(new, sort_keys=True, separators=(",", ":")) + "\n"
    if path.suffix == ".gz":
        path.write_bytes(gzip.compress(text.encode(), mtime=0))
    else:
        path.write_text(text)

if __name__ == "__main__":
    if sys.argv[1:] == ["--hashes"]:
        for line in hash_lines():
            print(line, flush=True)
    elif sys.argv[1:] == ["--regenerate"]:
        regenerate()
        regenerate_fields()
        regenerate_fields(FIELDS_3D, FIELD_CASES_3D)
    else:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate | --hashes")
