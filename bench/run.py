#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of idrig.

Run from the repository root::

    python3 bench/run.py --workload small2d --seed 1 --seconds 30 --trace 0

Each run is one workload in a fresh process, pinned to one core, with BLAS
and OpenMP held to one thread.  Every report goes through the public
``idrig.cli.main`` and is checked by ``check.py``.  A run has three phases:

1. set-up probes: ``SETUP_PROBES`` fresh processes each do the set-up alone;
   ``setup_s`` is the median time from spawning one to its being ready for
   the first timed report (interpreter start, imports, writing and parsing
   the scenes, and a warm-up that runs every report once on a shrunken grid);
2. the same set-up in this process;
3. passes over the workload's reports for about ``--seconds``.

With ``--trace 0`` the last line carries the end-to-end metrics: ``pass_s``
(median pass), ``setup_s``, ``peak_rss_mb`` (this process) and
``correct_frac`` (reports that pass the check over reports attempted, that is
one minus the failed fraction; the failed fraction itself is 0 when all is
well).  Both times are rescaled to a reference core speed by ``speed.py``;
the wall times are in the run's metadata.

With ``--trace 1`` untraced and traced passes alternate, and the last line
carries the per-layer metrics: ``tracer.PASS_METRICS`` (medians over traced
passes), ``proc.*`` from ``getrusage`` deltas per traced pass, and
``trace.overhead_frac``, the traced median pass wall time over the untraced
one, minus one.  ``geometry.contract_gflops`` and ``mesh.partial.points``
are computed from input shapes, not counted by hardware.

Everything a run writes goes under ``.bench_out/`` at the repository root:
the result with run metadata and raw samples, and for traced runs the spans.
``--write-reference`` runs every workload once on the default seed and
rewrites ``reference.json``.
"""

import os

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS and OpenMP thread, set before anything imports numpy
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, write_scenes  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SHIPPED_SCENES = ROOT / "scenes"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 0
SETUP_PROBES = 3

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "correct_frac": "ratio"}
PER_LAYER = dict(tracing.PASS_METRICS, **{
    "proc.sys_s": "s", "proc.minor_faults": "count", "trace.overhead_frac": "ratio"})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference.json from one pass per workload "
                             "on the default seed")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def run_report(cli, report, scene_dir):
    """(exit code, or None if it raised; stdout text; start; end) of one report."""
    out = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(report.argv(scene_dir))
    except Exception:  # a crash is a failed report, not a failed benchmark
        traceback.print_exc()
        code = None
    return code, out.getvalue(), started, time.perf_counter()


def setup(workload, seed, workdir):
    """Import idrig, write and parse the scenes, warm up; return (cli, reports)."""
    cli = importlib.import_module("idrig.cli")
    scene = importlib.import_module("idrig.scene")
    reports = write_scenes(workload, seed, workdir / "scenes", SHIPPED_SCENES)
    for report in reports:
        scene.parse_scene(workdir / "scenes" / report.scene)
    warm = write_scenes(workload, seed, workdir / "warm", SHIPPED_SCENES, shrink=True)
    for report in warm:
        run_report(cli, report, workdir / "warm")
    return cli, reports


def workdir_for(workload, seed):
    path = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    return path


def setup_probe(workload, seed):
    """Child side of a set-up probe: set up, then print the monotonic clock."""
    workdir = workdir_for(workload, seed)
    try:
        setup(workload, seed, workdir)
        print(repr(time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_seconds(workload, seed):
    """Spawn-to-ready time of one fresh process doing the set-up alone."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    spawned = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1]) - spawned


def setup_samples(workload, seed, core):
    """Set-up probes, each rescaled by kernel timings just before and after: (rescaled, wall).

    The probe runs on this process's core, so no kernel runs during it.
    """
    rescaled, wall = [], []
    before = core.sample()
    for _ in range(SETUP_PROBES):
        wall.append(setup_seconds(workload, seed))
        after = core.sample()
        rescaled.append(speed.rescaled(wall[-1], before, after))
        before = after
    return rescaled, wall


def run_passes(cli, reports, scene_dir, seconds, reference, tracer=None):
    """Passes over the reports for about `seconds`; with a tracer, odd passes run traced.

    A new pass starts only while the time left exceeds half a median pass.
    Each pass records its wall interval, its reports' wall times, its
    getrusage deltas and the reports that fail the check.
    """
    passes = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        usage_before = resource.getrusage(resource.RUSAGE_SELF)
        outcomes = []
        for i, report in enumerate(reports):
            if traced:
                tracer.report = [len(passes), i]
            outcomes.append(run_report(cli, report, scene_dir))
        usage = resource.getrusage(resource.RUSAGE_SELF)
        if traced:
            tracer.uninstall()
        failures = []
        for report, (code, text, _, _) in zip(reports, outcomes):
            found = check.problems(code, text, reference)
            if found:
                failures.append(f"{report.label}: " + "; ".join(found))
        passes.append({
            "traced": traced,
            "start": outcomes[0][2],
            "seconds": outcomes[-1][3] - outcomes[0][2],
            "report_seconds": [end - start for _, _, start, end in outcomes],
            "sys_s": usage.ru_stime - usage_before.ru_stime,
            "minor_faults": usage.ru_minflt - usage_before.ru_minflt,
            "failures": failures,
        })
        wall = [p["seconds"] for p in passes if not p["traced"]]
        left = seconds - (time.perf_counter() - started)
        enough = tracer is None or len(passes) >= 2
        if enough and left < statistics.median(wall) / 2:
            return passes


def per_layer(tracer, passes):
    """Medians over traced passes of every per-layer metric."""
    own = tracing.self_times(tracer.spans)
    by_pass = {}
    for i, span in enumerate(tracer.spans):
        by_pass.setdefault(span[5][0], []).append(i)
    traced = [p for p in passes if p["traced"]]
    rows = [tracing.pass_metrics(tracer.spans, own, indices) for indices in by_pass.values()]
    values = {name: statistics.median(row[name] for row in rows) for name in tracing.PASS_METRICS}
    values["proc.sys_s"] = statistics.median(p["sys_s"] for p in traced)
    values["proc.minor_faults"] = statistics.median(p["minor_faults"] for p in traced)
    # traced and untraced passes alternate, so both medians meet the same core speeds
    values["trace.overhead_frac"] = (
        statistics.median(p["seconds"] for p in traced)
        / statistics.median(p["seconds"] for p in passes if not p["traced"]) - 1.0)
    return values


def src_digest():
    """sha256 over the package sources, naming the code measured without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "idrig").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def metadata(args):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {var: os.environ.get(var) for var in THREAD_ENV},
        "git_sha": git_sha(), "src_sha256": src_digest(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "idrig" / "cli.py").is_file():
        print(f"no idrig sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.write_reference:
        return write_reference()

    # one core for this process and its probes, so the kernel times the core that works
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    core = speed.CoreSpeed()
    setup_s, setup_wall = setup_samples(args.workload, args.seed, core)
    workdir = workdir_for(args.workload, args.seed)
    try:
        cli, reports = setup(args.workload, args.seed, workdir)
        if args.trace:
            tracer = tracing.Tracer()
            passes = run_passes(cli, reports, workdir / "scenes", args.seconds,
                                check.load_reference(), tracer)
        else:
            with core:
                passes = run_passes(cli, reports, workdir / "scenes", args.seconds,
                                    check.load_reference())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(passes) * len(reports)
    failed = sum(len(p["failures"]) for p in passes)
    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        values, units = per_layer(tracer, passes), PER_LAYER
        samples = [p["seconds"] for p in untraced]
    else:
        samples = [core.rescale(p["start"], p["start"] + p["seconds"])[1] for p in passes]
        values = {
            "pass_s": statistics.median(samples),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "correct_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    meta = metadata(args)
    meta.update({
        "cpus_usable": len(cpus), "pinned_cpu": cpus[0],
        "reports": [r.label for r in reports],
        "passes": len(passes), "untraced_passes": len(untraced),
        "pass_s_samples": samples,
        "pass_wall_s_samples": [p["seconds"] for p in untraced],
        "traced_pass_wall_s_samples": [p["seconds"] for p in passes if p["traced"]],
        "report_wall_s_samples": {r.label: [p["report_seconds"][i] for p in passes]
                                  for i, r in enumerate(reports)},
        "kernel_reference_s": speed.REFERENCE_S,
        "kernel_s_samples": core.seconds,
        "setup_s_samples": setup_s,
        "setup_wall_s_samples": setup_wall,
        "failed_frac": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]][:20],
    })
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump({"result": summary, "meta": meta}, fh, indent=1)
    if args.trace:
        with gzip.open(OUT / f"spans-{stem}.json.gz", "wt") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "report", "tag"],
                       "spans": tracer.spans}, fh)

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(reports)} reports ({len(untraced)} untraced)")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':40s} {failed / attempted:.6g} ({failed} of {attempted} reports)")
    if len(samples) >= 100:
        print(f"  {'pass_s p90':40s} {statistics.quantiles(samples, n=10)[-1]:.6g} s")
    for failure in meta["failures"]:
        print(f"  FAILED {failure}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(summary))
    return 0


def write_reference():
    reference = {}
    for workload in WORKLOADS:
        workdir = workdir_for(workload, DEFAULT_SEED)
        try:
            cli, reports = setup(workload, DEFAULT_SEED, workdir)
            for report in reports:
                code, text, *_ = run_report(cli, report, workdir / "scenes")
                if code not in (0, 1):
                    raise SystemExit(f"{report.label} exited {code}; no reference written")
                body = json.loads(text)
                reference[check.reference_key(body)] = body["residuals"]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(check.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference)} reports to {check.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
