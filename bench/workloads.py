"""The benchmark's workloads: which reports one pass runs, and the scene files they read.

A report is one ``idrig`` command line, held as a ``Report``.  Every workload
writes its scenes into a directory of its own, so idrig receives only
scene files; for ``scenes3d`` those are copies of the shipped scenes.

* ``scenes3d``: the seven documented commands over the shipped 3D scenes.
  The seed only permutes their order.
* ``grid4d``: two generated reports on 12^4 nodes, where the 5-index
  spacetime tensors dominate.
* ``small2d``: six generated reports on 2D grids (``n_s = 16``, 32 leaf
  nodes), where per-call overhead is a large share.

The generator draws ``a`` in [0.05, 0.2], ``b`` in [0, 2 pi), ``m`` in {1, 2}
and ``c`` in [0, 0.1].  With these ranges every lapse stays at or above 0.8 and
every graph stays spacelike (``f - 2 w' >= 1 - a - 4 c > 0``).  Grid sizes
and expression shapes are fixed, so the work of a pass does not depend on
the seed.
"""

from __future__ import annotations

import configparser
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("scenes3d", "grid4d", "small2d")

# grid used by the warm-up: every report once, on a shrunken copy of its scene
WARM_N_S = 8
WARM_LEAF = 8

SHIPPED = (
    ("constraints", "constant_k", ()),
    ("constraints", "flat", ()),
    ("rigidity", "recipe", ()),
    ("killing-dev", "vacuum_kd", ()),
    ("ppwave", "wave", ()),
    ("ppwave", "roundtrip", ()),
    ("convergence", "convergence", ("--check", "parallel_s")),
)


@dataclass(frozen=True)
class Report:
    """One idrig command line over one scene file."""

    command: str
    scene: str            # file name inside the workload's scene directory
    flags: tuple = ()

    @property
    def label(self):
        return " ".join((self.command, Path(self.scene).stem) + self.flags)

    def argv(self, scene_dir):
        return [self.command, str(Path(scene_dir) / self.scene), *self.flags]


def _num(x):
    return f"{x:.12f}"


def _draw(rng):
    """One (a, b, m, c) draw; the order of the draws is part of the seed's meaning."""
    a = rng.uniform(0.05, 0.2)
    b = rng.uniform(0.0, 2.0 * math.pi)
    m = rng.choice((1, 2))
    c = rng.uniform(0.0, 0.1)
    return _num(a), _num(b), m, _num(c)


def scene_text(n_s, leaf_counts, data):
    """INI text of a scene on [0, 1] x T^k with unit leaf lengths."""
    lines = ["[grid]", "ell = 1.0", f"n_s = {n_s}",
             "leaf_counts = " + ", ".join(str(c) for c in leaf_counts),
             "leaf_lengths = " + ", ".join("1.0" for _ in leaf_counts),
             "", "[data]"]
    lines += [f"{key} = {value}" for key, value in data]
    return "\n".join(lines) + "\n"


def _grid4d(rng):
    a, b, m, c = _draw(rng)
    wave = [("ppwave_f", f"1 + {a}*sin(2*pi*{m}*x1 + {b})"),
            ("hypersurface", f"{c}*s^2")]
    a, b, m, _ = _draw(rng)
    recipe = [("phi", f"1 + {a}*sin(2*pi*{m}*x1 + {b})*cos(2*pi*x3)"),
              ("k", "recipe")]
    return (12, (12, 12, 12)), [
        (Report("ppwave", "wave4d.scene"), wave),
        (Report("rigidity", "recipe4d.scene"), recipe),
    ]


def _small2d(rng):
    reports = []
    a, b, m, c = _draw(rng)
    reports.append((Report("constraints", "explicit2d.scene"), [
        ("phi", f"1 + {a}*sin(2*pi*{m}*x1 + {b})"),
        ("k", "explicit"),
        ("k_0_0", c),
        ("k_0_1", f"{a}*cos(2*pi*{m}*x1 + {b})"),
        ("k_1_1", f"1 + {c}*s")]))
    a, b, m, _ = _draw(rng)
    reports.append((Report("rigidity", "recipe2d.scene"), [
        ("phi", f"1 + {a}*sin(2*pi*{m}*x1 + {b})"), ("k", "recipe")]))
    a, _, _, c = _draw(rng)
    reports.append((Report("killing-dev", "slapse2d.scene"), [
        ("phi", f"exp({c}*s)*(1 + {a}*s^2)"), ("k", "recipe")]))
    a, b, m, c = _draw(rng)
    reports.append((Report("ppwave", "wave2d.scene"), [
        ("ppwave_f", f"1 + {a}*sin(2*pi*{m}*x1 + {b})"),
        ("hypersurface", f"{c}*s^2")]))
    a, b, m, c = _draw(rng)
    reports.append((Report("convergence", "mixed2d.scene", ("--check", "parallel_s")), [
        ("phi", f"exp({c}*s)*(1 + {a}*sin(2*pi*{m}*x1 + {b}))"), ("k", "recipe")]))
    a, b, m, _ = _draw(rng)
    reports.append((Report("convergence", "profile2d.scene", ("--check", "ppwave_formula")), [
        ("ppwave_f", f"1 + {a}*sin(2*pi*{m}*x1 + {b})")]))
    return (16, (32,)), reports


GENERATORS = {"grid4d": _grid4d, "small2d": _small2d}


def _shrink(text):
    """The same scene on the warm-up grid."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    parser.read_string(text)
    leaves = len([v for v in parser["grid"]["leaf_counts"].split(",") if v.strip()])
    return scene_text(WARM_N_S, [WARM_LEAF] * leaves, list(parser["data"].items()))


def write_scenes(workload, seed, directory, shipped_dir, shrink=False):
    """Write the workload's scenes into `directory`; return the pass's reports in order.

    With `shrink`, every scene is written on the small warm-up grid instead.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    files = {}
    if workload == "scenes3d":
        reports = [Report(cmd, f"{name}.scene", flags) for cmd, name, flags in SHIPPED]
        for report in reports:
            files[report.scene] = (Path(shipped_dir) / report.scene).read_text()
        rng.shuffle(reports)
    elif workload in GENERATORS:
        (n_s, leaves), pairs = GENERATORS[workload](rng)
        reports = [report for report, _ in pairs]
        for report, data in pairs:
            files[report.scene] = scene_text(n_s, leaves, data)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    for name, text in files.items():
        (directory / name).write_text(_shrink(text) if shrink else text)
    return reports
