"""The four benchmark workloads: seeded inputs and output checks.

Each workload is one ``arrow-m`` scenario.  :func:`generate` turns a seed
into the scenario's argv and the text of the config file the program reads;
seed 0 gives the packaged values exactly.  :func:`check` reads the files one
invocation wrote and returns the failed checks together with every checked
value, ungated.  Tolerances are copied verbatim from
``tests/test_acceptance.py`` (and, for the starting expectation, from the
``fig1_initial_expectation_offset`` check of ``arrow-m verify``).

Stdlib only: the parent process imports this module before any workload
process exists, and its imports must not touch numpy.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Box for the packet's momentum centre p0 and width xi0 drawn by seeds other
# than 0; every corner was run through every workload's checks.
#   p0 low / xi0 high edge: the 1e-8 tail check on the fig1 window.  The
#     corner (0.62, 0.32) leaves 8.3e-9 outside [5e-15, 50]; (0.60, 0.32)
#     leaves 1.05e-8 and (0.55, 0.35) far more, so the program refuses them.
#   p0 high / xi0 low edge: the density frame at t = 2 (covered mass within
#     1e-6 of 1).  The corner (0.66, 0.28) misses 6.6e-7; (0.66, 0.26)
#     misses 1.5e-6 and fails.
#   Nyquist: E t_max with E the 1e-8 energy support stays below 0.18 of
#     pi (n - 1) / span on the fig1 window and below 0.46 on the wide window.
P0_BOX = (0.62, 0.66)
XI0_BOX = (0.28, 0.32)
PACKAGED_P0, PACKAGED_XI0 = 0.64, 0.3

FIG1_BOUNDS = (5e-15, 50.0)
WIDE_BOUNDS = (1e-22, 1e21)  # conftest.WIDE_BOUNDS
FRAME_SPAN = (2.0, 32.0)  # packaged fig2 span; t = 1 misses 1.3e-6 of mass
SPECTRUM_BOUNDS = (1e-3, 1e3)
SPECTRUM_DECADES = 0.25  # seeded endpoints move by up to this many decades

MONOTONE_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    extra_argv: tuple
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("orbit_fast", "fig1", (),
                 "fig1 decay curve, 4000 small FFTs: per-call cost in mellin, dynamics "
                 "and grid dominates; operator is never touched"),
        Workload("orbit_dual", "fig1", ("--path", "both"),
                 "fig1 on the wide window with both paths: dense parity build and 200 "
                 "dense 4096^2 matvecs dominate; checks dual-path agreement"),
        Workload("density_frames", "fig2", (),
                 "fig2 with 20 frames: one 801x4096 NDFT per frame plus CSV and SVG "
                 "writing; mellin used the other way from orbit_fast"),
        Workload("spectrum", "spectrum", (),
                 "dense n = 2048 matrix materialised and eigensolved; the only "
                 "workload that measures the eigensolve"),
    )
}


def draw(seed: int) -> dict:
    """Values drawn from ``seed``; seed 0 gives the packaged ones.

    Every workload draws the same values in the same order, so one seed
    describes one input set across workloads.
    """
    frac = [(k / 19.0) for k in range(20)]
    if seed == 0:
        return {
            "p0": PACKAGED_P0,
            "xi0": PACKAGED_XI0,
            "frame_fractions": frac,
            "spectrum_e_min": SPECTRUM_BOUNDS[0],
            "spectrum_e_max": SPECTRUM_BOUNDS[1],
        }
    rng = random.Random(seed)
    p0 = rng.uniform(*P0_BOX)
    xi0 = rng.uniform(*XI0_BOX)
    # interior frames move by up to 0.4 of the spacing, so times stay strictly
    # increasing and the span's ends (t = 2 is the hardest frame) stay fixed
    jitter = [0.0] + [rng.uniform(-0.4, 0.4) / 19.0 for _ in range(18)] + [0.0]
    return {
        "p0": p0,
        "xi0": xi0,
        "frame_fractions": [f + j for f, j in zip(frac, jitter)],
        "spectrum_e_min": SPECTRUM_BOUNDS[0] * 10.0 ** rng.uniform(-SPECTRUM_DECADES, SPECTRUM_DECADES),
        "spectrum_e_max": SPECTRUM_BOUNDS[1] * 10.0 ** rng.uniform(-SPECTRUM_DECADES, SPECTRUM_DECADES),
    }


def _frame_times(drawn: dict, toy: bool) -> list:
    t0, t1 = FRAME_SPAN
    fracs = drawn["frame_fractions"]
    if toy:
        fracs = [fracs[0], fracs[9], fracs[-1]]
    return [t0 + (t1 - t0) * f for f in fracs]


def _config_text(lines: dict) -> str:
    return "".join(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
                   for key, value in lines.items())


def generate(name: str, seed: int, toy: bool = False) -> tuple[list, str, dict]:
    """(argv after ``--config``/``--out``, config text, drawn values).

    ``toy`` shrinks every size (n = 1024, or 256 for ``spectrum``; 41 steps;
    3 frames) so a whole run takes seconds; every check still applies.
    """
    w = WORKLOADS[name]
    drawn = draw(seed)
    packet = {"state.kind": "gaussian", "state.eta": 1.0,
              "state.p0": drawn["p0"], "state.xi0": drawn["xi0"]}
    if name in ("orbit_fast", "orbit_dual"):
        e_min, e_max = FIG1_BOUNDS if name == "orbit_fast" else WIDE_BOUNDS
        steps = 4000 if name == "orbit_fast" else 200
        cfg = {"grid.e_min": e_min, "grid.e_max": e_max, "grid.n": 1024 if toy else 4096,
               **packet,
               "times.t_start": 0.0, "times.t_end": 16.0 if toy else 32.0,
               "times.steps": 41 if toy else steps,
               "output.svg": "true"}
    elif name == "density_frames":
        cfg = {"grid.e_min": FIG1_BOUNDS[0], "grid.e_max": FIG1_BOUNDS[1],
               "grid.n": 1024 if toy else 4096, **packet,
               "frames.times": ", ".join(repr(t) for t in _frame_times(drawn, toy)),
               "output.svg": "true"}
    else:
        cfg = {"grid.e_min": drawn["spectrum_e_min"], "grid.e_max": drawn["spectrum_e_max"],
               "grid.n": 256 if toy else 2048, "operator.quadrature": "subtraction",
               "output.svg": "true"}
    return [w.subcommand, *w.extra_argv], _config_text(cfg), drawn


# ---------------------------------------------------------------------------
# output checks


def read_summary(out_dir: Path) -> dict:
    values = {}
    for line in (out_dir / "summary.txt").read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        values[key] = value
    return values


def _csv_column(path: Path, index: int) -> list:
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return [float(row.split(",")[index]) for row in rows]


class _Checker:
    def __init__(self):
        self.failures = []
        self.values = {}

    def record(self, name: str, value: float, ok: bool, rule: str) -> None:
        self.values[name] = value
        if not ok:
            self.failures.append(f"{name} = {value!r} violates {rule}")


def _check_orbit(c: _Checker, s: dict, paths) -> None:
    for p in paths:
        start, end = float(s[f"m_start_{p}"]), float(s[f"m_end_{p}"])
        c.record(f"m_start_{p}", start, abs(start - 0.5) <= 1e-6, "|m_start - 0.5| <= 1e-6")
        c.record(f"m_end_{p}", end, end < 0.5 * start, "m_end < 0.5 m_start")
        viol = int(s[f"n_monotone_violations_{p}"])
        c.record(f"n_monotone_violations_{p}", viol, viol == 0, "no monotone violations")
        inc = float(s[f"max_adjacent_increase_{p}"])
        c.record(f"max_adjacent_increase_{p}", inc, inc <= MONOTONE_TOL, "max increase <= 1e-8")


def check(name: str, out_dir: Path) -> tuple[list, dict]:
    """(failed-check messages, every checked value) for one invocation."""
    c = _Checker()
    s = read_summary(out_dir)
    if name == "orbit_fast":
        _check_orbit(c, s, ("fast",))
    elif name == "orbit_dual":
        _check_orbit(c, s, ("direct", "fast"))
        diff = float(s["dual_path_max_expectation_diff"])
        c.record("dual_path_max_expectation_diff", diff, diff <= 1e-6, "diff <= 1e-6")
    elif name == "density_frames":
        n = int(s["n_frames"])
        variances = []
        for k in range(n):
            covered = float(s[f"frame_{k:02d}_density_covered_mass"])
            c.record(f"frame_{k:02d}_one_minus_covered_mass", 1.0 - covered,
                     abs(covered - 1.0) <= 1e-6, "|covered_mass - 1| <= 1e-6")
            mass = float(s[f"frame_{k:02d}_position_mass"])
            c.record(f"frame_{k:02d}_position_mass", mass, abs(mass - 1.0) <= 1e-8,
                     "|position_mass - 1| <= 1e-8")
            variances.append(float(s[f"frame_{k:02d}_position_variance"]))
            c.values[f"frame_{k:02d}_position_variance"] = variances[-1]
        rising = all(b > a for a, b in zip(variances, variances[1:]))
        c.record("position_variance_strictly_increasing", int(rising), rising,
                 "position variance strictly increasing")
    else:
        herm = float(s["hermiticity_residual"])
        c.record("hermiticity_residual", herm, herm <= 1e-12, "residual <= 1e-12")
        eig = _csv_column(out_dir / "spectrum.csv", 1)
        lo, hi = min(eig), max(eig)
        c.record("eigenvalue_min", lo, lo >= -1e-6, "eigenvalues >= -1e-6")
        c.record("eigenvalue_max", hi, hi <= 1.0 + 1e-6, "eigenvalues <= 1 + 1e-6")
        c.record("eigenvalue_count", len(eig), len(eig) == int(s["grid.n"]), "one per grid point")
        bins = int(s["occupied_bins_of_20"])
        c.record("occupied_bins_of_20", bins, bins == 20, "all 20 bins occupied")
    return c.failures, c.values
