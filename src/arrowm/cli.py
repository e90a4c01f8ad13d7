"""Scenario runner and artifact emitter for the arrow-m command.

Subcommands: spectrum, evolve, eigden, fig1, fig2, verify.  Scenarios are
configured through line-based ``key = value`` text files with ``#`` comments
and dotted keys.  ``KEYS`` gives every key's parser and default, and
``SUBCOMMANDS`` every subcommand's runner, help line and default overrides;
``--out`` / ``--path`` override the corresponding config keys.  Values are
checked where they are used: the library's ValueErrors (a bad grid, state or
time range) become :class:`ScenarioError`, as do MemoryErrors and failures
to write an output file.  Exit codes: 0 ok, 1 a failed ``verify`` check, 2 a
bad configuration or scenario, a run that does not fit in memory or an
unwritable output.  CSV is the canonical output (floats at 17 significant
digits, so reruns are byte-identical).  Its floats are formatted in bulk by
:mod:`arrowm._csvtext`, byte-identical to Python's ``"%.17g" % x``: the
scaled value is within about 1e-13 of exact, and ties, near-ties and decade
boundaries go through Python's ``%``.  SVG line plots are a convenience.
The summary file is flat ``key = value`` text; its timing entries are the
only non-reproducible output.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from ._csvtext import csv_lines
from .dynamics import MONOTONE_TOL, PATHS, evolve, expectation_m, trajectory
from .freeparticle import (
    GaussianPacketParams,
    _mass_below,
    position_density,
    position_spread,
    to_energy_state,
)
from .grid import (
    CHANNELS,
    make_log_grid,
    make_state,
    normalize_state,
    random_smooth_state,
    state_norm,
)
from .mellin import (
    apply_m_fast,
    completeness_kernel_check,
    eigen_density,
    eigen_density_moments,
    eigenvalue_of_frequency,
    forward_mellin,
    frequency_grid,
    frequency_jacobian,
    frequency_of_eigenvalue,
    inverse_mellin,
    _spectrum_moments,
    spectral_weight,
    tukey_window,
    windowed_eigenfunction,
)
from .operator import (
    QUADRATURES, apply_m_direct, build_dense_m, dense_spectrum, hermiticity_residual,
)
from .svgplot import write_line_plot

__all__ = ["ScenarioError", "parse_config_text", "run_scenario", "main"]

# Seed of the random states `verify` checks; its summary records it.
_VERIFY_SEED = 12345
# Values per block that write_csv formats at once: its temporaries peaked at
# 0.78 MB (tracemalloc) for two float columns.
_CSV_BLOCK_VALUES = 4096


class ScenarioError(Exception):
    """Configuration or scenario-level failure with a user-facing message."""


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"not a finite number: {s.strip()!r}")
    return v


def _parse_float_list(s: str):
    values = tuple(_parse_float(tok) for tok in s.split(",") if tok.strip())
    if not values:
        raise ValueError("need at least one value")
    return values


def _parse_count(s: str) -> int:
    v = int(s)
    if v < 2:
        raise ValueError(f"need at least 2, got {v}")
    return v


def _parse_choice(*choices):
    def parse(s: str) -> str:
        v = s.strip()
        if v not in choices:
            raise ValueError(f"expected one of {choices}, got {v!r}")
        return v

    return parse


_PATH_CHOICES = (*PATHS, "both")

# key: (parser of its config-file text, default)
KEYS = {
    "grid.e_min": (_parse_float, 5e-15),
    "grid.e_max": (_parse_float, 50.0),
    "grid.n": (int, 4096),
    "state.kind": (_parse_choice("gaussian", "eigenfunction"), "gaussian"),
    "state.eta": (_parse_float, 1.0),
    "state.p0": (_parse_float, 0.64),
    "state.xi0": (_parse_float, 0.3),
    "state.m": (_parse_float, 0.5),
    "state.channel": (_parse_choice(*CHANNELS), "+"),
    "state.window_flat": (_parse_float, 0.5),
    "state.window_taper": (_parse_float, 0.15),
    "times.t_start": (_parse_float, 0.0),
    "times.t_end": (_parse_float, 32.0),
    "times.steps": (_parse_count, 200),
    "path": (_parse_choice(*_PATH_CHOICES), "fast"),
    "operator.quadrature": (_parse_choice(*QUADRATURES), "parity"),
    "output.dir": (str, "out"),
    "output.svg": (_parse_bool, True),
    "frames.times": (_parse_float_list, (2.0, 4.0, 8.0, 16.0, 32.0)),
    "frames.x_points": (_parse_count, 2001),
    "frames.density_points": (_parse_count, 801),
    "density.time": (_parse_float, 2.0),
}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; unknown keys and bad values carry line numbers."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"config line {ln}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEYS:
            raise ScenarioError(f"config line {ln}: unknown key {key!r}")
        try:
            out[key] = KEYS[key][0](value)
        except (ValueError, TypeError) as exc:
            raise ScenarioError(f"config line {ln}: bad value for {key!r}: {exc}") from exc
    return out


def load_config(subcommand: str, config_path=None, overrides=None) -> dict:
    """Flat configuration (dotted keys): defaults, then the file, then ``overrides``."""
    values = {key: default for key, (_, default) in KEYS.items()}
    values.update(SUBCOMMANDS[subcommand][2])
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ScenarioError(f"config file not found: {path}")
        values.update(parse_config_text(path.read_text(encoding="utf-8")))
    if overrides:
        values.update(overrides)
    return values


# ---------------------------------------------------------------------------
# emitters


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_csv(path: Path, header, *columns) -> None:
    """One row per index of ``columns``: floats at 17 significant digits, else str.

    Each column is a 1-D float array or a sequence of Python floats, ints or
    strs; its first element picks its format, and a float column's values
    are written as the bytes of ``"%.17g" % x``.  Rows stop at the shortest
    column.  Raises ValueError where a str cell holds a NUL.
    """
    floats = [len(c) > 0 and isinstance(c[0], float) for c in columns]
    rows = min(map(len, columns), default=0)
    step = max(1, _CSV_BLOCK_VALUES // max(1, len(columns)))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, rows, step):
            block = slice(start, min(start + step, rows))
            fh.write(csv_lines([c[block] for c in columns], floats))


def write_summary(path: Path, mapping: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in mapping.items():
            fh.write(f"{key} = {_fmt(value)}\n")


def _prepare_outdir(cfg: dict) -> Path:
    if not cfg["output.dir"]:  # Path("") is the working directory
        raise ScenarioError("output.dir is empty; name an output directory")
    out = Path(cfg["output.dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        raise ScenarioError(f"output directory {out} is not writable: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# scenario building blocks


def build_scenario_grid(cfg: dict):
    return make_log_grid(cfg["grid.e_min"], cfg["grid.e_max"], cfg["grid.n"])


def _packet(cfg: dict) -> GaussianPacketParams:
    return GaussianPacketParams(cfg["state.eta"], cfg["state.p0"], cfg["state.xi0"])


def build_scenario_state(cfg: dict, grid):
    if cfg["state.kind"] == "gaussian":
        return normalize_state(to_energy_state(_packet(cfg), grid))
    flat = 0.5 * cfg["state.window_flat"] * grid.span
    taper = cfg["state.window_taper"] * grid.span
    window = tukey_window(grid, flat, taper)
    if window[0] != 0.0 or window[-1] != 0.0:
        raise ScenarioError(
            "eigenfunction window must vanish at the grid edges; "
            "reduce state.window_flat/state.window_taper"
        )
    state = windowed_eigenfunction(grid, cfg["state.m"], cfg["state.channel"], window)
    return normalize_state(state)


# Negative-frequency edge of a density frame: eigenvalues closer to 1 than
# m(-5.5) = 1 - 1e-15 are not representable in double precision.
_FRAME_NU_EDGE = -5.5


def eigen_density_frame(state, points: int):
    """(nu, m, rho, covered_mass, mass, first_moment, mass_below_edge) of one frame.

    The frame is the density on a frequency-uniform m grid.  Its
    negative-frequency edge is pinned at -5.5 (see ``_FRAME_NU_EDGE``); the
    positive edge adapts so the discrete mass beyond it is below 1e-8, and
    stays within [12, 100].  ``mass`` and ``first_moment`` are those of
    :func:`eigen_density_moments`, from the same transform, so
    first_moment / mass is the state's expectation of M.
    ``mass_below_edge`` is the lattice weight at nu < -5.5 over ``mass``:
    the share of the state that lies beyond the frame's m = 1 end.
    """
    spec = forward_mellin(state)
    weight = spectral_weight(spec)
    tail = np.cumsum(weight[::-1])[::-1]
    beyond = np.nonzero(tail < 1e-8)[0]
    span_pos = spec.frequencies[beyond[0]] if beyond.size else spec.frequencies[-1]
    span_pos = float(np.clip(span_pos + 2.0, 12.0, 100.0))
    nu, rho = eigen_density(state, _FRAME_NU_EDGE, span_pos, points)
    m = eigenvalue_of_frequency(nu)
    covered = float(np.trapezoid(np.sum(rho, axis=0) * frequency_jacobian(m), nu))
    mass, first = _spectrum_moments(spec)
    below = float(np.sum(weight[spec.frequencies < _FRAME_NU_EDGE]) / mass)
    return nu, m, rho, covered, mass, first, below


def _position_frame(params: GaussianPacketParams, t: float, points: int):
    """(x, density, mass, variance) of the packet at t on its center +- 8.5 spreads."""
    center = params.p0 / params.eta * t
    half = 8.5 * position_spread(params, t)
    if not math.isfinite((center + half) - (center - half)):
        raise ValueError(f"the position frame at t = {t:g} overflows double precision")
    x = np.linspace(center - half, center + half, points)
    dens = position_density(params, x, t)
    mass = float(np.trapezoid(dens, x))
    mean = float(np.trapezoid(x * dens, x) / mass)
    return x, dens, mass, float(np.trapezoid((x - mean) ** 2 * dens, x) / mass)


def _write_density_frame(out: Path, stem: str, t: float, nu, m, rho, svg: bool) -> None:
    write_csv(out / f"{stem}.csv", ("m", "rho_plus", "rho_minus", "nu"),
              m, rho[0], rho[1], nu)
    if svg:
        # rho(m) has integrable spikes at the interval edges (the change of
        # variables amplifies coefficient tails by 1/(2 pi m (1 - m))); plot the
        # bulk window only, the CSV carries the full frame
        bulk = (m >= 1e-3) & (m <= 1.0 - 1e-3)
        write_line_plot(out / f"{stem}.svg", m[bulk],
                        {"rho_plus": rho[0][bulk], "rho_minus": rho[1][bulk]},
                        title=f"eigenvalue density at t = {t:g}",
                        xlabel="m (bulk window)", ylabel="rho(m)")


# ---------------------------------------------------------------------------
# subcommand runners: each writes its files into ``out`` and returns the
# summary entries that follow "scenario"


def run_spectrum(cfg: dict, out: Path) -> dict:
    t0 = time.perf_counter()
    grid = build_scenario_grid(cfg)
    op = build_dense_m(grid, quadrature=cfg["operator.quadrature"])
    herm = hermiticity_residual(op)
    t1 = time.perf_counter()
    eigvals = dense_spectrum(op)
    t2 = time.perf_counter()
    write_csv(out / "spectrum.csv", ("index", "eigenvalue"), range(eigvals.size), eigvals)
    if cfg["output.svg"]:
        write_line_plot(out / "spectrum.svg", np.arange(eigvals.size),
                        {"eigenvalue": eigvals}, title="dense spectrum",
                        xlabel="index", ylabel="eigenvalue")
    bins = np.histogram(eigvals, bins=20, range=(0.0, 1.0))[0]
    # Szego: the eigenvalues distribute like the values of the Toeplitz
    # symbol, sampled by the 2n circulant embedding; the fast route's
    # multiplier m(nu_k) is the continuum symbol on its own lattice
    symbol = np.sort(0.5 + op.circulant_fft.real)[::2]
    return {
        "quadrature": cfg["operator.quadrature"],
        "grid.e_min": cfg["grid.e_min"], "grid.e_max": cfg["grid.e_max"], "grid.n": cfg["grid.n"],
        "hermiticity_residual": herm,
        "eigenvalue_min": float(eigvals[0]),
        "eigenvalue_max": float(eigvals[-1]),
        "occupied_bins_of_20": int(np.count_nonzero(bins)),
        "w1_to_symbol": float(np.mean(np.abs(eigvals - symbol))),
        "w1_to_multiplier": _w1_to_multiplier(eigvals, grid),
        "timing_build_s": t1 - t0,
        "timing_eigensolve_s": t2 - t1,
    }


def _w1_to_multiplier(eigvals: np.ndarray, grid) -> float:
    """Mean distance from the ascending eigenvalues to the sorted m(nu_k) of the fast route."""
    multiplier = np.sort(eigenvalue_of_frequency(frequency_grid(grid)))
    return float(np.mean(np.abs(eigvals - multiplier)))


def run_trajectory_scenario(cfg: dict, out: Path, name: str) -> dict:
    t0 = time.perf_counter()
    grid = build_scenario_grid(cfg)
    state = build_scenario_state(cfg, grid)
    times = np.linspace(cfg["times.t_start"], cfg["times.t_end"], cfg["times.steps"])
    paths = ("direct", "fast") if cfg["path"] == "both" else (cfg["path"],)
    t1 = time.perf_counter()
    results = {}
    op = build_dense_m(grid, quadrature=cfg["operator.quadrature"]) if "direct" in paths else None
    for p in paths:
        results[p] = trajectory(state, times, path=p, operator=op)
    t2 = time.perf_counter()

    names = sorted(results)
    write_csv(out / "trajectory.csv", ("t", "expectation_m", "path"),
              np.repeat(times, len(names)),
              np.stack([results[p].values for p in names], axis=1).ravel(),
              names * times.size)
    if cfg["output.svg"]:
        write_line_plot(out / "trajectory.svg", times,
                        {p: results[p].values for p in names},
                        title=f"{name}: expectation along the orbit",
                        xlabel="t", ylabel="<M>(t)")

    summary = {
        "path": cfg["path"],
        "grid.e_min": cfg["grid.e_min"], "grid.e_max": cfg["grid.e_max"], "grid.n": cfg["grid.n"],
        "t_start": float(times[0]), "t_end": float(times[-1]), "steps": int(times.size),
    }
    for p in names:
        traj = results[p]
        summary[f"m_start_{p}"] = float(traj.values[0])
        summary[f"m_end_{p}"] = float(traj.values[-1])
        summary[f"max_adjacent_increase_{p}"] = traj.max_increase
        summary[f"n_monotone_violations_{p}"] = len(traj.monotone_violations)
    if len(results) == 2:
        summary["dual_path_max_expectation_diff"] = float(
            np.max(np.abs(results["fast"].values - results["direct"].values))
        )
    summary["timing_setup_s"] = t1 - t0
    summary["timing_trajectory_s"] = t2 - t1
    return summary


def run_eigden(cfg: dict, out: Path) -> dict:
    grid = build_scenario_grid(cfg)
    state = build_scenario_state(cfg, grid)
    t = cfg["density.time"]
    t0 = time.perf_counter()
    nu, m, rho, covered, mass, first, below = eigen_density_frame(
        evolve(state, t), points=cfg["frames.density_points"])
    t1 = time.perf_counter()
    _write_density_frame(out, "eigen_density", t, nu, m, rho, cfg["output.svg"])
    return {
        "time": t,
        "grid.e_min": cfg["grid.e_min"], "grid.e_max": cfg["grid.e_max"], "grid.n": cfg["grid.n"],
        "frame_covered_mass": covered,
        "frame_density_mass_below_edge": below,
        "density_mass": mass,
        "density_first_moment": first,
        "timing_density_s": t1 - t0,
    }


def run_fig2(cfg: dict, out: Path) -> dict:
    if cfg["state.kind"] != "gaussian":
        raise ScenarioError("fig2 frames need a gaussian packet state")
    params = _packet(cfg)
    state = build_scenario_state(cfg, build_scenario_grid(cfg))
    frame_times = cfg["frames.times"]
    t0 = time.perf_counter()
    summary = {
        "grid.e_min": cfg["grid.e_min"], "grid.e_max": cfg["grid.e_max"], "grid.n": cfg["grid.n"],
        "n_frames": len(frame_times),
    }
    for k, t in enumerate(frame_times):
        x, dens, mass_x, var_x = _position_frame(params, t, cfg["frames.x_points"])
        write_csv(out / f"position_density_{k:02d}.csv", ("coordinate", "density"), x, dens)
        if cfg["output.svg"]:
            write_line_plot(out / f"position_density_{k:02d}.svg", x, {"density": dens},
                            title=f"|psi(x, t)|^2 at t = {t:g}", xlabel="x", ylabel="density")
        nu, m, rho, covered, mass, first, below = eigen_density_frame(
            evolve(state, t), points=cfg["frames.density_points"])
        _write_density_frame(out, f"eigen_density_{k:02d}", t, nu, m, rho, cfg["output.svg"])
        summary[f"frame_{k:02d}_t"] = float(t)
        summary[f"frame_{k:02d}_position_mass"] = mass_x
        summary[f"frame_{k:02d}_position_variance"] = var_x
        summary[f"frame_{k:02d}_density_covered_mass"] = covered
        summary[f"frame_{k:02d}_density_mass_below_edge"] = below
        summary[f"frame_{k:02d}_expectation_m"] = first / mass
    summary["timing_frames_s"] = time.perf_counter() - t0
    return summary


# ---------------------------------------------------------------------------
# verify


def _verify_checks():
    rng = np.random.default_rng(_VERIFY_SEED)
    checks = []

    def record(name, value, tol, ok=None):
        ok = (value <= tol) if ok is None else ok
        checks.append((name, "PASS" if ok else "FAIL", float(value), float(tol)))

    g = make_log_grid(1e-4, 1e4, 4096)
    record("grid_weight_sum_relerr",
           abs(float(np.sum(g.weights)) - (1e4 - 1e-4)) / (1e4 - 1e-4), 1e-3)
    record("grid_log_spacing_relerr",
           float(np.max(np.abs(np.diff(g.log_points) - g.du))) / g.du, 1e-12)

    wide = make_log_grid(1e-22, 1e21, 512)
    f = random_smooth_state(wide, rng)
    spec = forward_mellin(f)
    back = inverse_mellin(spec)
    record("transform_roundtrip",
           state_norm(make_state(wide, f.channels, back.amplitudes - f.amplitudes))
           / state_norm(f), 1e-12)
    record("parseval_relerr",
           abs(float(np.sum(spectral_weight(spec))) - state_norm(f) ** 2), 1e-8)

    # strict bounds checkable while 1 - m is representable: |nu| <= ~5.7
    nus = np.linspace(_FRAME_NU_EDGE, 30, 601)
    ms = eigenvalue_of_frequency(nus)
    record("multiplier_in_unit_interval",
           0.0, 0.5, ok=bool(np.all((ms > 0) & (ms < 1)) and np.all(np.diff(ms) < 0)))
    probe = np.linspace(1e-6, 1 - 1e-6, 201)
    record("eigenvalue_frequency_roundtrip",
           float(np.max(np.abs(eigenvalue_of_frequency(frequency_of_eigenvalue(probe)) - probe))),
           1e-14)

    small = make_log_grid(1e-3, 1e3, 256)
    for quad in ("parity", "subtraction"):
        op = build_dense_m(small, quadrature=quad)
        record(f"hermiticity_{quad}", hermiticity_residual(op), 1e-12)
        ev = dense_spectrum(op)
        record(f"eigenvalue_range_{quad}",
               float(max(-ev[0], ev[-1] - 1.0, 0.0)), 1e-6)
        if quad == "parity":
            # Szego: the direct route's eigenvalues distribute like m(nu_k)
            record("szego_parity_to_multiplier", _w1_to_multiplier(ev, small), 1e-2)

    op = build_dense_m(wide)
    worst_vec, worst_mom = 0.0, 0.0
    for _ in range(5):
        f = random_smooth_state(wide, rng)
        diff = apply_m_fast(f).amplitudes - apply_m_direct(f, op).amplitudes
        worst_vec = max(worst_vec,
                        state_norm(make_state(wide, f.channels, diff)) / state_norm(f))
        mass, first = eigen_density_moments(f)
        worst_mom = max(worst_mom, abs(first - expectation_m(f, path="direct", operator=op)),
                        abs(mass - 1.0))
    record("dual_path_relative_error", worst_vec, 1e-6)
    record("density_moment_consistency", worst_mom, 1e-6)

    worst = 0.0
    for ea, eb in ((2.0, 1.0), (0.05, 0.4), (0.3, 9.0)):
        kernel = -1.0 / (2j * np.pi * (ea - eb))
        worst = max(worst, abs(completeness_kernel_check(ea, eb, 1e-5) - kernel) / abs(kernel))
    record("completeness_kernel_relerr", worst, 1e-3)

    resg = make_log_grid(1e-8, 1e8, 1024)
    win = tukey_window(resg, 15.2, 2.5)
    interior = np.abs(resg.log_points - resg.center) <= 2.3
    worst = 0.0
    for m0 in (0.2, 0.5, 0.8):
        gst = windowed_eigenfunction(resg, m0, "+", win)
        resid = apply_m_fast(gst).amplitudes - m0 * gst.amplitudes
        wgt = resg.weights[interior]
        num = float(np.sqrt(np.sum(wgt * np.abs(resid[0, interior]) ** 2)))
        den = float(np.sqrt(np.sum(wgt * np.abs(gst.amplitudes[0, interior]) ** 2)))
        worst = max(worst, num / den)
    record("eigenfunction_residual", worst, 1e-3)

    # keep E t_max well below the grid Nyquist pi/du to avoid aliasing noise
    lygrid = make_log_grid(1e-3, 1e3, 1024)
    worst = -np.inf
    for _ in range(10):
        f = random_smooth_state(lygrid, rng, center_fraction=0.08,
                                sigma_range=(0.35, 0.5), freq_max=2.0)
        worst = max(worst, trajectory(f, np.linspace(0.0, 5.0, 11)).max_increase)
    record("lyapunov_max_increase", worst, MONOTONE_TOL)

    fig1 = {**load_config("fig1"), "grid.n": 1024}
    figg = build_scenario_grid(fig1)
    packet = build_scenario_state(fig1, figg)
    record("packet_norm_error", abs(state_norm(packet) - 1.0), 1e-10)
    traj = trajectory(packet, np.linspace(0.0, 16.0, 41))
    record("fig1_max_increase", traj.max_increase, MONOTONE_TOL)
    record("fig1_initial_expectation_offset", abs(traj.values[0] - 0.5), 1e-6)
    record("fig1_half_decay", traj.terminal_value, 0.5 * traj.values[0])
    # for the real packet, conj(U(t) f) = U(-t) f and m(nu) + m(-nu) = 1; the
    # times are a progression, so the fast route takes the group law here
    sym = trajectory(packet, np.linspace(-8.0, 8.0, 33)).values
    record("time_reversal_identity", float(np.max(np.abs(sym + sym[::-1] - 1.0))), 1e-13)
    m_back, m_now = expectation_m(evolve(packet, -2.0)), expectation_m(packet)
    record("backward_time_increase", m_back - m_now, np.inf, ok=m_back > m_now)
    minus_mass = float(np.sum(figg.weights * np.abs(packet.amplitudes[1]) ** 2))
    record("negative_channel_mass_error", abs(minus_mass - _mass_below(_packet(fig1), 0.0)), 1e-4)
    return checks


def run_verify(cfg: dict, out: Path) -> dict:
    t0 = time.perf_counter()
    checks = _verify_checks()
    elapsed = time.perf_counter() - t0
    write_csv(out / "verify_results.csv", ("check", "status", "value", "tolerance"),
              *zip(*checks))
    failed = [name for name, status, _, _ in checks if status == "FAIL"]
    overall = "PASS" if not failed else "FAIL"
    for name, status, value, tol in checks:
        print(f"{status:4s} {name} (value={value:.3e}, tol={tol:.3e})")
    print(f"verify: {overall} ({len(checks)} checks, {len(failed)} failed)")
    return {
        "seed": _VERIFY_SEED,
        "n_checks": len(checks),
        "n_failed": len(failed),
        "overall": overall,
        "timing_total_s": elapsed,
    }


# name: (runner(cfg, out) -> summary entries, help line, default overrides)
SUBCOMMANDS = {
    "spectrum": (run_spectrum, "dense eigenvalue spectrum of the operator",
                 {"grid.e_min": 1e-3, "grid.e_max": 1e3, "grid.n": 512,
                  "operator.quadrature": "subtraction"}),
    "evolve": (partial(run_trajectory_scenario, name="evolve"),
               "expectation trajectory for a configured state", {}),
    "eigden": (run_eigden, "eigenvalue density of a configured state", {}),
    "fig1": (partial(run_trajectory_scenario, name="fig1"),
             "free-packet monotone expectation decay scenario", {}),
    "fig2": (run_fig2, "free-packet position/eigenvalue density frames", {}),
    "verify": (run_verify, "run the invariant suite; exit 1 on failure", {}),
}


def run_scenario(subcommand: str, cfg: dict) -> dict:
    """Run one subcommand into ``cfg["output.dir"]``; write and return its summary.

    The library's ValueErrors (bad grids, states or times), runs that do not
    fit in memory and failures to write an output file become ScenarioError.
    """
    runner = SUBCOMMANDS[subcommand][0]
    out = _prepare_outdir(cfg)
    try:
        summary = {"scenario": subcommand, **runner(cfg, out)}
        write_summary(out / "summary.txt", summary)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    except MemoryError as exc:
        raise ScenarioError(f"out of memory: {exc}") from exc
    except OSError as exc:
        raise ScenarioError(f"cannot write output: {exc}") from exc
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="arrow-m",
        description="Time-ordering operator scenarios: spectra, trajectories, "
                    "eigenvalue densities, wave-packet frames, invariant checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, blurb, _) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", help="key = value scenario configuration file")
        p.add_argument("--out", help="output directory (overrides output.dir)")
        p.add_argument("--path", choices=_PATH_CHOICES,
                       help="operator application path (overrides path)")
    args = parser.parse_args(argv)
    overrides = {}
    if args.out is not None:
        overrides["output.dir"] = args.out
    if args.path is not None:
        overrides["path"] = args.path
    try:
        cfg = load_config(args.subcommand, args.config, overrides)
        summary = run_scenario(args.subcommand, cfg)
    except ScenarioError as exc:
        print(f"arrow-m {args.subcommand}: {exc}", file=sys.stderr)
        return 2
    if args.subcommand == "verify" and summary.get("overall") != "PASS":
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
