"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here and nowhere else.  Criteria that cross-check the
dense and diagonalized operator paths run on a wide log window (see
conftest.WIDE_BOUNDS) where the two discretizations agree below tolerance;
the spectrum-structure criterion uses the singularity-subtraction quadrature
variant, whose discrete eigenvalues sweep the whole band.
"""
import time

import numpy as np
from scipy.special import erfc

from arrowm import (
    GaussianPacketParams,
    apply_m_direct,
    apply_m_fast,
    build_dense_m,
    dense_spectrum,
    eigen_density_moments,
    expectation_m,
    forward_mellin,
    hermiticity_residual,
    inverse_mellin,
    completeness_kernel_check,
    make_log_grid,
    make_state,
    momentum_wavefunction,
    normalize_state,
    position_density,
    random_smooth_state,
    state_norm,
    to_energy_state,
    trajectory,
    windowed_eigenfunction,
)
from arrowm.cli import load_config, run_scenario

from conftest import WIDE_BOUNDS, interior_residual, toeplitz_matrix

FIG_PARAMS = GaussianPacketParams(eta=1.0, p0=0.64, xi0=0.3)
FIG_BOUNDS = (5e-15, 50.0)


def report(cid: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid}: {status} [{time.perf_counter() - started:.1f}s] {detail}")
    assert ok, f"{cid}: {detail}"


def test_criterion_01_spectrum_structure():
    t0 = time.perf_counter()
    grid = make_log_grid(1e-3, 1e3, 512)
    herms, ranges = [], []
    for quadrature in ("subtraction", "parity"):
        op = build_dense_m(grid, quadrature)
        A = toeplitz_matrix(op)
        herms.append(max(float(np.max(np.abs(A - A.conj().T))), hermiticity_residual(op)))
        ev = dense_spectrum(op)
        ranges.append((float(ev[0]), float(ev[-1])))
        if quadrature == "subtraction":
            bins = np.histogram(ev, bins=20, range=(0.0, 1.0))[0]
    herm_ok = max(herms) <= 1e-12
    range_ok = all(lo >= -1e-6 and hi <= 1.0 + 1e-6 for lo, hi in ranges)
    bins_ok = bool(np.all(bins > 0))
    report(
        "1 spectrum-structure",
        herm_ok and range_ok and bins_ok,
        f"hermiticity={max(herms):.2e} (<=1e-12), ranges={ranges} (within [-1e-6, 1+1e-6]), "
        f"min bin count={bins.min()} (every 0.05 bin occupied: {bins_ok})",
        t0,
    )


def test_criterion_02_dual_path_equivalence(rng):
    t0 = time.perf_counter()
    grid = make_log_grid(*WIDE_BOUNDS, 1024)
    op = build_dense_m(grid, "parity")
    worst = 0.0
    for _ in range(20):
        f = random_smooth_state(grid, rng)
        diff = apply_m_fast(f).amplitudes - apply_m_direct(f, op).amplitudes
        worst = max(worst, state_norm(make_state(grid, f.channels, diff)) / state_norm(f))
    report(
        "2 dual-path-equivalence",
        worst <= 1e-6,
        f"worst relative L2 deviation over 20 states = {worst:.2e} (<= 1e-6, n = 1024)",
        t0,
    )


def test_criterion_03_eigenfunction_residuals(residual_setup):
    t0 = time.perf_counter()
    grid, window, interior = residual_setup
    op = build_dense_m(grid, "parity")
    worst = 0.0
    for m0 in (0.2, 0.5, 0.8):
        g = windowed_eigenfunction(grid, m0, "+", window)
        for applied in (apply_m_fast(g), apply_m_direct(g, op)):
            worst = max(worst, interior_residual(grid, interior, g, applied, m0))
    report(
        "3 eigenfunction-residual",
        worst <= 1e-3,
        f"worst interior ||Mg - mg||/||g|| over m in (0.2, 0.5, 0.8), both paths "
        f"= {worst:.2e} (<= 1e-3)",
        t0,
    )


def test_criterion_04_completeness_kernel():
    t0 = time.perf_counter()
    pairs = [
        (0.01, 0.02), (0.02, 0.05), (0.05, 0.1), (0.1, 0.3), (0.3, 0.5),
        (0.5, 1.0), (1.0, 2.0), (2.0, 5.0), (5.0, 10.0), (0.01, 10.0),
    ]
    worst = 0.0
    for ea, eb in pairs:
        kernel = -1.0 / (2j * np.pi * (ea - eb))
        err = abs(completeness_kernel_check(ea, eb, 1e-5) - kernel) / abs(kernel)
        worst = max(worst, err)
    report(
        "4 completeness-kernel",
        worst <= 1e-3,
        f"worst relative deviation from the Cauchy kernel at theta = 1e-5 over "
        f"10 pairs spanning 3 decades = {worst:.2e} (<= 1e-3)",
        t0,
    )


def test_criterion_05_parseval_unitarity_moments(rng):
    t0 = time.perf_counter()
    grid = make_log_grid(*WIDE_BOUNDS, 1024)
    op = build_dense_m(grid, "parity")
    dnu = 2.0 * np.pi / (grid.n * grid.du)
    worst_rt = worst_pv = worst_mass = worst_first = 0.0
    for _ in range(5):
        f = random_smooth_state(grid, rng)
        spec = forward_mellin(f)
        back = inverse_mellin(spec)
        worst_rt = max(
            worst_rt,
            state_norm(make_state(grid, f.channels, back.amplitudes - f.amplitudes))
            / state_norm(f),
        )
        worst_pv = max(
            worst_pv,
            abs(dnu * float(np.sum(np.abs(spec.coefficients) ** 2)) - state_norm(f) ** 2),
        )
        mass, first = eigen_density_moments(f)
        worst_mass = max(worst_mass, abs(mass - 1.0))
        worst_first = max(worst_first, abs(first - expectation_m(f, "direct", op)))
    ok = (worst_rt <= 1e-12 and worst_pv <= 1e-8
          and worst_mass <= 1e-6 and worst_first <= 1e-6)
    report(
        "5 parseval-unitarity-moments",
        ok,
        f"roundtrip={worst_rt:.2e} (<=1e-12), parseval={worst_pv:.2e} (<=1e-8), "
        f"density mass offset={worst_mass:.2e} (<=1e-6), "
        f"first moment vs dense={worst_first:.2e} (<=1e-6)",
        t0,
    )


def test_criterion_06_lyapunov_property(rng):
    t0 = time.perf_counter()
    grid = make_log_grid(1e-3, 1e3, 2048)
    times = np.linspace(0.0, 5.0, 21)
    pairs = np.triu_indices(times.size, k=1)  # 210 ordered pairs t2 > t1 >= 0
    worst = -np.inf
    for _ in range(100):
        # keep E t_max well below the grid Nyquist frequency pi/du so no
        # state content aliases over the time ladder
        f = random_smooth_state(grid, rng, center_fraction=0.08,
                                sigma_range=(0.35, 0.5), freq_max=2.0)
        vals = trajectory(f, times).values
        worst = max(worst, float(np.max((vals[None, :] - vals[:, None])[pairs])))
    report(
        "6 lyapunov-property",
        worst <= 1e-8,
        f"max expectation increase over 100 states x 210 time pairs = {worst:.2e} "
        f"(<= 1e-8)",
        t0,
    )


def test_criterion_07_fig1_reproduction():
    t0 = time.perf_counter()
    grid = make_log_grid(*FIG_BOUNDS, 4096)
    packet = normalize_state(to_energy_state(FIG_PARAMS, grid))
    T = 32.0
    traj = trajectory(packet, np.linspace(0.0, T, 200))
    strictly_decreasing = traj.max_increase <= 1e-8 and not traj.monotone_violations
    half_decay = traj.terminal_value < 0.5 * traj.values[0]
    doubled = trajectory(packet, np.array([0.0, T, 2.0 * T]))
    keeps_decaying = doubled.values[2] < doubled.values[1]
    report(
        "7 fig1-monotone-decay",
        strictly_decreasing and half_decay and keeps_decaying,
        f"200-point trajectory on [0, {T:g}]: max increase={traj.max_increase:.2e} "
        f"(<=1e-8), <M>(0)={traj.values[0]:.6f}, <M>(T)={traj.terminal_value:.6f} "
        f"(< half of start), <M>(2T)={doubled.values[2]:.6f} (still smaller)",
        t0,
    )


def test_criterion_08_fig2_frames(tmp_path):
    t0 = time.perf_counter()
    from arrowm import frequency_jacobian, frequency_of_eigenvalue

    cfg = load_config("fig2", None, {"output.dir": str(tmp_path / "fig2"),
                                     "output.svg": False})
    run_scenario("fig2", cfg)
    frame_times = cfg["frames.times"]
    masses, variances, dens_masses = [], [], []
    for k in range(len(frame_times)):
        lines = (tmp_path / "fig2" / f"position_density_{k:02d}.csv").read_text().splitlines()
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        x, dens = data[:, 0], data[:, 1]
        mass = np.trapezoid(dens, x)
        mean = np.trapezoid(x * dens, x) / mass
        masses.append(mass)
        variances.append(np.trapezoid((x - mean) ** 2 * dens, x) / mass)
        lines = (tmp_path / "fig2" / f"eigen_density_{k:02d}.csv").read_text().splitlines()
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        m, rho = data[:, 0], data[:, 1] + data[:, 2]
        dens_masses.append(
            float(np.trapezoid(rho * frequency_jacobian(m), frequency_of_eigenvalue(m)))
        )
    mass_ok = all(abs(v - 1.0) <= 1e-8 for v in masses)
    var_ok = all(b > a for a, b in zip(variances, variances[1:]))
    dens_ok = all(abs(v - 1.0) <= 1e-6 for v in dens_masses)
    report(
        "8 fig2-frames",
        mass_ok and var_ok and dens_ok,
        f"|psi|^2 frame masses within {max(abs(v - 1.0) for v in masses):.2e} of 1 "
        f"(<=1e-8); spatial variance strictly increasing: {var_ok}; eigen-density "
        f"frame masses within {max(abs(v - 1.0) for v in dens_masses):.2e} of 1 (<=1e-6)",
        t0,
    )


def test_criterion_09_representation_chain():
    t0 = time.perf_counter()
    x = np.linspace(-30.0, 30.0, 100001)
    pos_mass = float(np.trapezoid(position_density(FIG_PARAMS, x, 0.0), x))
    p = np.linspace(-6.0, 8.0, 200001)
    phi2 = np.abs(momentum_wavefunction(FIG_PARAMS, p)) ** 2
    mom_mass = float(np.trapezoid(phi2, p))
    grid = make_log_grid(*FIG_BOUNDS, 4096)
    state = to_energy_state(FIG_PARAMS, grid)
    eng_mass = state_norm(state) ** 2
    norm_ok = all(abs(v - 1.0) <= 1e-8 for v in (pos_mass, mom_mass, eng_mass))
    pneg = np.linspace(-8.0, 0.0, 400001)
    oracle = float(np.trapezoid(np.abs(momentum_wavefunction(FIG_PARAMS, pneg)) ** 2, pneg))
    minus = float(np.sum(grid.weights * np.abs(state.amplitudes[1]) ** 2))
    tail_ok = abs(minus - oracle) <= 1e-4
    closed = 0.5 * erfc(FIG_PARAMS.p0 / FIG_PARAMS.xi0)
    report(
        "9 representation-chain",
        norm_ok and tail_ok,
        f"norms (position, momentum, energy) = ({pos_mass:.10f}, {mom_mass:.10f}, "
        f"{eng_mass:.10f}) all within 1e-8; negative-channel mass {minus:.6e} vs "
        f"quadrature tail {oracle:.6e} (diff {abs(minus - oracle):.1e} <= 1e-4, "
        f"closed form {closed:.6e})",
        t0,
    )


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    identical = True
    for sub in ("verify", "fig1"):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{sub}_{tag}"
            cfg = load_config(sub, None, {"output.dir": str(out), "output.svg": False})
            run_scenario(sub, cfg)
            dirs.append(out)
        csvs = sorted(p.name for p in dirs[0].glob("*.csv"))
        identical &= bool(csvs)
        for name in csvs:
            identical &= (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    report(
        "10 determinism",
        identical,
        "repeated verify and fig1 runs emit byte-identical CSV outputs",
        t0,
    )
