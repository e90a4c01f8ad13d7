import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowm.cli import (
    ScenarioError,
    load_config,
    main,
    parse_config_text,
    run_scenario,
)
from arrowm import (
    _csvtext, cli, eigen_density_moments, evolve, expectation_m, frequency_jacobian,
    frequency_of_eigenvalue,
)
from arrowm.svgplot import write_line_plot
from conftest import write_csv_rows


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def cfg_for(sub, tmp_path, extra=None, config_text=None):
    overrides = {"output.dir": str(tmp_path / "out"), "output.svg": True}
    if extra:
        overrides.update(extra)
    config = None
    if config_text is not None:
        config = tmp_path / "scenario.cfg"
        config.write_text(config_text)
    return load_config(sub, config, overrides)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_happy_path():
    text = """
    # comment line
    grid.n = 512          # inline comment
    grid.e_min = 1e-6
    path = both
    frames.times = 1, 2.5, 4
    output.svg = false
    """
    values = parse_config_text(text)
    assert values["grid.n"] == 512
    assert values["grid.e_min"] == 1e-6
    assert values["path"] == "both"
    assert values["frames.times"] == (1.0, 2.5, 4.0)
    assert values["output.svg"] is False


def test_parse_config_unknown_key_reports_line():
    with pytest.raises(ScenarioError, match="line 3"):
        parse_config_text("grid.n = 8\n\ngrid.m = 9\n")


def test_parse_config_bad_value_reports_line():
    with pytest.raises(ScenarioError, match="line 1"):
        parse_config_text("grid.n = eight\n")
    with pytest.raises(ScenarioError, match="line 2"):
        parse_config_text("grid.n = 8\npath = sideways\n")
    with pytest.raises(ScenarioError, match="line 2: bad value for 'output.svg'"):
        parse_config_text("grid.n = 8\noutput.svg = maybe\n")


@pytest.mark.parametrize("value", ["", ","])
def test_parse_config_empty_frame_times_reports_line(value):
    with pytest.raises(ScenarioError, match="line 2: bad value for 'frames.times'"):
        parse_config_text(f"grid.n = 512\nframes.times = {value}\n")


def test_parse_config_requires_assignment():
    with pytest.raises(ScenarioError, match="line 1"):
        parse_config_text("grid.n 8\n")


@pytest.mark.parametrize("key", ["frames.x_points", "frames.density_points", "times.steps"])
def test_parse_config_count_below_two_reports_line(key):
    for bad in ("1", "0", "-3"):
        with pytest.raises(ScenarioError, match=f"line 2: bad value for '{key}'"):
            parse_config_text(f"grid.n = 512\n{key} = {bad}\n")
    assert parse_config_text(f"{key} = 2\n")[key] == 2


FLOAT_KEYS = [key for key, (_, default) in cli.KEYS.items() if isinstance(default, (float, tuple))]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_parse_config_non_finite_float_reports_line(key):
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ScenarioError, match=f"line 2: bad value for '{key}'"):
            parse_config_text(f"grid.n = 512\n{key} = {bad}\n")


def test_sample_configs_parse():
    configs = sorted((Path(__file__).parent.parent / "configs").glob("*.cfg"))
    assert configs
    for path in configs:
        assert parse_config_text(path.read_text(encoding="utf-8"))


def test_fig1_sample_config_is_the_packaged_fig1_defaults():
    # its comment says so; only the output directory differs
    path = Path(__file__).parent.parent / "configs" / "fig1.cfg"
    sample, packaged = load_config("fig1", path), load_config("fig1")
    assert sample.pop("output.dir") != packaged.pop("output.dir")
    assert sample == packaged


def test_missing_config_file(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_config("fig1", tmp_path / "nope.cfg", {})


# ---------------------------------------------------------------------------
# emitters

# signed zeros, the smallest subnormal and normal, a value off the decimal
# lattice, a whole float beyond 2**53 and the non-finite values
AWKWARD_FLOATS = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.1, 1e22,
                  float("nan"), float("inf"), float("-inf"))


@pytest.mark.parametrize("as_array", [True, False], ids=["float64_array", "float_tuple"])
def test_write_csv_matches_row_wise_oracle(tmp_path, as_array):
    a = np.array(AWKWARD_FLOATS)
    b = -a[::-1]
    if not as_array:
        a, b = tuple(a.tolist()), tuple(b.tolist())
    n = len(a)
    cols = (a, b, np.arange(n) - 3, list(range(-n, 0)), [f"s{k}" for k in range(n)])
    header = ("a", "b", "i", "j", "s")
    cli.write_csv(tmp_path / "new.csv", header, *cols)
    write_csv_rows(tmp_path / "old.csv", header, zip(*cols))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_without_rows_writes_the_header_only(tmp_path):
    cli.write_csv(tmp_path / "empty.csv", ("x", "y"), np.array([]), ())
    cli.write_csv(tmp_path / "none.csv", ("check", "status"), *zip(*[]))
    write_csv_rows(tmp_path / "old.csv", ("x", "y"), [])
    assert (tmp_path / "empty.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert (tmp_path / "none.csv").read_text() == "check,status\n"


def _write_both(tmp_path, *columns):
    """Bytes of ``cli.write_csv`` and of the row-wise oracle for the same columns."""
    header = tuple(f"c{k}" for k in range(len(columns)))
    cli.write_csv(tmp_path / "new.csv", header, *columns)
    write_csv_rows(tmp_path / "old.csv", header, zip(*columns))
    return (tmp_path / "new.csv").read_bytes(), (tmp_path / "old.csv").read_bytes()


def test_write_csv_matches_the_oracle_on_any_float(tmp_path):
    # every float64, subnormals, signed zeros and non-finite values included,
    # and raw bit patterns, which reach every exponent evenly
    bits = st.integers(0, 2**64 - 1).map(
        lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True) | bits,
                    min_size=1, max_size=50))
    def check(values):
        a = np.array(values)
        new, old = _write_both(tmp_path, a, -a[::-1])
        assert new == old

    check()


def test_write_csv_matches_the_oracle_at_every_decade_boundary(tmp_path):
    # 10^e and both of its float neighbours, where the rounded digits may
    # carry into the next decade
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    values = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    new, old = _write_both(tmp_path, values, -values)
    assert new == old


def test_write_csv_matches_the_oracle_when_every_value_takes_python_s_path(
        tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    values = rng.standard_normal(3000) * 10.0 ** rng.uniform(-30.0, 30.0, 3000)
    monkeypatch.setattr(_csvtext, "_NEAR_TIE", 1.0)  # |fraction - 1/2| is always below 1
    new, old = _write_both(tmp_path, values, values[::-1])
    assert new == old


@pytest.mark.parametrize("sub, extra", [
    ("fig1", {"grid.n": 512, "times.t_end": 1.0, "times.steps": 5, "path": "both"}),
    ("fig2", {"grid.n": 512, "frames.times": (2.0, 4.0), "frames.x_points": 101,
              "frames.density_points": 101}),
    ("eigden", {"grid.n": 512, "frames.density_points": 101}),
    ("spectrum", {"grid.n": 128}),
    ("verify", {}),
])
def test_every_csv_is_python_s_formatting_of_its_values(tmp_path, sub, extra):
    # a %.17g text parses back to its float exactly, so re-formatting the
    # parsed values by the oracle must give the file's bytes again
    run_scenario(sub, cfg_for(sub, tmp_path, extra=extra))
    csvs = sorted((tmp_path / "out").glob("*.csv"))
    assert csvs
    for path in csvs:
        header, rows = read_csv(path)
        write_csv_rows(tmp_path / "oracle.csv", header,
                       [[_parsed(cell) for cell in row] for row in rows])
        assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes(), path.name


def _parsed(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


def test_write_csv_writes_other_columns_by_python_s_str(tmp_path):
    # a float32 column's first element is no float, so its cells are the str
    # of Python floats, as for ints and strs
    a = np.array([0.1, 0.2, 2.5], dtype=np.float32)
    cli.write_csv(tmp_path / "f32.csv", ("a", "s"), a, ["x", "yz", "é"])
    expected = "a,s\n" + "".join(f"{v},{w}\n" for v, w in zip(a.tolist(), ["x", "yz", "é"]))
    assert (tmp_path / "f32.csv").read_bytes() == expected.encode()


def test_write_csv_rejects_a_nul_in_a_str_cell(tmp_path):
    # NUL bytes pad the cells and are dropped, so a NUL of the cell's own would vanish
    with pytest.raises(ValueError, match="NUL"):
        cli.write_csv(tmp_path / "nul.csv", ("x", "s"), [1.5], ["a\0b"])


def test_write_csv_memory_is_bounded(tmp_path):
    # blocks of a few thousand values: 200,000 rows peaked at 0.78 MB
    x = np.linspace(-1.0, 1.0, 200_000)
    y = np.exp(x) * 1e-7
    cli.write_csv(tmp_path / "warm.csv", ("x", "y"), x, y)
    tracemalloc.start()
    try:
        cli.write_csv(tmp_path / "big.csv", ("x", "y"), x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_power_of_ten_table_is_empty_after_import():
    # the 501 powers of ten take 1 to 2 ms of big-integer arithmetic, and
    # the digit tables about as long; the first CSV write builds both
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probe = ("import arrowm.cli, arrowm._csvtext as t; "
             "print(t._pow10.cache_info().currsize, t._tables.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0"]


def _polyline_sizes(svg_path):
    root = ET.parse(svg_path).getroot()
    return [len(p.get("points").split())
            for p in root.iter("{http://www.w3.org/2000/svg}polyline")]


def _plotted_rows(csv_path):
    """Points per polyline of the SVG drawn from the same rows as ``csv_path``."""
    header, rows = read_csv(csv_path)
    if header[-1] == "path":  # one polyline per path, in sorted order
        counts = Counter(r[-1] for r in rows)
        return [counts[p] for p in sorted(counts)]
    if header[0] == "m":  # rho_plus and rho_minus on the bulk window
        bulk = sum(1e-3 <= float(r[0]) <= 1.0 - 1e-3 for r in rows)
        return [bulk, bulk]
    return [len(rows)]


@pytest.mark.parametrize("sub, extra", [
    ("spectrum", {"grid.n": 128}),
    ("fig1", {"grid.n": 512, "times.t_end": 1.0, "times.steps": 5, "path": "both"}),
    ("eigden", {"grid.n": 2048, "frames.density_points": 501}),
    ("fig2", {"grid.n": 2048, "frames.times": (2.0, 4.0), "frames.x_points": 801,
              "frames.density_points": 401}),
    # no lattice point of 2 or 3 lies in the plotted bulk window [1e-3, 1 - 1e-3]
    ("eigden", {"grid.n": 512, "frames.density_points": 2}),
    ("fig2", {"grid.n": 512, "frames.times": (2.0, 4.0), "frames.x_points": 101,
              "frames.density_points": 3}),
])
def test_every_svg_is_well_formed_with_one_point_per_row(tmp_path, sub, extra):
    run_scenario(sub, cfg_for(sub, tmp_path, extra=extra))
    svgs = sorted((tmp_path / "out").glob("*.svg"))
    assert len(svgs) == (4 if sub == "fig2" else 1)
    for svg in svgs:
        assert _polyline_sizes(svg) == _plotted_rows(svg.with_suffix(".csv")), svg.name


def test_svg_text_is_escaped(tmp_path):
    labels = {"title": "t < 1 & x > 0", "xlabel": "<x>", "ylabel": "<M>(t)"}
    write_line_plot(tmp_path / "p.svg", [0.0, 1.0], {"a<b": [0.0, 1.0], "c&d": [1.0, 0.0]},
                    **labels)
    texts = {t.text for t in ET.parse(tmp_path / "p.svg").getroot().iter(
        "{http://www.w3.org/2000/svg}text")}
    assert {*labels.values(), "a<b", "c&d"} <= texts


@pytest.mark.parametrize("x, y", [([1.0], [2.0]), ([0.0, 1.0, 2.0], [3.0, 3.0, 3.0]), ([], [])],
                         ids=["single_point", "constant_series", "no_points"])
def test_svg_of_a_zero_width_range_is_well_formed(tmp_path, x, y):
    write_line_plot(tmp_path / "p.svg", x, {"y": y})
    assert _polyline_sizes(tmp_path / "p.svg") == [len(x)]


# ---------------------------------------------------------------------------
# scenarios


def test_spectrum_scenario(tmp_path):
    cfg = cfg_for("spectrum", tmp_path, extra={"grid.n": 128})
    summary = run_scenario("spectrum", cfg)
    out = tmp_path / "out"
    header, rows = read_csv(out / "spectrum.csv")
    assert header == ["index", "eigenvalue"]
    eig = np.array([float(r[1]) for r in rows])
    assert eig.size == 128
    assert eig[0] >= -1e-6 and eig[-1] <= 1.0 + 1e-6
    assert summary["hermiticity_residual"] <= 1e-12
    svg = (out / "spectrum.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_spectrum_run_takes_one_circulant_fft(tmp_path, monkeypatch):
    # the Hermiticity residual and the Szego symbol read the same kept FFT
    sizes, fft = [], np.fft.fft

    def counted(a, *args, **kwargs):
        sizes.append(np.size(a))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    run_scenario("spectrum", cfg_for("spectrum", tmp_path, extra={"grid.n": 128}))
    assert sizes == [256]


def test_spectrum_scenario_accepts_odd_grid(tmp_path):
    # spectrum never runs the fast path, so its grid need not be a power of two
    cfg = cfg_for("spectrum", tmp_path, extra={"grid.n": 257})
    summary = run_scenario("spectrum", cfg)
    _, rows = read_csv(tmp_path / "out" / "spectrum.csv")
    eig = np.array([float(r[1]) for r in rows])
    assert eig.size == 257
    assert eig[0] >= -1e-6 and eig[-1] <= 1.0 + 1e-6
    assert summary["hermiticity_residual"] <= 1e-12
    assert summary["occupied_bins_of_20"] == 20


def test_spectrum_summary_distances_to_symbol_and_multiplier_decay(tmp_path):
    # Szego's first limit theorem: the eigenvalues distribute like the values
    # of the Toeplitz symbol, so W1 to the sampled symbol falls like 1/n.  The
    # parity rule's symbol tends to m(nu); the subtraction rule's first-order
    # error keeps it about 0.25 from m(nu) at every n.
    w1 = {}
    for quadrature in ("parity", "subtraction"):
        for n in (256, 512, 1024):
            cfg = cfg_for("spectrum", tmp_path, extra={"grid.n": n, "output.svg": False,
                                                       "operator.quadrature": quadrature})
            summary = run_scenario("spectrum", cfg)
            w1[quadrature, n] = summary["w1_to_symbol"], summary["w1_to_multiplier"]
    for quadrature in ("parity", "subtraction"):
        for n in (256, 512):
            assert w1[quadrature, n][0] >= 1.6 * w1[quadrature, 2 * n][0]
    for n in (256, 512):
        assert w1["parity", n][1] >= 1.6 * w1["parity", 2 * n][1]
    assert all(w1["subtraction", n][1] >= 0.2 for n in (256, 512, 1024))


def test_main_spectrum_beyond_physical_memory_exits_two_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"grid.n = {2**20}\n")
    rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("arrow-m spectrum: ") and err.count("\n") == 1
    assert "bytes" in err and "Traceback" not in err


def test_trajectory_scenario_summary_matches_csv(tmp_path):
    cfg = cfg_for("fig1", tmp_path,
                  extra={"grid.n": 512, "times.t_end": 8.0, "times.steps": 20})
    summary = run_scenario("fig1", cfg)
    header, rows = read_csv(tmp_path / "out" / "trajectory.csv")
    assert header == ["t", "expectation_m", "path"]
    vals = np.array([float(r[1]) for r in rows if r[2] == "fast"])
    assert vals.size == 20
    assert np.all(np.diff(vals) < 0.0)
    # the summary monotonicity field must agree with a post-hoc CSV scan
    assert float(np.max(np.diff(vals))) == summary["max_adjacent_increase_fast"]
    assert summary["n_monotone_violations_fast"] == 0
    assert summary["m_start_fast"] == pytest.approx(0.5, abs=1e-9)


def test_trajectory_scenario_both_paths(tmp_path):
    cfg = cfg_for("evolve", tmp_path,
                  extra={"grid.n": 512, "times.t_end": 1.0, "times.steps": 5,
                         "path": "both"})
    summary = run_scenario("evolve", cfg)
    _, rows = read_csv(tmp_path / "out" / "trajectory.csv")
    assert {r[2] for r in rows} == {"fast", "direct"}
    assert len(rows) == 10
    assert summary["dual_path_max_expectation_diff"] < 1e-3


def test_eigenfunction_state_scenario(tmp_path):
    text = "state.kind = eigenfunction\nstate.m = 0.4\nstate.channel = +\n"
    cfg = cfg_for("evolve", tmp_path, config_text=text,
                  extra={"grid.e_min": 1e-8, "grid.e_max": 1e8, "grid.n": 1024,
                         "times.t_end": 4.0, "times.steps": 9})
    run_scenario("evolve", cfg)
    _, rows = read_csv(tmp_path / "out" / "trajectory.csv")
    vals = np.array([float(r[1]) for r in rows])
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert vals[0] == pytest.approx(0.4, abs=2e-2)


def test_eigden_scenario(tmp_path):
    cfg = cfg_for("eigden", tmp_path, extra={"grid.n": 2048, "density.time": 2.0,
                                             "frames.density_points": 501})
    summary = run_scenario("eigden", cfg)
    header, rows = read_csv(tmp_path / "out" / "eigen_density.csv")
    assert header == ["m", "rho_plus", "rho_minus", "nu"]
    assert len(rows) == 501
    m = np.array([float(r[0]) for r in rows])
    assert np.all((m > 0.0) & (m < 1.0))
    assert summary["frame_covered_mass"] == pytest.approx(1.0, abs=1e-6)
    assert summary["density_mass"] == pytest.approx(1.0, abs=1e-6)
    svg = (tmp_path / "out" / "eigen_density.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_bad_grid_config_becomes_scenario_error(tmp_path):
    cfg = cfg_for("spectrum", tmp_path, extra={"grid.e_min": -1.0, "grid.n": 64})
    with pytest.raises(ScenarioError, match="grid"):
        run_scenario("spectrum", cfg)


def test_fig2_scenario_frames(tmp_path):
    cfg = cfg_for("fig2", tmp_path,
                  extra={"grid.n": 2048, "frames.times": (2.0, 4.0, 8.0),
                         "frames.x_points": 801, "frames.density_points": 401})
    summary = run_scenario("fig2", cfg)
    out = tmp_path / "out"
    variances = []
    for k in range(3):
        header, rows = read_csv(out / f"position_density_{k:02d}.csv")
        assert header == ["coordinate", "density"]
        x = np.array([float(r[0]) for r in rows])
        dens = np.array([float(r[1]) for r in rows])
        mass = np.trapezoid(dens, x)
        assert mass == pytest.approx(1.0, abs=1e-8)
        mean = np.trapezoid(x * dens, x) / mass
        variances.append(np.trapezoid((x - mean) ** 2 * dens, x) / mass)

        header, rows = read_csv(out / f"eigen_density_{k:02d}.csv")
        assert header == ["m", "rho_plus", "rho_minus", "nu"]
        m = np.array([float(r[0]) for r in rows])
        rho = np.array([float(r[1]) + float(r[2]) for r in rows])
        nu = frequency_of_eigenvalue(m)
        frame_mass = np.trapezoid(rho * frequency_jacobian(m), nu)
        assert frame_mass == pytest.approx(1.0, abs=1e-6)
    assert variances[0] < variances[1] < variances[2]
    assert summary["n_frames"] == 3


def test_fig2_density_csv_nu_column_gives_covered_mass(tmp_path):
    # integrating over the written nu needs no nu(m) round trip, which is
    # ill-conditioned near m = 1 (off by about 1e-8 at these defaults)
    summary = run_scenario("fig2", cfg_for("fig2", tmp_path, extra={"output.svg": False}))
    for k in range(summary["n_frames"]):
        _, rows = read_csv(tmp_path / "out" / f"eigen_density_{k:02d}.csv")
        m, rho_plus, rho_minus, nu = np.array(rows, dtype=float).T
        assert np.all(np.diff(nu) > 0.0)
        covered = np.trapezoid((rho_plus + rho_minus) * frequency_jacobian(m), nu)
        assert abs(covered - summary[f"frame_{k:02d}_density_covered_mass"]) <= 1e-12


def test_density_frames_report_the_library_moments(tmp_path):
    cfg = cfg_for("fig2", tmp_path, extra={"grid.n": 1024, "frames.x_points": 101,
                                           "output.svg": False})
    summary = run_scenario("fig2", cfg)
    state = cli.build_scenario_state(cfg, cli.build_scenario_grid(cfg))
    for k, t in enumerate(cfg["frames.times"]):
        evolved = evolve(state, t)
        *_, mass, first, _ = cli.eigen_density_frame(evolved, 801)
        assert (mass, first) == eigen_density_moments(evolved), t
        assert summary[f"frame_{k:02d}_expectation_m"] == expectation_m(evolved), t


def test_density_frames_report_the_mass_below_the_frame_edge(tmp_path):
    # the frames end at nu = -5.5, where m is within 1e-15 of 1; at t = -4
    # the packet reaches past it, so the covered mass reads 0.99905 and the
    # lattice weight below the edge says where the rest went
    small = {"frames.x_points": 101, "frames.density_points": 101, "output.svg": False}
    fig2 = run_scenario("fig2", cfg_for("fig2", tmp_path / "fig2",
                                        extra={**small, "frames.times": (-4.0, 2.0)}))
    assert fig2["frame_00_density_covered_mass"] == pytest.approx(0.99905, abs=1e-5)
    assert fig2["frame_00_density_mass_below_edge"] == pytest.approx(8.8e-4, rel=5e-3)
    assert fig2["frame_01_density_mass_below_edge"] == pytest.approx(2.2e-7, rel=5e-3)
    for k, t in enumerate((-4.0, 2.0)):
        eigden = run_scenario("eigden", cfg_for("eigden", tmp_path / f"eigden{k}",
                                                extra={**small, "density.time": t}))
        assert (eigden["frame_density_mass_below_edge"]
                == fig2[f"frame_{k:02d}_density_mass_below_edge"])


def test_fig2_requires_gaussian_state(tmp_path):
    cfg = cfg_for("fig2", tmp_path, config_text="state.kind = eigenfunction\n",
                  extra={"grid.e_min": 1e-8, "grid.e_max": 1e8, "grid.n": 1024})
    with pytest.raises(ScenarioError, match="gaussian"):
        run_scenario("fig2", cfg)


def test_gaussian_tail_safety_enforced(tmp_path):
    cfg = cfg_for("fig1", tmp_path, extra={"grid.e_min": 1e-6, "grid.n": 512})
    with pytest.raises(ScenarioError, match="widen"):
        run_scenario("fig1", cfg)


@pytest.mark.parametrize("sub", sorted(cli.SUBCOMMANDS))
def test_runners_return_their_outputs_and_write_no_file(tmp_path, monkeypatch, sub):
    # only run_scenario writes: a runner returns (summary entries, outputs)
    monkeypatch.chdir(tmp_path)
    cfg = load_config(sub, None, {"output.dir": "out", "grid.n": 512, "times.steps": 5,
                                  "frames.times": (2.0,), "frames.x_points": 101,
                                  "frames.density_points": 101})
    entries, outputs = cli.SUBCOMMANDS[sub][0](cfg)
    assert list(tmp_path.iterdir()) == []
    assert isinstance(entries, dict) and entries and "scenario" not in entries
    assert outputs
    for stem, header, columns, plot in outputs:
        assert isinstance(stem, str) and len(columns) == len(header)
        assert plot is None or len(plot) == 5


def test_unwritable_output_directory(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("")
    cfg = load_config("spectrum", None, {"output.dir": str(blocker), "grid.n": 64})
    with pytest.raises(ScenarioError, match="not writable"):
        run_scenario("spectrum", cfg)


# ---------------------------------------------------------------------------
# entry point


def test_main_verify_exits_zero(tmp_path):
    assert main(["verify", "--out", str(tmp_path / "v")]) == 0
    rows = {row[0]: row[1:] for row in
            (line.split(",") for line in
             (tmp_path / "v" / "verify_results.csv").read_text().splitlines()[1:])}
    # Szego at n = 256 on (1e-3, 1e3): the parity eigenvalues lie 6.25e-3 from m(nu_k)
    status, value, tol = rows["szego_parity_to_multiplier"]
    assert status == "PASS" and float(tol) == 1e-2
    assert float(value) == pytest.approx(6.25e-3, rel=0.01)


def test_main_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense.key = 1\n")
    rc = main(["fig1", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("sub,text", [
    ("fig1", "times.t_end = -1\n"),
    ("evolve", "state.kind = eigenfunction\nstate.m = 1.5\n"),
    ("evolve", "state.window_flat = 0.9\nstate.kind = eigenfunction\n"),
    ("fig1", "times.steps = 1\n"),
    ("evolve", "times.steps = 5\nstate.p0 = nan\n"),
    ("fig2", "frames.times = \n"),
    # inputs that overflow a float (RuntimeWarnings are errors here)
    ("fig1", "grid.e_min = 1e-320\n"),
    ("spectrum", "grid.e_min = 1e-300\ngrid.e_max = 1e308\n"),
    ("spectrum", "grid.e_min = 1e-3\ngrid.e_max = 1.7e308\n"),
    ("fig1", "grid.e_min = 1e-300\nstate.eta = 1e10\n"),
    ("fig1", "state.xi0 = 1e-170\n"),
    ("fig1", "state.xi0 = 1e-160\n"),
    ("fig2", "frames.times = 1e160\n"),
    # times at which the phases E t keep no digit on the packet's mass
    ("fig1", "times.t_end = 1e300\n"),
    ("eigden", "density.time = 1e300\n"),
    ("fig2", "frames.times = 1e100, 1e153\n"),
    # a refused frame after an accepted one: still no file
    ("fig2", "frames.times = 2, 1e154\n"),
    # too few position points to hold the packet's mass within 1e-8
    ("fig2", "frames.x_points = 9\n"),
    # density frames holding more mass than the state: too coarse a grid or frame
    ("eigden", "grid.n = 64\n"),
    ("fig2", "frames.density_points = 17\n"),
    # a packet whose center p0 t / eta overflows while its spread does not
    ("fig2", "grid.e_min = 1e-170\ngrid.e_max = 1e170\nstate.eta = 1e-160\n"
             "state.p0 = 10\nstate.xi0 = 1\nframes.times = 2e147\n"),
])
def test_main_bad_scenario_exits_two_with_one_line(tmp_path, capsys, sub, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid.n = 512\n" + text)
    rc = main([sub, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"arrow-m {sub}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    # only the writability probe may have made the directory
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


def test_main_failed_eigensolve_exits_two_with_one_line(tmp_path, capsys, monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    rc = main(["spectrum", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == "arrow-m spectrum: Eigenvalues did not converge\n"


@pytest.mark.parametrize("config", [None, "output.dir =\n"], ids=["out", "config"])
def test_main_empty_output_dir_exits_two_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                           config):
    args = ["--out", ""]
    if config is not None:
        (tmp_path / "empty.cfg").write_text(config)
        args = ["--config", str(tmp_path / "empty.cfg")]
    monkeypatch.chdir(tmp_path)
    assert main(["eigden", *args]) == 2
    err = capsys.readouterr().err
    assert err == "arrow-m eigden: output.dir is empty; name an output directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if config is None else ["empty.cfg"])


def test_main_fig2_at_a_huge_finite_time(tmp_path, capsys):
    # the run is refused, since the energy frames' phases keep no digit; the
    # closed-form position frames still hold their mass at such times
    cfg = tmp_path / "late.cfg"
    cfg.write_text("grid.n = 512\nframes.times = 1e100, 1e153\noutput.svg = false\n")
    assert main(["fig2", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("arrow-m fig2: at t = 1e+100 the phases")
    packaged = load_config("fig2")
    for t in (1e100, 1e153):
        _, _, mass, _ = cli._position_frame(cli._packet(packaged), t, packaged["frames.x_points"])
        assert mass == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("blocked", ["trajectory.svg", "trajectory.csv"])
def test_main_unwritable_output_file_exits_two_with_one_line(tmp_path, capsys, blocked):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("grid.n = 512\ntimes.steps = 5\n")
    (tmp_path / "o" / blocked).mkdir(parents=True)
    rc = main(["fig1", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("arrow-m fig1: ") and err.count("\n") == 1
    assert blocked in err and "Traceback" not in err


@pytest.mark.parametrize("sub,runner_dependency", [("fig1", "trajectory"), ("eigden", "evolve")])
def test_main_out_of_memory_exits_two_with_one_line(tmp_path, monkeypatch, capsys, sub,
                                                     runner_dependency):
    # numpy raises a MemoryError subclass when an array cannot be allocated
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.42 PiB for an array")

    monkeypatch.setattr(cli, runner_dependency, refuse)
    cfg = tmp_path / "small.cfg"
    cfg.write_text("grid.n = 512\ntimes.steps = 5\n")
    rc = main([sub, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"arrow-m {sub}: out of memory: Unable to allocate 1.42 PiB for an array\n"


def test_main_failed_verify_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_verify_checks", lambda: [("broken", "FAIL", 1.0, 0.0)])
    assert main(["verify", "--out", str(tmp_path / "v")]) == 1
    assert "verify: FAIL (1 checks, 1 failed)" in capsys.readouterr().out


def test_main_fast_path_accepts_any_grid_size(tmp_path):
    # numpy's FFT takes any length, so the fast path needs no power of two
    cfg = tmp_path / "fig1.cfg"
    cfg.write_text("grid.n = 1000\n")
    assert main(["fig1", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "summary.txt").read_text().splitlines()
    summary = dict(line.split(" = ", 1) for line in lines)
    assert summary["grid.n"] == "1000" and summary["path"] == "fast"
    assert float(summary["m_start_fast"]) == pytest.approx(0.5, abs=1e-6)
    assert int(summary["n_monotone_violations_fast"]) == 0


def test_main_fig1_over_the_whole_time_line(tmp_path):
    # negative times are times too: <M>(t) + <M>(-t) = 1 for the real packet
    cfg = tmp_path / "whole_line.cfg"
    cfg.write_text("grid.n = 1024\ntimes.t_start = -16\ntimes.t_end = 16\n"
                   "times.steps = 41\n")
    out = tmp_path / "o"
    assert main(["fig1", "--path", "both", "--config", str(cfg), "--out", str(out)]) == 0
    summary = dict(line.split(" = ", 1) for line in (out / "summary.txt").read_text().splitlines())
    _, rows = read_csv(out / "trajectory.csv")
    for p in ("fast", "direct"):
        m_start, m_end = float(summary[f"m_start_{p}"]), float(summary[f"m_end_{p}"])
        assert m_start + m_end == pytest.approx(1.0, abs=1e-12), p
        assert int(summary[f"n_monotone_violations_{p}"]) == 0, p
        vals = np.array([float(r[1]) for r in rows if r[2] == p])
        assert vals.size == 41
        assert np.max(np.abs(vals + vals[::-1] - 1.0)) <= 1e-12, p


_RUN_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises
from arrowm.cli import main
cfg, out = sys.argv[1:]
runs = [["spectrum"], ["fig1", "--path", "both"], ["eigden"], ["fig2"], ["verify"]]
print([main([*run, "--config", cfg, "--out", f"{out}/{run[0]}"]) for run in runs])
"""


def test_runtime_needs_no_scipy(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}

    def python(*args):
        done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1]

    loaded = "[k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')]"
    assert python("-c", f"import sys, arrowm.cli; print({loaded})") == "[]"
    cfg = tmp_path / "small.cfg"
    cfg.write_text("grid.n = 256\ntimes.steps = 5\nframes.times = 2\n"
                   "frames.x_points = 101\nframes.density_points = 101\noutput.svg = false\n")
    assert python("-c", _RUN_WITHOUT_SCIPY, str(cfg), str(tmp_path / "o")) == "[0, 0, 0, 0, 0]"


def test_main_cli_overrides(tmp_path):
    rc = main(["spectrum", "--out", str(tmp_path / "s")])
    assert rc == 0
    header, rows = read_csv(tmp_path / "s" / "spectrum.csv")
    eig = np.array([float(r[1]) for r in rows])
    assert eig.size == 512  # packaged default grid
    assert np.all((eig >= -1e-6) & (eig <= 1.0 + 1e-6))

    cfg = tmp_path / "small.cfg"
    cfg.write_text("grid.n = 256\ntimes.steps = 5\n")
    assert main(["fig1", "--path", "both", "--config", str(cfg),
                 "--out", str(tmp_path / "f")]) == 0
    lines = (tmp_path / "f" / "summary.txt").read_text().splitlines()
    summary = dict(line.split(" = ", 1) for line in lines)
    assert summary["path"] == "both" and "m_start_direct" in summary
    assert float(summary["dual_path_max_expectation_diff"]) < 1e-3


def test_determinism_fig1_reruns_byte_identical(tmp_path):
    extra = {"grid.n": 512, "times.t_end": 4.0, "times.steps": 10}
    run_scenario("fig1", cfg_for("fig1", tmp_path / "a", extra=extra))
    run_scenario("fig1", cfg_for("fig1", tmp_path / "b", extra=extra))
    a = (tmp_path / "a" / "out" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "out" / "trajectory.csv").read_bytes()
    assert a == b
