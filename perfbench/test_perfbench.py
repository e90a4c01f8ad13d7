"""The benchmark's own test: toy-size runs, the result line and the checks.

Run from the repository root with ``python -m pytest perfbench``.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.LAYER_METRICS)
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in spec["end_to_end"])


def test_seed_zero_is_packaged_and_seeds_repeat():
    assert workloads.draw(0)["p0"] == 0.64 and workloads.draw(0)["xi0"] == 0.3
    _, text, _ = workloads.generate("spectrum", 0)
    assert "grid.e_min = 0.001\n" in text and "grid.e_max = 1000.0\n" in text
    for seed in (1, 2, 12345):
        drawn = workloads.draw(seed)
        assert workloads.P0_BOX[0] <= drawn["p0"] <= workloads.P0_BOX[1]
        assert workloads.XI0_BOX[0] <= drawn["xi0"] <= workloads.XI0_BOX[1]
        times = drawn["frame_fractions"]
        assert times[0] == 0.0 and times[-1] == 1.0
        assert all(b > a for a, b in zip(times, times[1:]))
        assert workloads.generate("density_frames", seed) == workloads.generate(
            "density_frames", seed)
    assert workloads.draw(1) != workloads.draw(2)


def test_checks_flag_a_bad_orbit(tmp_path):
    lines = {"m_start_fast": "0.5", "m_end_fast": "0.3", "n_monotone_violations_fast": "2",
             "max_adjacent_increase_fast": "1e-3"}
    (tmp_path / "summary.txt").write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    failed, values = workloads.check("orbit_fast", tmp_path)
    assert len(failed) == 3 and values["m_end_fast"] == 0.3


def test_toy_runs_of_every_workload_pass():
    done = _bench("--all", "--toy", "--seconds", "0.5")
    assert done.returncode == 0, done.stdout + done.stderr
    for name in workloads.WORKLOADS:
        assert f"{name} seed=0: failed_frac = 0 " in done.stdout
    assert done.stdout.count("run_s = ") == len(workloads.WORKLOADS)


def test_traced_toy_run_prints_every_layer_metric():
    done = _bench("--workload", "orbit_dual", "--seed", "3", "--toy", "--seconds", "0.5",
                  "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _, _ in tracing.LAYER_METRICS]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["operator.build_dense_m.matrix_bytes"] == 16 * 1024 ** 2
    assert metrics["operator.apply_m_direct.calls"] == 41
    assert metrics["trace.main_coverage_frac"] > 0.9


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "orbit_fast", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_tracer_replaces_every_binding_and_nests_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import arrowm.dynamics
    import arrowm.grid

    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + (("grid", "no_such_function", (), None),))
    original = arrowm.grid.make_state
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert arrowm.dynamics.make_state is arrowm.grid.make_state is not original
        grid = arrowm.grid.make_log_grid(1e-3, 1e3, 64)
        state = arrowm.grid.make_state(grid, ("+", "-"), [[1.0] * 64, [0.5] * 64])
        tracer.invocation = 1
        arrowm.dynamics.expectation_m(arrowm.dynamics.evolve(state, 1.0))
    finally:
        tracer.uninstall()
    assert arrowm.dynamics.make_state is arrowm.grid.make_state is original
    assert tracer.missing == {"grid.no_such_function"}
    stats = tracer.per_invocation([1])
    assert stats["grid.make_state"]["calls"] == 1  # inside evolve
    assert stats["grid.make_state"]["bytes_copied"] == 16 * 2 * 64
    assert stats["mellin.forward_mellin"]["fft_points"] == 2 * 64
    evolve = stats["dynamics.evolve"]
    assert evolve["self_s"] == pytest.approx(
        evolve["busy_s"] - stats["grid.make_state"]["busy_s"])
