"""arrowm benchmark: time the ``arrow-m`` scenarios end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload orbit_fast --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --all                 # every workload, one table
    python3 perfbench/run.py --all --toy --seconds 1 --trace 1   # seconds, small sizes

One run makes the workload's config file from ``--seed``, measures set-up by
spawning fresh interpreters that import ``arrowm.cli``, and runs the workload
in fresh processes (``worker.py``) for ``--seconds`` in all.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics without tracing, the
per-layer metrics with ``--trace 1``.  The full record (machine, drawn inputs,
checked values, samples) goes to ``.perfbench_out/<workload>/``, and a traced
run also writes its spans there.

Exit status: 0 when every invocation passed its checks, 1 when one failed
(the result is still printed), 2 when the benchmark could not run at all.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import machine
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK_DIR = ROOT / ".perfbench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "1"),
)
# Noise on a shared host comes in stretches of seconds to a minute and differs
# between processes, so an untraced run pools rounds of (set-up probes, fresh
# workload process) instead of measuring one process.
ROUNDS = 2
PROBES_PER_ROUND = 3
IMPORTTIME_SPAWNS = 3
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run deadline passed")
    return left


def _spawn(args, deadline: float, **popen) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with its spawn-to-ready time."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, **popen)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        _reap(proc, deadline)
        raise BenchError(f"worker did not start (exit code {proc.returncode}); "
                         f"is the arrowm source under {ROOT / 'src'}?")
    return proc, ready


def _reap(proc: subprocess.Popen, deadline: float) -> tuple[str, str]:
    try:
        return proc.communicate(timeout=_remaining(deadline))
    except (subprocess.TimeoutExpired, BenchError):
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run deadline") from None


def _importtime(deadline: float) -> dict:
    """Cumulative import times of arrowm.cli and scipy.integrate, from -X importtime."""
    samples = {"setup.import.arrowm_s": [], "setup.import.scipy_integrate_s": []}
    for _ in range(IMPORTTIME_SPAWNS):
        proc, _ = _spawn(["-X", "importtime", str(WORKER), "--setup-only"], deadline,
                         stderr=subprocess.PIPE)
        _, err = _reap(proc, deadline)
        cumulative = {}
        for line in err.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) * 1e-6
        samples["setup.import.arrowm_s"].append(cumulative.get("arrowm.cli", 0.0))
        samples["setup.import.scipy_integrate_s"].append(cumulative.get("scipy.integrate", 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


def _work(name: str, run_dir: Path, argv: list, seconds: float, trace: bool, index: int,
          deadline: float) -> tuple[dict, float]:
    """Run one workload process; returns its result and its set-up time."""
    job = {
        "workload": name,
        "argv": [argv[0], "--config", str(run_dir / "workload.cfg"),
                 "--out", str(run_dir / "out"), *argv[1:]],
        "out_dir": str(run_dir / "out"),
        "seconds": seconds,
        "min_samples": 2 if trace else 1,
        "trace": trace,
        "result": str(run_dir / f"worker{index}.json"),
        "spans": str(run_dir / "spans.csv"),
    }
    path = run_dir / f"job{index}.json"
    path.write_text(json.dumps(job, indent=1), encoding="utf-8")
    result = Path(job["result"])
    result.unlink(missing_ok=True)
    proc, ready = _spawn([str(WORKER), str(path)], deadline)
    _reap(proc, deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8")), ready


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool) -> dict:
    """One run of one workload; returns the full record.

    Untraced, the run is :data:`ROUNDS` rounds, each some set-up probes and
    then a fresh workload process that warms up and measures for its share of
    ``seconds``.  Samples from all rounds are pooled, which spreads them over
    processes and over the whole run.  A traced run is one process, after
    ``-X importtime`` probes for the import layer.
    """
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "arrowm" / "cli.py").is_file():
        raise BenchError(f"no arrowm source under {ROOT / 'src'}")
    load_start = os.getloadavg()
    run_dir = WORK_DIR / name / f"seed{seed}-trace{int(trace)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    argv, cfg_text, drawn = workloads.generate(name, seed, toy)
    (run_dir / "workload.cfg").write_text(cfg_text, encoding="utf-8")

    setups, results, measured = [], [], {}
    if trace:
        measured = _importtime(deadline)
        result, ready = _work(name, run_dir, argv, seconds, True, 0, deadline)
        results.append(result)
        setups.append(ready)
    else:
        for index in range(ROUNDS):
            for _ in range(PROBES_PER_ROUND):
                proc, ready = _spawn([str(WORKER), "--setup-only"], deadline)
                _reap(proc, deadline)
                setups.append(ready)
            result, ready = _work(name, run_dir, argv, seconds / ROUNDS, False, index,
                                  deadline)
            results.append(result)
            setups.append(ready)

    durations = [d for r in results for d in r["durations_s"]]
    attempted = sum(r["attempted"] for r in results)
    failures = [f"process {i}, {f}" for i, r in enumerate(results) for f in r["failures"]]
    failed = sum(r["failed"] for r in results)
    digests = {r["csv_digest"] for r in results if r["csv_digest"]}
    if len(digests) > 1:  # a process wrote other CSV bytes than the first
        failed += 1
        failures.append("CSV bytes differ between workload processes")
    if trace:
        measured.update(results[0]["trace"])
        metrics = tracing.layer_metrics(results[0]["per_invocation"],
                                        results[0]["first_call_s"], measured)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(durations),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    record = {
        "workload": name,
        "why": workloads.WORKLOADS[name].why,
        "seed": seed,
        "drawn": drawn,
        "config": cfg_text,
        "toy": toy,
        "trace": trace,
        "seconds": seconds,
        "loop": "closed, one client; each invocation starts after the previous returns",
        "machine": {**machine.describe(), **results[0]["blas"],
                    "loadavg_start": load_start, "loadavg_end": os.getloadavg()},
        "setup_samples_s": setups,
        "run_samples_s": durations,
        "traced_samples_s": results[0].get("traced_durations_s"),
        "warmup_s": [r["warmup_s"] for r in results],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures[:20],
        "checked": results[0]["checked"],
        "missing_functions": results[0].get("missing_functions"),
        "computed_counters": sorted(f"{label}.{c}" for label, names in tracing.COUNTERS.items()
                                    for c in names),
        "metrics": metrics,
    }
    if len(durations) >= 100:  # a tail percentile needs 10 samples beyond it
        record["run_s_p90"] = statistics.quantiles(durations, n=10)[-1]
    (run_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def _describe(record: dict) -> list:
    n = len(record["run_samples_s"])
    lines = [f"{record['workload']} seed={record['seed']}: "
             f"failed_frac = {record['failed_frac']:.4g} ({record['failed']} of "
             f"{record['attempted']} invocations)"]
    samples = {"setup_s": len(record["setup_samples_s"]), "run_s": n}
    computed = {c for names in tracing.COUNTERS.values() for c in names}
    for key, m in record["metrics"].items():
        count = samples.get(key)
        note = f" (median of {count})" if count else ""
        if key.rsplit(".", 1)[-1] in computed:
            note = " (computed)"
        lines.append(f"  {key} = {m['value']:.6g} {m['unit']}{note}")
    if "run_s_p90" in record:
        lines.append(f"  run_s p90 = {record['run_s_p90']:.6g} s (of {n})")
    if record.get("missing_functions"):
        lines.append(f"  not traced (absent): {', '.join(record['missing_functions'])}")
    for failure in record["failures"][:5]:
        lines.append(f"  FAILED {failure}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="small sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.all else [args.workload]
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace), args.toy)
            print("\n".join(_describe(record)), flush=True)
            records.append(record)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    correct = all(r["failed"] == 0 for r in records)
    if not args.all:
        r = records[0]
        print(json.dumps({"correct": correct, "attempted": r["attempted"], "failed": r["failed"],
                          "metrics": r["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
