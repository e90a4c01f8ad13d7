"""Workload process: import arrowm.cli, then run one scenario in a closed loop.

Started by ``run.py`` in a fresh interpreter.  It prints ``ready`` as soon as
``arrowm.cli`` is imported (the parent times spawn-to-ready as set-up), then
either exits (``--setup-only``) or reads a job file and runs the job:

* one warm-up invocation, checked but not timed;
* timed invocations of ``arrowm.cli.main(argv)``, each starting after the
  previous one returned, until the job's seconds are used up;
* with tracing, the warm-up is traced (it gives the cold first-call times)
  and the timed invocations alternate untraced and traced, so the two medians
  give the tracing overhead.

Every invocation is checked: exit code, the workload's output checks, and CSV
bytes against the first invocation.  The result goes to the job's result file.
"""
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import arrowm.cli  # noqa: E402  (set-up ends when this import returns)

print("ready", flush=True)

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import machine  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Loop:
    """Closed-loop invoker with per-invocation checks."""

    def __init__(self, job: dict):
        self.name = job["workload"]
        self.argv = job["argv"]
        self.out_dir = Path(job["out_dir"])
        self.attempted = 0
        self.failures = []
        self.checked = None
        self.reference_csvs = None

    def _csvs(self) -> dict:
        return {p.name: p.read_bytes() for p in sorted(self.out_dir.glob("*.csv"))}

    def csv_digest(self):
        """Digest of the first invocation's CSVs, to compare across processes."""
        if self.reference_csvs is None:
            return None
        digest = hashlib.sha256()
        for name, data in self.reference_csvs.items():
            digest.update(name.encode() + b"\0" + data)
        return digest.hexdigest()

    def invoke(self) -> float:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.attempted += 1
        start = perf_counter()
        try:
            code = arrowm.cli.main(self.argv)
            problem = None if code == 0 else f"exit code {code}"
        except Exception:  # a crash is a failed invocation; keep measuring
            problem = traceback.format_exc(limit=4)
        elapsed = perf_counter() - start
        if problem is None:
            try:
                failed, values = workloads.check(self.name, self.out_dir)
                csvs = self._csvs()
            except (OSError, KeyError, ValueError, IndexError) as exc:
                failed, values, csvs = [f"outputs unreadable: {exc!r}"], {}, None
            if self.reference_csvs is None:
                self.reference_csvs, self.checked = csvs, values
            elif csvs != self.reference_csvs:
                failed = failed + ["CSV bytes differ from the first invocation"]
            problem = "; ".join(failed) or None
        if problem is not None:
            self.failures.append(f"invocation {self.attempted}: {problem}")
        return elapsed


def _enough(samples: list, seconds: float, started: float, minimum: int) -> bool:
    if len(samples) < minimum:
        return False
    return perf_counter() - started + statistics.median(samples) > seconds


def run(job: dict) -> dict:
    loop = Loop(job)
    seconds, minimum = job["seconds"], job["min_samples"]
    untraced, traced = [], []
    tracer = tracing.Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    warmup = loop.invoke()
    if tracer:
        tracer.uninstall()
    started = perf_counter()
    if not tracer:
        while not _enough(untraced, seconds, started, minimum):
            untraced.append(loop.invoke())
    else:
        traced_ids = []
        while not _enough(untraced + traced, seconds, started, 2 * minimum):
            if len(traced) < len(untraced):
                tracer.invocation = loop.attempted + 1
                tracer.install()
                traced.append(loop.invoke())
                tracer.uninstall()
                traced_ids.append(tracer.invocation)
            else:
                untraced.append(loop.invoke())
    result = {
        "warmup_s": warmup,
        "durations_s": untraced,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures[:20],
        "checked": loop.checked,
        "csv_digest": loop.csv_digest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas": machine.blas(),
    }
    if tracer:
        per_inv = tracer.per_invocation(traced_ids)
        ids = set(traced_ids)
        main_busy = sum(end - start for name, start, end, _, inv, _ in tracer.spans
                        if name == "cli.main" and inv in ids)
        result["traced_durations_s"] = traced
        result["per_invocation"] = per_inv
        result["first_call_s"] = tracer.first_call_s()
        result["missing_functions"] = sorted(tracer.missing)
        result["trace"] = {
            "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
            "trace.main_coverage_frac": main_busy / sum(traced),
        }
        tracer.write_spans(job["spans"])
    return result


def main() -> int:
    if sys.argv[1:] == ["--setup-only"]:
        return 0
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(job)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
