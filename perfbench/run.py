"""plastprobe benchmark: one workload, closed loop, correctness-checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding ``src/plastprobe``.  The seed
generates the scenario file (see workloads.py); the program only sees
that file.  One client runs the CLI on it in a fresh child process, the
next run starting when the previous one ends, until --seconds is used.
Child processes are pinned to one BLAS thread.

--trace 0 reports the end-to-end metrics over the runs:
  wall_s       median child process start to exit, report written (s)
  setup_s      median parse_scenario + validate + grid build (s)
  steps_per_s  median Rothe steps per second of evolution.run time (1/s)
  peak_rss_mb  smallest peak RSS of a child process (MB)
Times are scaled to the reference core speed of speed.py with the probe
samples taken in the same child, which cancels the host's drift in core
speed; the unscaled medians and the sample count are printed beside
them.  Allocator and kernel effects only ever add resident pages to a
run, so peak RSS is the smallest over the runs.
--trace 1 alternates untraced and traced runs and reports the per-layer
split of the traced ones (tracer.layer_metrics) plus the tracing
overhead.  Every run is checked (checks.py); the last stdout line is
the JSON result, earlier lines are for people.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, write_scenario  # noqa: E402

WORK_DIR = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
BLAS_THREADS = 1
BLAS_ENV = {k: str(BLAS_THREADS) for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
CHILD_TIMEOUT_S = 120.0     # keeps a run with a hung child under 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s",
                    "peak_rss_mb": "MB"}
SUMMARY = {"wall_s": statistics.median, "setup_s": statistics.median,
           "steps_per_s": statistics.median, "peak_rss_mb": min}


@dataclass
class Sample:
    mode: str
    started: float          # perf_counter when the child was started
    raw_wall_s: float
    peak_rss_mb: float
    exit_code: int
    spans: list | None
    speed_probes: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    bytes_written: int = 0

    def __post_init__(self):
        self.scaled = speed.SpeedScale(self.speed_probes).seconds

    @property
    def wall_s(self) -> float:
        """Child start to exit at the reference core speed."""
        return self.scaled(self.started, self.started + self.raw_wall_s)


def run_child(workload, scenario: Path, out_dir: Path, mode: str) -> Sample:
    """One CLI run in a child process; wall clock and peak RSS from wait4."""
    result = out_dir.with_suffix(".json")
    log = out_dir.with_suffix(".log")
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--result", str(result), "--", workload.command, str(scenario),
           "--out", str(out_dir), "--reproducible"]
    env = {**os.environ, **BLAS_ENV}
    with open(log, "w") as log_fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log_fh, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    spans, probes = None, []
    if proc.returncode == 0 and result.exists():
        out = json.loads(result.read_text())
        spans, probes = out["spans"], out["speed_probes"]
    sample = Sample(mode=mode, started=t0, raw_wall_s=wall,
                    peak_rss_mb=usage.ru_maxrss / 1024,
                    exit_code=proc.returncode, spans=spans,
                    speed_probes=probes)
    if out_dir.exists():
        sample.bytes_written = sum(p.stat().st_size for p in out_dir.rglob("*")
                                   if p.is_file() and p.name != "meta.json")
    return sample


def check_sample(workload, sample: Sample, out_dir: Path, reference) -> None:
    sample.problems = checks.check_run(workload, sample.exit_code,
                                       sample.spans, out_dir, reference)
    if sample.problems:
        log = out_dir.with_suffix(".log")
        tail = log.read_text()[-2000:] if log.exists() else ""
        print(f"run failed: {'; '.join(sample.problems)}\n{tail}",
              file=sys.stderr)


def closed_loop(workload, scenario: Path, work: Path, seconds: float,
                modes: tuple, reference) -> list[Sample]:
    """Rounds of one run per mode until the next round would overrun."""
    samples: list[Sample] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for mode in modes:
            out_dir = work / f"run{len(samples):03d}-{mode}"
            sample = run_child(workload, scenario, out_dir, mode)
            check_sample(workload, sample, out_dir, reference)
            shutil.rmtree(out_dir, ignore_errors=True)
            samples.append(sample)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return samples


def end_to_end(samples: list[Sample], scaled: bool = True) -> dict:
    """{metric: (summary, sample count, values)} over the runs that passed."""
    ok = [s for s in samples if not s.problems] or samples
    setup, rate = [], []
    for s in ok:
        if s.spans:
            cost = s.scaled if scaled else (lambda a, b: b - a)
            setup.append(tracer.setup_seconds(s.spans, cost))
            steps, secs = tracer.evolution_steps(s.spans, cost)
            if secs > 0:
                rate.append(steps / secs)
    values = {
        "wall_s": [s.wall_s if scaled else s.raw_wall_s for s in ok],
        "setup_s": setup,
        "steps_per_s": rate,
        "peak_rss_mb": [s.peak_rss_mb for s in ok],
    }
    return {k: (SUMMARY[k](v) if v else 0.0, len(v), v)
            for k, v in values.items()}


def per_layer(samples: list[Sample], problems: list) -> dict:
    traced = [s for s in samples if s.mode == "trace" and not s.problems]
    per_run = [tracer.layer_metrics(s.spans) for s in traced]
    for s, m in zip(traced, per_run):
        m["report.bytes_written"] = s.bytes_written
    out = {}
    for key in (per_run[0] if per_run else {}):
        vals = [m[key] for m in per_run]
        if tracer.is_count(key):
            if len(set(vals)) > 1:
                problems.append(f"count {key} differs between runs: {vals}")
            out[key] = vals[0]
        else:
            out[key] = statistics.median(vals)
    # each round runs untraced then traced; pairing the two cancels most of
    # the machine's drift between rounds
    pairs = [(a.wall_s, b.wall_s) for a, b in zip(samples[::2], samples[1::2])
             if not a.problems and not b.problems]
    if per_run and pairs:
        out["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
        out["trace.overhead_frac"] = statistics.median(
            (t - u) / u for u, t in pairs)
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_frac"):
        return "frac"
    if metric.endswith("bytes_written"):
        return "bytes"
    return "count"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "plastprobe" / "__init__.py").is_file():
        print(f"error: no plastprobe sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = None
    if args.seed == 0:
        reference = json.loads(REFERENCE.read_text())[workload.name]
    # byte-compile once so no run pays for it
    compileall.compile_dir(ROOT / "src" / "plastprobe", quiet=1)
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        scenario = write_scenario(ROOT, workload, args.seed,
                                  work / "scenario.json")
        modes = ("light", "trace") if args.trace else ("light",)
        samples = closed_loop(workload, scenario, work, args.seconds, modes,
                              reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for s in samples if s.problems)
    problems: list[str] = []
    print(f"workload {workload.name} seed {args.seed}: {len(samples)} runs")
    print(f"  {'failed_frac':12s} {failed / len(samples):.6g} frac "
          f"(n={len(samples)}, {failed} failed)")
    if args.trace:
        metrics = per_layer(samples, problems)
        for key, val in metrics.items():
            print(f"  {key:38s} {val:.6g} {unit_of(key)}")
    else:
        stats = end_to_end(samples)
        raw = end_to_end(samples, scaled=False)
        metrics = {k: v[0] for k, v in stats.items()}
        for key, (val, n, vals) in stats.items():
            print(f"  {key:12s} {SUMMARY[key].__name__} {val:.6g} "
                  f"{END_TO_END_UNITS[key]} unscaled {raw[key][0]:.6g} "
                  f"(n={n}: {' '.join(f'{v:.6g}' for v in sorted(vals))})")
        factors = [s.wall_s / s.raw_wall_s for s in samples]
        print(f"  scaled / unscaled wall time per run: "
              f"{' '.join(f'{f:.4g}' for f in factors)}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS.get(k)
                        or unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
