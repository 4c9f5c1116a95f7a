"""Run every workload over several seeds, twice, and record the baseline.

    python3 perfbench/baseline.py [--write-reference]

Two sets of runs are made one after the other.  In each set, run.py runs
every workload once per seed in SEEDS, untraced; every run is
correctness-checked.  Then each workload runs once traced with seed TRACE_SEED.  Printed per
set and end-to-end metric: median, quartiles and their spread
(q3 - q1) / median over the seeds, the sample count, and the bound from
BENCHMARK.json; then by how much the second set's median is worse than
the first's.  The result, with the traced per-layer split, the checks of
the workload design and the environment, is written to baseline.json.
--write-reference first records reference.json: the seed-0 outputs
that checks.py compares every later seed-0 run with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, write_scenario  # noqa: E402

# layer times compared by the design checks (per-layer metric names)
LAYERS = ("constitutive.local_update_s", "constitutive.consistent_tangent_s",
          "fem.assemble_tangent_s", "fem.make_solver_s", "fem.solve_s",
          "fem.residual_s", "datagen.eval_s", "evolution.run_self_s",
          "scenario.validate_s", "probes.run_probes_s", "report.emit_s")
SEEDS = list(range(1, 11))
TRACE_SEED = 1
SETS = 2
TANGENT_BUILD = ("constitutive.consistent_tangent_s", "fem.assemble_tangent_s",
                 "fem.make_solver_s")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def write_reference() -> None:
    """Record the seed-0 outputs of one untraced run of every workload."""
    reference = {}
    run.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        for name, workload in WORKLOADS.items():
            scenario = write_scenario(ROOT, workload, 0,
                                      Path(tmp) / f"{name}.json")
            out_dir = Path(tmp) / name
            sample = run.run_child(workload, scenario, out_dir, "light")
            problems = checks.check_run(workload, sample.exit_code,
                                        sample.spans, out_dir, None)
            if problems:
                raise SystemExit(f"{name}: seed 0 fails its checks: {problems}")
            reference[name] = checks.summarize(workload, out_dir, [])
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=2, sort_keys=True) + "\n")


def design_checks(layers: dict) -> dict:
    """Whether the traced split matches what each workload is built for."""
    wall = {w: m["trace.wall_s"] for w, m in layers.items()}
    m = layers["sweep-kinematic-n32"]
    build = sum(m[k] for k in TANGENT_BUILD)
    others = max(m[k] for k in LAYERS if k not in TANGENT_BUILD)
    out = {"sweep-kinematic-n32: tangent build is the largest share":
           build > others}
    m = layers["probe-isotropic-n48"]
    out["probe-isotropic-n48: fem.solve_s is the largest share"] = \
        max(LAYERS, key=m.get) == "fem.solve_s"
    m = layers["probe-elastic-long"]
    out["probe-elastic-long: one tangent assembly and factorization"] = \
        m["fem.make_solver_calls"] == 1 and m["fem.assemble_tangent_calls"] == 1
    share = {w: layers[w]["probes.run_probes_s"] / wall[w] for w in layers}
    out["probe-elastic-long: largest probes.run_probes_s share"] = \
        max(share, key=share.get) == "probe-elastic-long"
    return out


def environment() -> dict:
    import numpy
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"commit": commit, "nproc": os.cpu_count(),
            "blas_threads": run.BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def worse_by(before: float, after: float, lower_better: bool) -> float:
    return after / before - 1.0 if lower_better else before / after - 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if args.write_reference:
        write_reference()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    runs = {name: [] for name in WORKLOADS}
    for _ in range(SETS):
        for name in WORKLOADS:
            runs[name].append([run_once(name, s, seconds, 0)
                               for s in SEEDS])
    result = {"environment": environment(), "run_seconds": seconds,
              "seeds": SEEDS, "sets": SETS, "trace_seed": TRACE_SEED,
              "workloads": {}}
    steady = True
    for name, sets in runs.items():
        traced = run_once(name, TRACE_SEED, seconds, 1)
        every = [r for set_runs in sets for r in set_runs] + [traced]
        attempted = sum(r["attempted"] for r in every)
        failed = sum(r["failed"] for r in every)
        e2e = {}
        for metric, meta in metrics.items():
            bound = meta["bound"]
            per_set = []
            for i, set_runs in enumerate(sets, 1):
                stats = quartiles([r["metrics"][metric]["value"]
                                   for r in set_runs])
                stats["samples_per_run"] = [r["attempted"] for r in set_runs]
                ok = stats["spread"] < bound / 3
                steady &= ok
                per_set.append(stats)
                print(f"{name:22s} set {i} {metric:12s} median "
                      f"{stats['median']:.6g} {meta['unit']} "
                      f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
                      f"spread {stats['spread']:.4f} (bound {bound}, "
                      f"n={len(set_runs)} seeds) {'ok' if ok else 'WIDE'}")
            worse = worse_by(per_set[0]["median"], per_set[-1]["median"],
                             meta["better"] == "lower")
            steady &= worse <= bound
            print(f"{name:22s} {metric:12s} set {len(sets)} worse than set 1 "
                  f"by {worse:+.4f} (bound {bound}) "
                  f"{'ok' if worse <= bound else 'REGRESSED'}")
            e2e[metric] = {"unit": meta["unit"], "bound": bound,
                           "sets": per_set, "worse_by": worse}
        correct = all(r["correct"] for r in every)
        print(f"{name:22s} failed_frac {failed / attempted:.4g} "
              f"({failed}/{attempted} runs), all correct: {correct}")
        result["workloads"][name] = {
            "why": WORKLOADS[name].why, "command": WORKLOADS[name].command,
            "overrides": WORKLOADS[name].overrides,
            "end_to_end": e2e, "failed_frac": failed / attempted,
            "attempted": attempted, "correct": correct,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    layers = {w: r["per_layer"] for w, r in result["workloads"].items()}
    result["design_checks"] = design_checks(layers)
    for check, ok in result["design_checks"].items():
        print(f"design check {'ok' if ok else 'FAILED'}: {check}")
    out = HERE / "baseline.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"steady: {steady}; wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
