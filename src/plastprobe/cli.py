"""Command-line entry point.

Subcommands: validate, run, probe, sweep, targets.  Scenario arguments
accept either a path to a JSON file or one of the shipped benchmark
names.  Exit codes: 0 success, 2 validation failure, 3 solver failure
(constitutive.SolverFailure), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict

from . import evolution, probes, report, scenario as scn_mod
from .constitutive import SolverFailure
from .report import ReportIOError
from .scenario import BENCHMARKS, ScenarioError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _load(arg: str):
    try:
        return scn_mod.resolve_scenario_arg(arg)
    except (ScenarioError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _validated(arg: str, out=None):
    """Load and validate arg; violations go to out (default stderr)."""
    scenario = _load(arg)
    violations = scn_mod.validate(scenario)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=out or sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    return scenario


def cmd_validate(args) -> int:
    scenario = _validated(args.scenario, out=sys.stdout)
    print(f"{scenario.name}: ok")
    return EXIT_OK


def _solve(scenario, record):
    return evolution.run(scenario.grid(), scenario.material(), scenario.data,
                         scenario.T, scenario.N, record=record)


def cmd_run(args) -> int:
    scenario = _validated(args.scenario)
    t0 = time.perf_counter()
    _, energy = _solve(scenario, record=None)
    out = report.emit_run_report(args.out, scenario, energy,
                                 reproducible=args.reproducible,
                                 runtime_seconds=time.perf_counter() - t0)
    print(f"run complete: {out}")
    return EXIT_OK


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far (ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _history_meta(history) -> dict:
    """Stored MiB of a history and the box of cells each field is kept on."""
    if history is None:
        return {"history_mb": 0.0, "record": None}
    return {"history_mb": sum(getattr(history, name).nbytes
                              for name in evolution.RECORDED) / 2**20,
            "record": {name: [[s.start, s.stop] for s in box]
                       for name, box in history.boxes.items()}}


def cmd_probe(args) -> int:
    scenario = _validated(args.scenario)
    t0 = time.perf_counter()
    record = probes.record_plan(scenario)
    history, energy = _solve(scenario, record)
    t1 = time.perf_counter()
    meta = {"solve_seconds": t1 - t0,
            "peak_rss_mb_after_solve": _peak_rss_mb(),
            **_history_meta(history)}
    probe_report = probes.run_probes(scenario, history)
    meta["probe_seconds"] = time.perf_counter() - t1
    meta["peak_rss_mb_after_probes"] = _peak_rss_mb()
    out = report.emit_run_report(args.out, scenario, energy,
                                 probe_report=probe_report,
                                 reproducible=args.reproducible,
                                 runtime_seconds=time.perf_counter() - t0,
                                 meta=meta)
    for row in probe_report.summary():
        s = "id-regular" if row["identically_regular"] else (
            "n/a" if row["s_hat"] is None else f"{row['s_hat']:.3f}")
        tgt = "-" if row["target"] is None else f"{row['target']:.3f}"
        print(f"{row['axis']:>13s} {row['field']:>10s} {row['mode']:>8s}  "
              f"s_hat={s:>10s}  target={tgt}")
    print(f"probe complete: {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = _validated(args.scenario)
    t0 = time.perf_counter()
    uniformity = probes.mu_sweep(scenario)
    out = report.emit_sweep_report(args.out, scenario, uniformity,
                                   reproducible=args.reproducible,
                                   runtime_seconds=time.perf_counter() - t0)
    for key, spread in uniformity.spreads.items():
        print(f"spread[{key}] = {spread:.4g}")
    if uniformity.overshoot_l2_slope is not None:
        print(f"overshoot L2 decay slope = {uniformity.overshoot_l2_slope:.4g}")
    if uniformity.failures:
        print(f"partial: {len(uniformity.failures)} run(s) failed",
              file=sys.stderr)
        return EXIT_SOLVER
    print(f"sweep complete: {out}")
    return EXIT_OK


def cmd_targets(args) -> int:
    model = {"k": "kinematic", "i": "isotropic"}.get(args.model, args.model)
    targets = probes.target_exponents(args.d, model, args.boundary)
    print(json.dumps(asdict(targets), indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plastprobe",
        description="Penalty-regularized hardening plasticity solver with "
                    "fractional-regularity probes")
    sub = parser.add_subparsers(dest="command", required=True)

    sc_help = f"scenario file or benchmark name {BENCHMARKS}"
    p = sub.add_parser("validate", help="check a scenario without running")
    p.add_argument("scenario", help=sc_help)
    p.set_defaults(fn=cmd_validate)

    for name, fn, blurb in (
            ("run", cmd_run, "solve and write energy diagnostics"),
            ("probe", cmd_probe, "solve and evaluate all seminorm probes"),
            ("sweep", cmd_sweep, "run the scenario once per mu value")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("scenario", help=sc_help)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--reproducible", action="store_true",
                       help="17-digit scientific CSV floats, stable output set")
        p.set_defaults(fn=fn)

    p = sub.add_parser("targets", help="print the theoretical exponents")
    p.add_argument("--d", type=int, choices=(2, 3), required=True)
    p.add_argument("--model", choices=("k", "i", "kinematic", "isotropic"),
                   required=True)
    p.add_argument("--boundary", choices=("dirichlet", "neumann", "mixed"),
                   default="mixed")
    p.set_defaults(fn=cmd_targets)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place failures become exit codes."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ReportIOError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
