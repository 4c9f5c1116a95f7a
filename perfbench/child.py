"""Run one plastprobe CLI command in this process, with spans around it.

    python3 perfbench/child.py --mode light|trace --result R.json -- <cli args>

The package is imported from ``src/`` of the checkout this file sits in.
Spans wrap the names that callers actually look up, so the package
itself is never edited:

* ``light`` wraps only scenario loading (parse, validate, grid build) and
  ``evolution.run``: a handful of calls per run, used for the end-to-end
  ``setup_s`` and ``steps_per_s``;
* ``trace`` adds every layer boundary: the data callbacks on
  ``DataGenerator``, ``local_update``/``consistent_tangent`` as bound in
  ``plastprobe.evolution``, the ``Grid`` methods on the class, the solver
  closure returned by ``make_solver``, the probe and report functions,
  and ``cli.main``.  CG iterations are counted through a callback passed
  to the ``cg`` that ``plastprobe.fem`` looks up on ``sparse_linalg``.

In both modes a ``speed.SpeedProbe`` times its fixed loop every few
milliseconds while the command runs.  The spans, the probe samples, the
CLI exit code and the run id (the --result file's stem) are written to
the --result file.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402
from tracer import Tracer, set_attr  # noqa: E402


class _CountingLinalg:
    """scipy.sparse.linalg with cg counting iterations into the open span."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def cg(self, A, b, *args, **kwargs):
        iters = 0

        def count(_xk):
            nonlocal iters
            iters += 1

        try:
            return self._real.cg(A, b, *args, callback=count, **kwargs)
        finally:
            span = self._tracer.current()
            if span is not None:
                set_attr(span, "cg_iters",
                         (span[4] or {}).get("cg_iters", 0) + iters)


def install(tracer: Tracer, mode: str) -> None:
    from plastprobe import (cli, constitutive, datagen, evolution, fem,
                            probes, report, scenario)

    run_signature = inspect.signature(evolution.run)

    def on_validate(span, args, kwargs, out):
        set_attr(span, "violations", len(out))
        return out

    def on_run(span, args, kwargs, out):
        bound = run_signature.bind(*args, **kwargs)
        set_attr(span, "steps", int(bound.arguments["N"]))
        history = out[0]
        if history is not None:
            set_attr(span, "history_bytes", int(sum(
                a.nbytes for a in (history.u, history.sigma, history.xi,
                                   history.ep))))
        return out

    w = tracer.wrap
    w(scenario, "parse_scenario", "scenario.parse")
    w(scenario, "validate", "scenario.validate", hook=on_validate)
    w(scenario, "build_grid", "fem.grid")
    w(evolution, "run", "evolution.run", hook=on_run)
    if mode == "light":
        return

    def on_tangent(span, args, kwargs, out):
        updated, params = kwargs.get("updated"), args[3]
        if updated is not None:
            excess = constitutive.yield_excess(updated, params)
            set_attr(span, "active_frac", float(
                (excess > constitutive.KINK_GUARD).mean()))
        return out

    def on_make_solver(span, args, kwargs, out):
        return tracer.traced(out, "fem.solve")

    for meth in ("u0", "sigma0", "body_force"):
        w(datagen.DataGenerator, meth, f"datagen.{meth}")
    w(evolution, "local_update", "constitutive.local_update")
    w(evolution, "consistent_tangent", "constitutive.consistent_tangent",
      hook=on_tangent)
    for meth in ("assemble_tangent", "sym_gradient", "internal_force",
                 "load_vector"):
        w(fem.Grid, meth, f"fem.{meth}")
    w(fem.Grid, "make_solver", "fem.make_solver", hook=on_make_solver)
    fem.sparse_linalg = _CountingLinalg(fem.sparse_linalg, tracer)
    w(evolution.FieldHistory, "grad_u_dot", "evolution.grad_u_dot")
    for fn in ("run_probes", "seminorm_table", "interpolation_check",
               "fit_exponent", "mu_sweep"):
        w(probes, fn, f"probes.{fn}")
    for fn in ("emit_run_report", "emit_sweep_report"):
        w(report, fn, f"report.{fn}")
    w(cli, "main", "cli.main")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("light", "trace"), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args

    probe = SpeedProbe()
    probe.start()
    try:
        tracer = Tracer()
        install(tracer, args.mode)
        from plastprobe import cli
        code = cli.main(cli_args)
    finally:
        probe.stop()
    with open(args.result, "w") as fh:
        json.dump({"run_id": Path(args.result).stem, "exit": code,
                   "spans": tracer.spans, "speed_probes": probe.samples}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
