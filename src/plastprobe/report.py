"""Report emission: report.json, energy.csv, per-table CSVs, sweep summaries.

report.json is deterministic for a given resolved config (sorted keys,
fixed float formatting); wall-clock metadata lives in a separate
meta.json so byte-identical reruns are possible in reproducible mode.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .evolution import EnergyReport
from .probes import (ProbeReport, UniformityReport, energy_summary,
                     newton_summary)


class ReportIOError(RuntimeError):
    pass


def _float_fmt(reproducible: bool) -> str:
    return "%.17e" if reproducible else "%.12g"


def _jsonify(obj):
    """obj as plain JSON data: containers and numpy values converted, and
    every non-finite float (numpy's too) written as null."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonify(obj.item())
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _make_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ReportIOError(f"cannot create {path}: {exc}")
    return path


def _write_json(path: Path, payload: dict):
    try:
        with open(path, "w") as fh:
            json.dump(_jsonify(payload), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ReportIOError(f"cannot write {path}: {exc}")


def _write_csv(path: Path, header: list[str], rows, fmt: str):
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, str):
            return v
        return fmt % v

    try:
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(cell(v) for v in row) + "\n")
    except OSError as exc:
        raise ReportIOError(f"cannot write {path}: {exc}")


def write_energy_csv(path: Path, energy: EnergyReport, reproducible: bool):
    fmt = _float_fmt(reproducible)
    header = ["time", "e_pen", "overshoot_linf", "overshoot_l2", "sigdot_l2",
              "xidot_l2", "udot_h1", "dissipation_cum"]
    rows = []
    for k, t in enumerate(energy.times):
        if k == 0:
            rows.append([t, energy.e_pen[0], energy.overshoot_linf[0],
                         energy.overshoot_l2[0], None, None, None, None])
        else:
            rows.append([t, energy.e_pen[k], energy.overshoot_linf[k],
                         energy.overshoot_l2[k], energy.sigdot_l2[k - 1],
                         energy.xidot_l2[k - 1], energy.udot_h1[k - 1],
                         energy.dissipation_cum[k - 1]])
    _write_csv(path, header, rows, fmt)


def write_table_csvs(out_dir: Path, probe_report: ProbeReport,
                     reproducible: bool) -> list[str]:
    fmt = _float_fmt(reproducible)
    names = []
    for row in probe_report.rows:
        name = f"seminorm_{row.axis}_{row.field}_{row.mode}.csv"
        rows = [[row.axis, row.field, row.mode, h, v]
                for h, v in zip(row.h.tolist(), row.values.tolist())]
        _write_csv(out_dir / name, ["axis", "field", "mode", "h", "value"],
                   rows, fmt)
        names.append(name)
    return names


def _write_meta(out: Path, reproducible: bool,
                runtime_seconds: float | None, meta: dict | None = None):
    _write_json(out / "meta.json", {
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "runtime_seconds": runtime_seconds,
        "reproducible": reproducible,
        **(meta or {}),
    })


def run_results(energy: EnergyReport | None,
                probe_report: ProbeReport | None) -> dict:
    """The energy_summary, newton, exponents and interpolation blocks of a
    run's report.json; a failed run (energy None) gets {}, None, None
    and None, and a block a run did not compute is None."""
    interp = None if probe_report is None else probe_report.interpolation
    return {
        "energy_summary": {} if energy is None else energy_summary(energy),
        "newton": None if energy is None else newton_summary(energy),
        "exponents": None if probe_report is None else probe_report.summary(),
        "interpolation": None if interp is None else {
            "delta": interp.delta, "window": list(interp.window),
            "spread": interp.spread, "degenerate": interp.degenerate,
            "flagged_h": interp.flagged, "rows": interp.as_rows(),
        },
    }


def run_report_payload(scenario, energy: EnergyReport,
                       probe_report: ProbeReport | None) -> dict:
    """report.json of a run: its config and targets, and run_results."""
    return {
        "config": scenario.config,
        "targets": (None if probe_report is None
                    else asdict(probe_report.targets)),
        **run_results(energy, probe_report),
    }


def emit_run_report(out_dir: str | Path, scenario, energy: EnergyReport,
                    probe_report: ProbeReport | None = None,
                    reproducible: bool = False,
                    runtime_seconds: float | None = None,
                    meta: dict | None = None) -> Path:
    """Write report.json, energy.csv and any seminorm tables; returns the dir.

    meta adds run-dependent keys (phase times, peak memory) to meta.json.
    """
    out = _make_dir(Path(out_dir))
    payload = run_report_payload(scenario, energy, probe_report)
    _write_json(out / "report.json", payload)
    write_energy_csv(out / "energy.csv", energy, reproducible)
    if probe_report is not None:
        write_table_csvs(out, probe_report, reproducible)
    _write_meta(out, reproducible, runtime_seconds, meta)
    return out


def sweep_dir(mu: float) -> str:
    """The directory of a sweep's run at mu, inside its output directory."""
    return f"mu_{mu:.3e}"


def emit_sweep_report(out_dir: str | Path, scenario,
                      uniformity: UniformityReport,
                      reproducible: bool = False,
                      runtime_seconds: float | None = None) -> Path:
    out = _make_dir(Path(out_dir))
    entries = []
    for entry in uniformity.entries:
        sub = _make_dir(out / sweep_dir(entry.mu))
        _write_json(sub / "report.json", {
            "mu": entry.mu, "failure": entry.failure,
            **run_results(entry.energy, entry.probes),
        })
        entries.append({"mu": entry.mu, "dir": sub.name,
                        "failure": entry.failure})
    _write_json(out / "sweep_summary.json", {
        "config": scenario.config,
        "entries": entries,
        "spreads": uniformity.spreads,
        "overshoot_l2_slope": uniformity.overshoot_l2_slope,
        "overshoot_linf_slope": uniformity.overshoot_linf_slope,
        "failures": uniformity.failures,
    })
    _write_meta(out, reproducible, runtime_seconds)
    return out
