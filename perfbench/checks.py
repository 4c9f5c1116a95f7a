"""Correctness gate applied to every benchmark run of the CLI.

Checks that hold for any seed:

* the CLI exited 0 and ``validate()`` returned no violations;
* every number the run wrote (report JSON, energy and seminorm CSVs) is
  finite;
* ``elastic-only`` runs report ``e_pen`` identically 0 (criterion 3);
* sweeps have an overshoot decay slope >= 0.45 and rate spreads <= 1.5
  (criteria 4 and 5);
* fitted normal exponents of sigma stay at or above the criterion-8
  floors.

For seed 0 the energy summaries and fitted ``s_hat`` must also match the
values recorded in ``reference.json`` within REL_TOL.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

SLOPE_FLOOR = 0.45
SPREAD_CAP = 1.5
ALPHA_2 = (-3.0 + math.sqrt(57.0)) / 8.0          # probes.alpha_exponent(2)
NORMAL_FLOORS = {
    "kinematic": {"sigma": 0.50},
    "isotropic": {"sigma": ALPHA_2 - 0.10},
}
REL_TOL = 1e-6          # Newton stops at 1e-10 relative residual, CG at 1e-11
ABS_TOL = 1e-12


def _finite_number(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def _check_csvs(out_dir: Path, problems: list) -> None:
    for path in sorted(out_dir.glob("*.csv")):
        with open(path) as fh:
            for row in csv.DictReader(fh):
                for key, cell in row.items():
                    if key in ("axis", "field", "mode") or cell == "":
                        continue
                    if not math.isfinite(float(cell)):
                        problems.append(f"{path.name}: non-finite {key}")
                        return


def _check_energy(where: str, energy: dict, problems: list) -> None:
    if not energy:
        problems.append(f"{where}: empty energy summary")
    for key, val in energy.items():
        if not _finite_number(val):
            problems.append(f"{where}: energy_summary.{key} = {val!r}")


def _summarize_probe(workload, out_dir: Path, problems: list) -> dict:
    report = json.loads((out_dir / "report.json").read_text())
    _check_csvs(out_dir, problems)
    energy = report["energy_summary"]
    _check_energy("report.json", energy, problems)
    s_hat = {}
    floors = NORMAL_FLOORS[workload.model]
    for row in report["exponents"] or []:
        key = f"{row['axis']}/{row['field']}/{row['mode']}"
        s = row["s_hat"]
        s_hat[key] = s
        floor = floors.get(row["field"]) if row["axis"] == "normal" else None
        if s is None:
            # None is legitimate for a short ladder (< 2 rows in the fit
            # window); with >= 2 rows it is a NaN the report wrote as null
            if floor is not None or (row["n_used"] >= 2
                                     and not row["identically_regular"]):
                problems.append(f"{key}: no fitted exponent")
        elif not _finite_number(s):
            problems.append(f"{key}: s_hat = {s!r}")
        elif floor is not None and s < floor:
            problems.append(f"{key}: s_hat {s:.4f} below floor {floor:.4f}")
    if workload.base == "elastic-only":
        with open(out_dir / "energy.csv") as fh:
            e_pen = [float(r["e_pen"]) for r in csv.DictReader(fh)]
        if any(v != 0.0 for v in e_pen) or energy.get("e_pen_final") != 0.0:
            problems.append("elastic-only: e_pen not identically 0")
    return {"energy_summary": energy, "s_hat": s_hat}


def _summarize_sweep(out_dir: Path, problems: list) -> dict:
    summary = json.loads((out_dir / "sweep_summary.json").read_text())
    if summary["failures"]:
        problems.append(f"sweep failures: {summary['failures']}")
    energies = {}
    for entry in summary["entries"]:
        rep = json.loads((out_dir / entry["dir"] / "report.json").read_text())
        _check_energy(entry["dir"], rep["energy_summary"], problems)
        energies[entry["dir"]] = rep["energy_summary"]
    slope = summary["overshoot_l2_slope"]
    if not _finite_number(slope) or slope < SLOPE_FLOOR:
        problems.append(f"overshoot decay slope {slope!r} < {SLOPE_FLOOR}")
    spreads = summary["spreads"]
    for key in ("sup_sigdot", "sup_xidot"):
        val = spreads.get(key)
        if not _finite_number(val) or val > SPREAD_CAP:
            problems.append(f"spread[{key}] = {val!r} > {SPREAD_CAP}")
    for key, val in spreads.items():
        if not _finite_number(val):
            problems.append(f"spread[{key}] = {val!r}")
    return {"energy_summary": energies,
            "overshoot_l2_slope": slope,
            "overshoot_linf_slope": summary["overshoot_linf_slope"]}


def summarize(workload, out_dir: Path, problems: list) -> dict:
    """The run's comparable outputs; appends any failed check to problems."""
    if workload.command == "sweep":
        return _summarize_sweep(out_dir, problems)
    return _summarize_probe(workload, out_dir, problems)


def _compare(path: str, got, want, problems: list) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{path}: keys differ from reference")
            return
        for key in want:
            _compare(f"{path}.{key}", got[key], want[key], problems)
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        if not _finite_number(got) or \
                abs(got - want) > ABS_TOL + REL_TOL * abs(want):
            problems.append(f"{path}: {got!r} differs from reference {want!r}")
    elif got != want:
        problems.append(f"{path}: {got!r} differs from reference {want!r}")


def check_run(workload, exit_code: int, spans: list | None, out_dir: Path,
              reference: dict | None) -> list[str]:
    """Problems found in one CLI run; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    violations = [(s[4] or {}).get("violations") for s in spans or []
                  if s[0] == "scenario.validate"]
    if violations != [0]:
        return [f"validate() violations: {violations}"]
    problems: list[str] = []
    try:
        summary = summarize(workload, out_dir, problems)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    if reference is not None:
        _compare(workload.name, summary, reference, problems)
    return problems
