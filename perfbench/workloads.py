"""Workload definitions and the seeded scenario generator.

Each workload is one shipped scenario with size overrides, run through
one CLI subcommand.  The seed perturbs the closed-form data coefficients
(poly amplitudes, sine amplitudes and phases) by a few percent; seed 0
reproduces the shipped coefficients exactly.  Every perturbed scenario
keeps sigma0(0) = 0 (all shipped time polynomials vanish at t = 0), so
the safety-load margin stays kappa and validate() stays empty.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from pathlib import Path

SHIPPED = Path("src") / "plastprobe" / "benchmarks"

# relative half-widths of the coefficient perturbations
LINEAR_REL = 0.005
QUADRATIC_REL = 0.03
SINE_AMP_REL = 0.10
SINE_PHASE_ABS = 0.20      # radians


@dataclass(frozen=True)
class Workload:
    name: str
    command: str               # plastprobe subcommand
    base: str                  # shipped scenario it is derived from
    overrides: dict
    why: str

    @property
    def model(self) -> str:
        return "isotropic" if "isotropic" in self.base else "kinematic"


KINEMATIC_PROBES = [
    {"axis": "tangential-1", "field": "sigma", "mode": "sup"},
    {"axis": "time", "field": "sigma_dot", "mode": "integral"},
    {"axis": "normal", "field": "sigma", "mode": "sup"},
    {"axis": "time", "field": "grad_u_dot", "mode": "integral"},
]

WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep-kinematic-n32", command="sweep",
        base="mixed-boundary-kinematic",
        overrides={"n": 32, "T": 1.0, "N": 20, "mu": [0.2, 0.1],
                   "probes": []},
        why="plastic-heavy direct-solver regime: tangent rebuild and splu "
            "every Newton iteration, energy streamed, no stored history"),
    Workload(
        name="probe-isotropic-n48", command="probe",
        base="mixed-boundary-isotropic",
        overrides={"n": 48, "T": 1.0, "N": 10, "mu": 0.2},
        why="CG regime (n > DIRECT_SOLVE_MAX_N) on the isotropic branch, "
            "with a stored history and 8 probes"),
    Workload(
        name="probe-elastic-long", command="probe", base="elastic-only",
        overrides={"n": 32, "N": 120, "probes": KINEMATIC_PROBES},
        why="one factorization reused by every step; time goes to probe "
            "tables, data callbacks, validate and history memory"),
)}


def _scale(value: float, rng: random.Random, rel: float) -> float:
    return round(value * (1.0 + rng.uniform(-rel, rel)), 9)


def _perturb_nested(obj, rng: random.Random, rel: float):
    """Scale every non-zero leaf of a nested list; zeros stay zero."""
    if isinstance(obj, list):
        return [_perturb_nested(v, rng, rel) for v in obj]
    return _scale(obj, rng, rel) if obj != 0 else obj


def perturb_data(data: dict, seed: int) -> dict:
    """Seeded copy of a scenario's data block; seed 0 returns it unchanged."""
    data = copy.deepcopy(data)
    if seed == 0:
        return data
    rng = random.Random(seed)
    for term in data["terms"]:
        if data["generator"] == "poly":
            for key, rel in (("linear", LINEAR_REL),
                             ("quadratic", QUADRATIC_REL)):
                if key in term:
                    term[key] = _perturb_nested(term[key], rng, rel)
        else:
            d = len(term["amp"])
            term["amp"] = _perturb_nested(term["amp"], rng, SINE_AMP_REL)
            phase = term.get("phase", [[0.0] * d for _ in range(d)])
            term["phase"] = [[round(p + rng.uniform(-SINE_PHASE_ABS,
                                                    SINE_PHASE_ABS), 9)
                              for p in row] for row in phase]
    return data


def scenario_config(root: Path, workload: Workload, seed: int) -> dict:
    with open(root / SHIPPED / f"{workload.base}.json") as fh:
        cfg = json.load(fh)
    cfg.update(copy.deepcopy(workload.overrides))
    cfg["name"] = f"{workload.name}-seed{seed}"
    cfg["data"] = perturb_data(cfg["data"], seed)
    return cfg


def scenario_text(root: Path, workload: Workload, seed: int) -> str:
    """The generated scenario file; byte-identical for a given seed."""
    return json.dumps(scenario_config(root, workload, seed), indent=2,
                      sort_keys=True) + "\n"


def write_scenario(root: Path, workload: Workload, seed: int,
                   path: Path) -> Path:
    path.write_text(scenario_text(root, workload, seed))
    return path
