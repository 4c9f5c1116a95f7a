"""Scenario files: schema, parsing with defaults, semantic validation.

A scenario is a JSON document selecting the hardening model, grid,
time discretization, penalty parameter(s), material tensors, a named
closed-form data generator, the cutoff, and the probe selections.
A Scenario builds its grid and cutoff once, for every caller.
validate returns the semantic violations of a scenario as data.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
import jsonschema

from .constitutive import KINEMATIC, MaterialParams
from .datagen import DataGenerator, PolyProfile, SineProfile
from .fem import Cutoff, Geometry, Grid, build_grid, make_cutoff
from .tensors import Tensor4Sym
from . import evolution, probes, tensors
from .report import sweep_dir

SCHEMA = json.loads(resources.files("plastprobe")
                    .joinpath("scenario.schema.json").read_text())
# built without jsonschema.validate's check of the schema against its
# metaschema, nearly all of a parse's time; the tests run that check
SCHEMA_VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)

DEFAULTS = {
    "name": "unnamed",
    "cutoff": {"eps0": 0.15, "h0": 0.1, "side": "neumann"},
    "probes": [],
    "delta": 0.05,
    "solver": "auto",
    "allow_coarse_dt": False,
}


class ScenarioError(ValueError):
    pass


def _build_tensor(cfg: dict, d: int, role: str) -> Tensor4Sym:
    kind = cfg["type"]
    if kind == "identity":
        return Tensor4Sym.identity_map(d)
    if kind == "isotropic":
        try:
            return Tensor4Sym.isotropic(d, cfg["dev_modulus"], cfg["vol_modulus"])
        except KeyError as exc:
            raise ScenarioError(f"{role}: isotropic type needs {exc}")
    raise ScenarioError(f"{role}: cannot build tensor of type {kind!r}")


def _build_generator(cfg: dict, elastic: Tensor4Sym, d: int) -> DataGenerator:
    terms = []
    for k, term in enumerate(cfg["terms"]):
        try:
            if cfg["generator"] == "poly":
                prof = PolyProfile(d, linear=term.get("linear"),
                                   quadratic=term.get("quadratic"),
                                   const=term.get("const"))
            else:
                prof = SineProfile(d, amp=term["amp"], freq=term["freq"],
                                   phase=term.get("phase"))
        except KeyError as exc:
            raise ScenarioError(f"data.terms[{k}]: sine needs {exc}")
        except ValueError as exc:
            raise ScenarioError(f"data.terms[{k}]: {exc}")
        terms.append((list(term["tpoly"]), prof))
    return DataGenerator(terms, elastic)


@dataclass
class Scenario:
    """Fully resolved scenario; config is the defaults-filled echo."""

    config: dict
    geometry: Geometry
    data: DataGenerator
    _grid: Grid | None = field(default=None, repr=False)
    _cutoff: Cutoff | None = field(default=None, repr=False)

    @property
    def name(self) -> str:
        return self.config["name"]

    @property
    def model(self) -> str:
        return self.config["model"]

    @property
    def d(self) -> int:
        return self.config["d"]

    @property
    def n(self) -> int:
        return self.config["n"]

    @property
    def T(self) -> float:
        return self.config["T"]

    @property
    def N(self) -> int:
        return self.config["N"]

    @property
    def dt(self) -> float:
        return self.T / self.N

    @property
    def mu_list(self) -> list[float]:
        mu = self.config["mu"]
        return list(mu) if isinstance(mu, list) else [mu]

    @property
    def mu(self) -> float:
        return self.mu_list[0]

    @property
    def delta(self) -> float:
        return self.config["delta"]

    @property
    def probes(self) -> list[dict]:
        return self.config["probes"]

    @property
    def cutoff_config(self) -> dict:
        return self.config["cutoff"]

    def material(self, mu: float | None = None) -> MaterialParams:
        cfg = self.config
        elastic = _build_tensor(cfg["elastic"], self.d, "elastic")
        kwargs = dict(elastic=elastic, model=self.model, kappa=cfg["kappa"],
                      mu=self.mu if mu is None else mu, c1=cfg.get("c1"))
        hard = cfg["hardening"]
        if self.model == KINEMATIC:
            if hard["type"] == "modulus":
                raise ScenarioError(
                    "kinematic model needs a tensor hardening, got 'modulus'")
            kwargs["hardening_tensor"] = _build_tensor(hard, self.d, "hardening")
        else:
            if hard["type"] != "modulus":
                raise ScenarioError(
                    "isotropic model needs hardening {'type': 'modulus', 'H': x}")
            kwargs["hardening_modulus"] = hard["H"]
        return MaterialParams(**kwargs)

    def grid(self) -> Grid:
        if self._grid is None:
            self._grid = build_grid(self.geometry, self.n)
        return self._grid

    def cutoff(self) -> Cutoff:
        if self._cutoff is None:
            cc = self.cutoff_config
            self._cutoff = make_cutoff(self.grid(), cc["eps0"], cc["h0"],
                                       cc["side"])
        return self._cutoff

    def fit_window(self, axis: str) -> tuple[float, float]:
        """Declared h-window for ladder fits; recorded in reports."""
        fw = self.config.get("fit_window", {})
        if axis == "time":
            lo, hi = fw.get("time", [2.0 * self.dt, self.T / 4.0])
        else:
            lo, hi = fw.get("space", [2.0 / self.n, 0.25])
        return float(lo), float(hi)


def parse_scenario_dict(cfg: dict) -> Scenario:
    """Validate against the schema, fill defaults, build the pieces."""
    exc = jsonschema.exceptions.best_match(SCHEMA_VALIDATOR.iter_errors(cfg))
    if exc is not None:
        path = ".".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ScenarioError(f"schema violation at {path}: {exc.message}")
    resolved = copy.deepcopy(cfg)
    for key, val in DEFAULTS.items():
        if key not in resolved:
            resolved[key] = copy.deepcopy(val)
        elif isinstance(val, dict):
            for k2, v2 in val.items():
                resolved[key].setdefault(k2, v2)
    geometry = Geometry(d=resolved["d"], mode=resolved["boundary_mode"])
    elastic = _build_tensor(resolved["elastic"], resolved["d"], "elastic")
    data = _build_generator(resolved["data"], elastic, resolved["d"])
    scenario = Scenario(config=resolved, geometry=geometry, data=data)
    scenario.material()            # fail fast on inconsistent hardening spec
    return scenario


def parse_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:      # JSONDecodeError included
        raise ScenarioError(f"cannot read scenario {path}: {exc}")
    scenario = parse_scenario_dict(cfg)
    if scenario.config["name"] == "unnamed":
        scenario.config["name"] = path.stem
    return scenario


def validate(scenario: Scenario) -> list[str]:
    """Semantic checks; an empty list means the scenario is runnable."""
    params = scenario.material()
    violations = params.validate()

    try:
        scenario.cutoff()
    except ValueError as exc:
        violations.append(f"cutoff: {exc}")

    for axis, (lo, hi) in scenario.config.get("fit_window", {}).items():
        if not lo < hi:
            violations.append(
                f"fit_window.{axis}: [{lo:g}, {hi:g}] needs lo < hi")

    d, grid = scenario.d, scenario.grid()
    for axis in dict.fromkeys(probe["axis"] for probe in scenario.probes):
        if axis.startswith("tangential-") and int(axis.split("-")[1]) >= d:
            violations.append(f"probe axis {axis} out of range for d={d}")
        try:
            probes.shift_ladder(axis, grid.h, scenario.dt, scenario.T)
        except ValueError as exc:
            violations.append(f"probe axis {axis}: {exc}")

    _, state = evolution.initial_state(grid, params, scenario.data)
    margin = evolution.safety_load_check(state.sigma, params)
    if not margin > 0.0:
        violations.append(
            f"safety load violated: ||dev sigma0(0)||_inf margin "
            f"{margin:.3e} (strict inequality against kappa required)")

    defect = evolution.weak_divergence_defect(grid, scenario.data, state.sigma)
    if defect > 1e-9:
        violations.append(
            f"sigma0 is not weakly divergence-compatible with f "
            f"(relative residual {defect:.3e} > 1e-9)")

    tr_defect = float(np.abs(tensors.tr(state.ep)).max())
    if tr_defect > 1e-10:
        violations.append(
            f"initial plastic strain not trace-free (defect {tr_defect:.3e})")

    dirs = {}
    for mu in scenario.mu_list:
        name = sweep_dir(mu)
        if name in dirs:
            violations.append(f"mu values {dirs[name]:g} and {mu:g} share "
                              f"the sweep directory {name}")
        else:
            dirs[name] = mu

    if not scenario.config["allow_coarse_dt"]:
        mu_min = min(scenario.mu_list)
        if scenario.dt > mu_min / 2.0 + 1e-14:
            violations.append(
                f"dt={scenario.dt:g} exceeds mu_min/2={mu_min / 2:g}; set "
                "allow_coarse_dt to declare this deliberate")
    return violations


# -- benchmark library -------------------------------------------------------

BENCHMARKS = ("elastic-only", "homogeneous-plastic", "mixed-boundary-kinematic",
              "mixed-boundary-isotropic", "dirichlet-isotropic")


def benchmark_path(name: str) -> Path:
    if name not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {name!r}; choices: {BENCHMARKS}")
    ref = resources.files("plastprobe").joinpath(f"benchmarks/{name}.json")
    return Path(str(ref))


def load_benchmark(name: str, **overrides) -> Scenario:
    with open(benchmark_path(name)) as fh:
        cfg = json.load(fh)
    cfg.update(overrides)
    return parse_scenario_dict(cfg)


def resolve_scenario_arg(arg: str) -> Scenario:
    """CLI convenience: benchmark name or path to a scenario file."""
    if arg in BENCHMARKS:
        return parse_scenario(benchmark_path(arg))
    return parse_scenario(arg)
