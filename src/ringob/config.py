"""Run configuration: JSON schema with the published default parameter set
(decay 3.0, dephasing 0.5 in units of 1e8 Hz; R1 = R2 = 0.6; eps1 = -eps2
= 0.7) and strict validation with field-level diagnostics.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, make_dataclass

import numpy as np

from .atom import AtomParams, OpticalConstants
from .domain import GridSpec
from .feedback import CavityParams, SolverConfig
from .sweep import AxisSweep, ParametricPath


class ParseError(ValueError):
    """Config text is not valid JSON; message carries line/column."""


class ValidationError(ValueError):
    """Config parsed but violates a schema invariant; message names the field."""


@dataclass
class AtomSection:
    eps1: float = 0.7
    eps2: float = -0.7
    gamma_2to1: float = 3.0
    gamma_2to3: float = 3.0
    Gamma12: float = 0.5
    Gamma23: float = 0.5
    Gamma13: float = 0.0

    def build(self) -> AtomParams:
        for name in ("gamma_2to1", "gamma_2to3", "Gamma12", "Gamma23", "Gamma13"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name}: must be non-negative")
        gamma = np.zeros((3, 3))
        gamma[1, 0] = self.gamma_2to1
        gamma[1, 2] = self.gamma_2to3
        Gamma = np.array([
            [0.0, self.Gamma12, self.Gamma13],
            [self.Gamma12, 0.0, self.Gamma23],
            [self.Gamma13, self.Gamma23, 0.0],
        ])
        return AtomParams(eps1=self.eps1, eps2=self.eps2, gamma=gamma, Gamma=Gamma)


def _mirror(domain_type, name: str):
    """Config section with the fields and defaults of `domain_type`, whose
    `build()` constructs that type; the defaults live only on the domain type."""

    def build(self):
        return domain_type(**{f.name: getattr(self, f.name) for f in fields(self)})

    return make_dataclass(
        name,
        [(f.name, f.type, field(default=f.default)) for f in fields(domain_type)],
        namespace={"build": build, "__module__": __name__},
    )


ConstantsSection = _mirror(OpticalConstants, "ConstantsSection")
CavitySection = _mirror(CavityParams, "CavitySection")
SolverSection = _mirror(SolverConfig, "SolverSection")
GridSection = _mirror(GridSpec, "GridSection")


@dataclass
class SweepSection:
    """Either an axis sweep (kind="axis") or a waypoint path (kind="path")."""

    kind: str = "axis"
    axis: int = 1
    start: float = 1.5
    stop: float = 3.5
    steps: int = 120
    fixed: float = 0.05
    log: bool = False
    waypoints: list = field(default_factory=lambda: [[1.0, 2.0], [4.5, 0.05]])

    def build(self):
        if self.kind == "axis":
            return AxisSweep(axis=self.axis, start=self.start, stop=self.stop,
                             steps=self.steps, fixed=self.fixed, log=self.log)
        if self.kind == "path":
            return ParametricPath(waypoints=[tuple(w) for w in self.waypoints],
                                  steps=self.steps, log=self.log)
        raise ValueError(f"kind: must be 'axis' or 'path', got {self.kind!r}")


@dataclass
class SteadySection:
    omega1: float = 1.0
    omega2: float = 1.0


@dataclass
class PointSection:
    I1_0: float = 2.56
    I2_0: float = 0.05


@dataclass
class ApproxSection:
    """Regime grid of Rabi frequencies for the analytic-vs-exact comparison."""

    omega_min: float = 0.1
    omega_max: float = 10.0
    omega_steps: int = 8


@dataclass
class RunConfig:
    atom: AtomSection = field(default_factory=AtomSection)
    constants: ConstantsSection = field(default_factory=ConstantsSection)
    cavity: CavitySection = field(default_factory=CavitySection)
    solver: SolverSection = field(default_factory=SolverSection)
    grid: GridSection = field(default_factory=GridSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    steady: SteadySection = field(default_factory=SteadySection)
    point: PointSection = field(default_factory=PointSection)
    approx: ApproxSection = field(default_factory=ApproxSection)
    threads: int = 0
    output_dir: str = "out"
    format: str = "csv"

    def flat_items(self) -> list[tuple[str, object]]:
        """Deterministic flattened (key, value) pairs of the resolved config.

        output_dir and threads are omitted: the output location, and a key
        accepted for compatibility that no command reads, must not break
        byte-identity of runs computing the same physics.
        """
        items: list[tuple[str, object]] = []
        for name in sorted(_SECTIONS):
            sec = getattr(self, name)
            for f in fields(sec):
                items.append((f"{name}.{f.name}", getattr(sec, f.name)))
        items.append(("format", self.format))
        return items


_SCALARS = ("threads", "output_dir", "format")
_SECTIONS = tuple(f.name for f in fields(RunConfig) if f.name not in _SCALARS)


def _coerce(where: str, want, value):
    if want is bool:
        if not isinstance(value, bool):
            raise ValidationError(f"{where}: expected a boolean, got {value!r}")
        return value
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{where}: expected an integer, got {value!r}")
        return value
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{where}: expected a number, got {value!r}")
        if not math.isfinite(value):
            raise ValidationError(f"{where}: expected a finite number, got {value!r}")
        return float(value)
    if want is str:
        if not isinstance(value, str):
            raise ValidationError(f"{where}: expected a string, got {value!r}")
        return value
    return value


def _set(cfg: RunConfig, section: str, name: str, value) -> None:
    """Coerce `value` and store it as `section.name`, or as the top-level key
    `name` when `section` is empty."""
    where = f"{section}.{name}" if section else name
    if section in _SECTIONS:
        owner = getattr(cfg, section)
        known = name in {f.name for f in fields(owner)}
    else:
        owner = cfg
        known = not section and name in _SCALARS
    if not known:
        raise ValidationError(f"unknown key {where}")
    if name == "waypoints":
        if (not isinstance(value, list) or len(value) < 2 or
                not all(isinstance(w, list) and len(w) == 2 for w in value)):
            raise ValidationError(f"{where}: expected a list of [I1_0, I2_0] pairs")
        value = [[_coerce(where, float, c) for c in w] for w in value]
    else:
        value = _coerce(where, type(getattr(owner, name)), value)
    setattr(owner, name, value)


def load_config(source: str | None = None, text: str | None = None,
                overrides: dict | None = None) -> RunConfig:
    """Parse and validate a JSON config from a path or literal text.

    Missing keys take the defaults; unknown sections or keys are rejected.
    `overrides` maps dotted keys ("steady.omega1", "threads") to values that
    replace the file's; they are coerced and validated like the file.
    """
    if (source is None) == (text is None):
        raise ValueError("pass exactly one of source path or text")
    if source is not None:
        try:
            with open(source) as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read config {source}: {exc}") from exc
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc.msg} "
                         f"(line {exc.lineno}, column {exc.colno})") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")

    cfg = RunConfig()
    for key, value in raw.items():
        if key in _SECTIONS:
            if not isinstance(value, dict):
                raise ValidationError(f"{key}: expected an object of settings")
            for name, v in value.items():
                _set(cfg, key, name, v)
        elif isinstance(value, dict) and value and key not in _SCALARS:
            # a section the schema does not have: name its first key
            raise ValidationError(f"unknown key {key}.{next(iter(value))}")
        else:
            _set(cfg, "", key, value)
    for key, value in (overrides or {}).items():
        section, _, name = key.rpartition(".")
        _set(cfg, section, name, value)

    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    # the domain types name the offending field first ("R1: must lie in
    # [0, 1)"); prefixing the section makes that the config key
    for name in ("atom", "constants", "cavity", "solver", "grid", "sweep"):
        try:
            getattr(cfg, name).build()
        except ValueError as exc:
            raise ValidationError(f"{name}.{exc}") from exc
    if not cfg.threads >= 0:
        raise ValidationError("threads: must be >= 0")
    if cfg.format not in ("csv", "json"):
        raise ValidationError(f"format: must be 'csv' or 'json', got {cfg.format!r}")
    # a path that can never become a directory fails now, not after the run
    probe = os.path.abspath(cfg.output_dir)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ValidationError(f"output_dir: {probe} is not a directory")
    for section in ("steady", "point"):
        values = getattr(cfg, section)
        for f in fields(values):
            if not getattr(values, f.name) >= 0:
                raise ValidationError(f"{section}.{f.name}: must be non-negative")
    ap = cfg.approx
    if not 0 < ap.omega_min:
        raise ValidationError("approx.omega_min: must be positive")
    if not ap.omega_min < ap.omega_max:
        raise ValidationError("approx.omega_max: must exceed omega_min")
    if not ap.omega_steps >= 2:
        raise ValidationError("approx.omega_steps: must be >= 2")
