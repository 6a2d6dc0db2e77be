"""Run configuration: JSON schema with the published default parameter set
(decay 3.0, dephasing 0.5 in units of 1e8 Hz; R1 = R2 = 0.6; eps1 = -eps2
= 0.7) and strict validation with field-level diagnostics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

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
        gamma = np.zeros((3, 3))
        gamma[1, 0] = self.gamma_2to1
        gamma[1, 2] = self.gamma_2to3
        Gamma = np.array([
            [0.0, self.Gamma12, self.Gamma13],
            [self.Gamma12, 0.0, self.Gamma23],
            [self.Gamma13, self.Gamma23, 0.0],
        ])
        return AtomParams(eps1=self.eps1, eps2=self.eps2, gamma=gamma, Gamma=Gamma)


@dataclass
class ConstantsSection:
    Na: float = 1e12
    D1: float = 1e-18
    D2: float = 1e-18
    k: float = 2.0 * np.pi / 0.5e-4
    L: float = 5.0
    include_length: bool = True
    C1: float | None = None
    C2: float | None = None
    intensity_scale1: float = 1.0
    intensity_scale2: float = 1.0

    def build(self) -> OpticalConstants:
        return OpticalConstants(
            Na=self.Na, D1=self.D1, D2=self.D2, k=self.k, L=self.L,
            include_length=self.include_length, C1=self.C1, C2=self.C2,
            intensity_scale1=self.intensity_scale1,
            intensity_scale2=self.intensity_scale2,
        )


@dataclass
class CavitySection:
    R1: float = 0.6
    R2: float = 0.6

    def build(self) -> CavityParams:
        return CavityParams(R1=self.R1, R2=self.R2)


@dataclass
class SolverSection:
    seed_grid: int = 24
    newton_max_iter: int = 40
    damping: float = 0.5
    tol: float = 1e-10
    dedup_radius: float = 1e-4
    seed_low_factor: float = 1e-3
    bound_margin: float = 1.05

    def build(self) -> SolverConfig:
        return SolverConfig(**{f.name: getattr(self, f.name) for f in fields(self)})


@dataclass
class GridSection:
    i1_min: float = 1e-2
    i1_max: float = 1e3
    i1_steps: int = 60
    i2_min: float = 1e-2
    i2_max: float = 1e3
    i2_steps: int = 60
    log: bool = True

    def build(self) -> GridSpec:
        return GridSpec(**{f.name: getattr(self, f.name) for f in fields(self)})


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
        raise ValidationError(f"sweep.kind must be 'axis' or 'path', got {self.kind!r}")


@dataclass
class ThresholdSection:
    eta_absorbing: float = 0.1
    eta_transparent: float = 0.9
    jump_threshold: float = 0.5


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


_SECTIONS = {
    "atom": AtomSection,
    "constants": ConstantsSection,
    "cavity": CavitySection,
    "solver": SolverSection,
    "grid": GridSection,
    "sweep": SweepSection,
    "thresholds": ThresholdSection,
    "steady": SteadySection,
    "point": PointSection,
    "approx": ApproxSection,
}

_SCALARS = {
    "threads": int,
    "output_dir": str,
    "format": str,
}


@dataclass
class RunConfig:
    atom: AtomSection = field(default_factory=AtomSection)
    constants: ConstantsSection = field(default_factory=ConstantsSection)
    cavity: CavitySection = field(default_factory=CavitySection)
    solver: SolverSection = field(default_factory=SolverSection)
    grid: GridSection = field(default_factory=GridSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    thresholds: ThresholdSection = field(default_factory=ThresholdSection)
    steady: SteadySection = field(default_factory=SteadySection)
    point: PointSection = field(default_factory=PointSection)
    approx: ApproxSection = field(default_factory=ApproxSection)
    threads: int = 0
    output_dir: str = "out"
    format: str = "csv"

    def flat_items(self) -> list[tuple[str, object]]:
        """Deterministic flattened (key, value) pairs of the resolved config.

        output_dir and threads are omitted: they are execution details (file
        location, worker count) that must not break byte-identity of runs
        computing the same physics.
        """
        items: list[tuple[str, object]] = []
        for name in sorted(_SECTIONS):
            sec = getattr(self, name)
            for f in fields(sec):
                items.append((f"{name}.{f.name}", getattr(sec, f.name)))
        for name in sorted(_SCALARS):
            if name not in ("output_dir", "threads"):
                items.append((name, getattr(self, name)))
        return items


def _coerce(section: str, name: str, want, value):
    where = f"{section}.{name}" if section else name
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


_FLOAT_OR_NONE = {"C1", "C2"}


def load_config(source: str | None = None, text: str | None = None) -> RunConfig:
    """Parse and validate a JSON config from a path or literal text.

    Missing keys take the defaults; unknown sections or keys are rejected.
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
            section = getattr(cfg, key)
            known = {f.name: f.type for f in fields(section)}
            for sub, sv in value.items():
                if sub not in known:
                    raise ValidationError(f"unknown key {key}.{sub}")
                current = getattr(section, sub)
                if sub in _FLOAT_OR_NONE:
                    if sv is not None:
                        sv = _coerce(key, sub, float, sv)
                elif sub == "waypoints":
                    if (not isinstance(sv, list) or len(sv) < 2 or
                            not all(isinstance(w, list) and len(w) == 2 for w in sv)):
                        raise ValidationError(
                            f"{key}.{sub}: expected a list of [I1_0, I2_0] pairs")
                    sv = [[_coerce(key, sub, float, c) for c in w] for w in sv]
                else:
                    sv = _coerce(key, sub, type(current), sv)
                setattr(section, sub, sv)
        elif key in _SCALARS:
            setattr(cfg, key, _coerce("", key, _SCALARS[key], value))
        else:
            raise ValidationError(f"unknown key {key}")

    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    try:
        cfg.atom.build()
        cfg.constants.build()
        cfg.cavity.build()
        cfg.solver.build()
        cfg.grid.build()
        cfg.sweep.build()
    except (ValueError, TypeError) as exc:
        raise ValidationError(str(exc)) from exc
    th = cfg.thresholds
    if not (0.0 < th.eta_absorbing < th.eta_transparent):
        raise ValidationError(
            "thresholds: require 0 < eta_absorbing < eta_transparent")
    if th.jump_threshold <= 0:
        raise ValidationError("thresholds.jump_threshold must be positive")
    if cfg.threads < 0:
        raise ValidationError("threads must be >= 0")
    if cfg.format not in ("csv", "json"):
        raise ValidationError(f"format must be 'csv' or 'json', got {cfg.format!r}")
    if cfg.steady.omega1 < 0 or cfg.steady.omega2 < 0:
        raise ValidationError("steady: Rabi frequencies must be non-negative")
    if cfg.point.I1_0 < 0 or cfg.point.I2_0 < 0:
        raise ValidationError("point: input intensities must be non-negative")
    ap = cfg.approx
    if not (0 < ap.omega_min < ap.omega_max) or ap.omega_steps < 2:
        raise ValidationError("approx: require 0 < omega_min < omega_max, steps >= 2")
