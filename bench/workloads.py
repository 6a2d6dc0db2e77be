"""The benchmark's workloads and how their inputs follow from the seed.

Every workload uses the default model (eps1 = -eps2 = 0.7, R1 = R2 = 0.6),
written out in full in each config so that the program and the oracle read
the same numbers. The seed moves each input a fraction of a step, so that
runs with different seeds solve different inputs of the same make-up:

- maps: the log window shifts by u1, u2 ~ U(-1/4, 1/4) grid steps per axis;
- sweeps: the axis sweep's ends shift by U(-1/2, 1/2) of a step and its held
  I2_0 by a factor exp(U(-0.03, 0.03)); each path waypoint coordinate moves by
  a factor exp(U(-0.02, 0.02)).

Smoke mode keeps the make-up and shrinks the sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from oracle import Model

MODEL = Model()

NAMES = ("map-window", "map-band", "sweep-loops")


@dataclass
class Call:
    """One `ringob` CLI invocation of a round."""

    label: str
    command: str            # "map" | "sweep"
    config: dict
    threads: int = 1
    items: int = 0          # grid cells or sweep samples it produces


@dataclass
class Workload:
    name: str
    kind: str               # "map" | "sweep"
    seed: int
    calls: list = field(default_factory=list)

    @property
    def items_per_round(self) -> int:
        return sum(c.items for c in self.calls)


def _shifted_window(lo, hi, steps, u):
    """Log window [lo, hi] moved by u grid steps."""
    step = (hi / lo) ** (1.0 / (steps - 1))
    return lo * step ** u, hi * step ** u


def _map(name, seed, window, threads, steps):
    rng = np.random.default_rng(seed)
    u1, u2 = rng.uniform(-0.25, 0.25, 2)
    i1_min, i1_max = _shifted_window(window[0], window[1], steps, u1)
    i2_min, i2_max = _shifted_window(window[2], window[3], steps, u2)
    cfg = MODEL.config()
    cfg["grid"] = {"i1_min": i1_min, "i1_max": i1_max, "i1_steps": steps,
                   "i2_min": i2_min, "i2_max": i2_max, "i2_steps": steps,
                   "log": True}
    cfg["solver"] = {"seed_grid": 12}
    call = Call("map", "map", cfg, threads=threads, items=steps * steps)
    return Workload(name, "map", seed, [call])


def _sweeps(name, seed, steps):
    rng = np.random.default_rng(seed)
    start, stop = 1.5, 3.5
    shift = rng.uniform(-0.5, 0.5) * (stop - start) / (steps - 1)
    fixed = 0.05 * float(np.exp(rng.uniform(-0.03, 0.03)))
    axis = MODEL.config()
    axis["sweep"] = {"kind": "axis", "axis": 1, "start": start + shift,
                     "stop": stop + shift, "steps": steps, "fixed": fixed,
                     "log": False}
    waypoints = np.array([[1.0, 2.0], [4.5, 0.05]])
    waypoints *= np.exp(rng.uniform(-0.02, 0.02, waypoints.shape))
    path = MODEL.config()
    path["sweep"] = {"kind": "path", "steps": steps, "log": True,
                     "waypoints": waypoints.tolist()}
    calls = [Call("axis", "sweep", axis, items=2 * steps),
             Call("path", "sweep", path, items=2 * steps)]
    return Workload(name, "sweep", seed, calls)


def make(name: str, seed: int, smoke: bool = False) -> Workload:
    if name == "map-window":
        return _map(name, seed, (0.5, 20.0, 5e-3, 2.0), threads=1,
                    steps=5 if smoke else 12)
    if name == "map-band":
        return _map(name, seed, (1.9, 3.2, 0.012, 0.2), threads=2,
                    steps=6 if smoke else 8)
    if name == "sweep-loops":
        return _sweeps(name, seed, steps=40 if smoke else 120)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
