"""Quasi-static hysteresis sweeps: drag the input intensities along an axis or
a parametric path, follow the physically selected branch, and locate output
jumps between branches. Each sample is corrected by Newton from the previous
sample's state; the round-trip iteration follows the branch wherever the
corrected root is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .feedback import CavityParams, InputPoint, correct_root, iterate_map

# a jump is an output step larger than JUMP_THRESHOLD times the larger
# output, which also bounds the relative move of an accepted Newton correction
JUMP_THRESHOLD = 0.5
# a jump's comparison scale is floored at this share of the channel's peak input
JUMP_INPUT_FLOOR = 1e-9


class AbscissaMismatch(ValueError):
    """Forward and backward traces sampled at different abscissas."""


@dataclass
class AxisSweep:
    """Sweep of one input intensity with the other held fixed."""

    axis: int               # 1 or 2: which input intensity varies
    start: float
    stop: float
    steps: int
    fixed: float            # the held input intensity
    log: bool = False

    def __post_init__(self):
        if self.axis not in (1, 2):
            raise ValueError(f"axis: must be 1 or 2, got {self.axis}")
        if not self.steps >= 2:
            raise ValueError(f"steps: must be >= 2, got {self.steps}")
        for name in ("start", "stop", "fixed"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name}: must be finite and >= 0, got {v}")
            if self.log and name != "fixed" and v == 0:
                raise ValueError(f"{name}: must be positive for log spacing")

    def samples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(t, I1_0, I2_0) arrays of the forward pass."""
        if self.log:
            var = np.geomspace(self.start, self.stop, self.steps)
        else:
            var = np.linspace(self.start, self.stop, self.steps)
        t = np.linspace(0.0, 1.0, self.steps)
        fix = np.full(self.steps, self.fixed)
        if self.axis == 1:
            return t, var, fix
        return t, fix, var


@dataclass
class ParametricPath:
    """Path t in [0, 1] -> (I1_0(t), I2_0(t)) through given waypoints.

    Waypoints are interpolated piecewise linearly (in log intensity when
    `log` is set) and resampled at `steps` uniform values of t.
    """

    waypoints: list          # [(I1_0, I2_0), ...]
    steps: int
    log: bool = False

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise ValueError("waypoints: need at least two")
        if not self.steps >= 2:
            raise ValueError(f"steps: must be >= 2, got {self.steps}")
        pts = np.asarray(self.waypoints, dtype=float)
        if not (np.isfinite(pts).all() and (pts >= 0).all()):
            raise ValueError(
                f"waypoints: must be finite and >= 0, got {self.waypoints}")
        if self.log and (pts == 0).any():
            raise ValueError("waypoints: must be positive for log interpolation")

    def samples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        pts = np.asarray(self.waypoints, dtype=float)
        knots = np.linspace(0.0, 1.0, len(pts))
        t = np.linspace(0.0, 1.0, self.steps)
        if self.log:
            i1 = np.exp(np.interp(t, knots, np.log(pts[:, 0])))
            i2 = np.exp(np.interp(t, knots, np.log(pts[:, 1])))
        else:
            i1 = np.interp(t, knots, pts[:, 0])
            i2 = np.interp(t, knots, pts[:, 1])
        return t, i1, i2


@dataclass
class SweepTrace:
    """One directional pass; arrays are aligned with the abscissa `t`."""

    t: np.ndarray
    I1_0: np.ndarray
    I2_0: np.ndarray
    I1_in: np.ndarray
    I2_in: np.ndarray
    eta1: np.ndarray
    eta2: np.ndarray
    I1_out: np.ndarray
    I2_out: np.ndarray
    converged: np.ndarray   # bool per sample


@dataclass
class Jump:
    t: float                # midpoint abscissa of the transition
    output_index: int       # 1 or 2
    before: float
    after: float


@dataclass
class SweepResult:
    forward: SweepTrace
    backward: SweepTrace
    jumps_forward: list = field(default_factory=list)
    jumps_backward: list = field(default_factory=list)
    loop_area_1: float = 0.0
    loop_area_2: float = 0.0
    fallbacks: int = 0      # samples not started from a corrected root


def _cold_start(inp: InputPoint, cav: CavityParams, response):
    """Initial internal intensities: one amplification of the bare inputs."""
    i1 = max(inp.I1_0, 1e-9)
    i2 = max(inp.I2_0, 1e-9)
    e1, e2, ok = response.etas([i1], [i2])
    if ok[0]:
        i1 = max(i1 / max(1.0 - cav.R1 * float(e1[0]), 1e-3), 1e-9)
        i2 = max(i2 / max(1.0 - cav.R2 * float(e2[0]), 1e-3), 1e-9)
    return i1, i2


def _run_pass(t, i1_0, i2_0, cav, response) -> tuple[SweepTrace, int]:
    """One directional pass and its number of fallbacks: samples that
    iterate_map finds because correct_root refused or the sample starts cold."""
    n = len(t)
    columns = ("I1_in", "I2_in", "eta1", "eta2", "I1_out", "I2_out")
    values = np.full((n, len(columns)), np.nan)
    conv = np.zeros(n, dtype=bool)
    state = None
    fallbacks = 0
    for k in range(n):
        inp = InputPoint(float(i1_0[k]), float(i2_0[k]))
        cold = state is None
        root = None if cold else correct_root(inp, cav, response, state, JUMP_THRESHOLD)
        if root is None:
            fallbacks += 1
            res = iterate_map(inp, cav, response,
                              _cold_start(inp, cav, response) if cold else state)
            if not (res.converged or cold):
                # retry once from a cold start before flagging the sample
                res = iterate_map(inp, cav, response, _cold_start(inp, cav, response))
            if not res.converged:
                state = None    # cold restart on the next sample
                continue
            e1, e2, ok = response.etas([res.point[0]], [res.point[1]])
            root = res.point, ((float(e1[0]), float(e2[0])) if ok[0] else None)
        (I1, I2), etas = root
        state = (max(I1, 1e-9), max(I2, 1e-9))
        if etas is not None:
            e1, e2 = etas
            conv[k] = True
            values[k] = I1, I2, e1, e2, I1 * e1, I2 * e2
    trace = SweepTrace(t=np.asarray(t, dtype=float), I1_0=np.asarray(i1_0, dtype=float),
                       I2_0=np.asarray(i2_0, dtype=float), converged=conv,
                       **dict(zip(columns, values.T)))
    return trace, fallbacks


def detect_jumps(trace: SweepTrace) -> list[Jump]:
    """Relative output discontinuities between consecutive converged samples.

    The comparison scale is floored at JUMP_INPUT_FLOOR times the channel's
    peak input, so that order-of-magnitude wander of a deeply absorbed output
    (numerically zero relative to its own drive) does not register as
    switching. A step must also stand out against the trace's median
    log-slope: strong absorption varies (doubly) exponentially but smoothly
    along a sweep, and only a branch switch produces a step that dwarfs its
    trace's typical step.
    """
    jumps = []
    for name, inp_name, idx in (("I1_out", "I1_0", 1), ("I2_out", "I2_0", 2)):
        y = getattr(trace, name)
        drive = getattr(trace, inp_name)
        peak_in = float(np.nanmax(np.abs(drive))) if len(drive) else 0.0
        floor = max(JUMP_INPUT_FLOOR * peak_in, 1e-30)
        # slope statistic on unfloored magnitudes: deep absorption must keep
        # its (large, smooth) log-slope so the median reflects it
        logs = np.log10(np.maximum(np.abs(y), 1e-300))
        pair_ok = trace.converged[:-1] & trace.converged[1:]
        steps = np.abs(np.diff(logs))
        median_step = float(np.median(steps[pair_ok])) if pair_ok.any() else 0.0
        for k in range(len(trace.t) - 1):
            if not (trace.converged[k] and trace.converged[k + 1]):
                continue
            a, b = y[k], y[k + 1]
            if abs(b - a) > JUMP_THRESHOLD * max(abs(a), abs(b), floor) \
                    and steps[k] > 5.0 * median_step:
                jumps.append(Jump(
                    t=float(0.5 * (trace.t[k] + trace.t[k + 1])),
                    output_index=idx,
                    before=float(a),
                    after=float(b),
                ))
    jumps.sort(key=lambda j: (j.t, j.output_index))
    return jumps


def loop_area(forward: SweepTrace, backward: SweepTrace, output_index: int) -> float:
    """Trapezoidal area enclosed between the two passes of one output."""
    if len(forward.t) != len(backward.t) or not np.allclose(
            forward.t, backward.t, rtol=0, atol=1e-12):
        raise AbscissaMismatch("forward and backward traces use different abscissas")
    yf = getattr(forward, f"I{output_index}_out")
    yb = getattr(backward, f"I{output_index}_out")
    good = forward.converged & backward.converged
    if good.sum() < 2:
        return 0.0
    t = forward.t[good]
    return float(np.trapezoid(np.abs(yf[good] - yb[good]), t))


def run_sweep(spec, cav: CavityParams, response) -> SweepResult:
    """Forward then backward quasi-static pass along an AxisSweep or
    ParametricPath, with jump detection and hysteresis loop areas.

    The backward pass reverses the sample order but reports its trace on the
    forward abscissa so the two passes are directly comparable.
    """
    t, i1, i2 = spec.samples()
    fwd, fb_fwd = _run_pass(t, i1, i2, cav, response)
    bwd_rev, fb_bwd = _run_pass(t[::-1], i1[::-1], i2[::-1], cav, response)
    bwd = SweepTrace(**{f.name: getattr(bwd_rev, f.name)[::-1].copy()
                        for f in fields(SweepTrace)})
    result = SweepResult(forward=fwd, backward=bwd, fallbacks=fb_fwd + fb_bwd)
    result.jumps_forward = detect_jumps(fwd)
    result.jumps_backward = detect_jumps(bwd)
    result.loop_area_1 = loop_area(fwd, bwd, 1)
    result.loop_area_2 = loop_area(fwd, bwd, 2)
    return result


SWEEP_COLUMNS = [f.name for f in fields(SweepTrace)]
JUMP_COLUMNS = ["t", "output_index", "before", "after"]


def trace_rows(trace: SweepTrace):
    """Per-sample rows in SWEEP_COLUMNS order; `converged` as 0 or 1."""
    columns = [getattr(trace, name).astype(int if name == "converged" else float).tolist()
               for name in SWEEP_COLUMNS]
    return [list(row) for row in zip(*columns)]


def jump_rows(jumps: list[Jump]):
    return [[j.t, j.output_index, j.before, j.after] for j in jumps]
