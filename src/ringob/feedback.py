"""Two-loop intensity feedback: operating points of the closed cavity system,
their stability classification and the physical round-trip iteration.

The closed system is r_j = I_j_in * (1 - R_j * eta_j(I1_in, I2_in)) - I_j_0,
j = 1, 2, which keeps the equations regular at R_j = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

MARGINAL_BAND = 1e-6
# step-halving factor of the backtracking line search
DAMPING = 0.5
# seed box per axis: SEED_LOW_FACTOR * I_0 to BOUND_MARGIN * I_0 / (1 - R)
SEED_LOW_FACTOR = 1e-3
BOUND_MARGIN = 1.05
# eta above 1 + GAIN_TOL is gain, where the roots can leave the seed box
GAIN_TOL = 1e-9
# a Newton point is dropped once STALL_ITER iterations in a row have not
# brought its max|r| below STALL_RATIO times the lowest it has reached. On
# about 700 inputs from the bench windows, the presets and the test stubs,
# every STALL_ITER from 4 to 10 left the roots found unchanged; 3 moved the
# roots of two inputs
STALL_ITER = 6
STALL_RATIO = 0.5
# residual evaluations the sweep's Newton corrector makes before it gives up,
# and the residual it must reach, relative to the intensities
CORRECTOR_MAX_ITER = 8
CORRECTOR_TOL = 1e-12
# Newton iterations of the multi-start root finder; its residual tolerance,
# relative to max(I_0, 1); and the relative per-coordinate radius within
# which two roots are one. DEDUP_RADIUS must exceed NEWTON_TOL, so that one
# root converged to from two seeds is merged
NEWTON_MAX_ITER = 40
NEWTON_TOL = 1e-10
DEDUP_RADIUS = 1e-4


class NoSolution(RuntimeError):
    """No Newton start converged for the given input point."""

    def __init__(self, inp, skipped: int = 0):
        super().__init__(
            f"no operating point found for inputs ({inp.I1_0:g}, {inp.I2_0:g}); "
            f"{skipped} seeds skipped on evaluation failure"
        )
        self.skipped = skipped


@dataclass
class CavityParams:
    """Mirror reflectivities of the two feedback loops."""

    R1: float = 0.6
    R2: float = 0.6

    def __post_init__(self):
        for name, r in (("R1", self.R1), ("R2", self.R2)):
            if not (0.0 <= r < 1.0):
                raise ValueError(f"{name}: must lie in [0, 1), got {r}")


@dataclass
class InputPoint:
    I1_0: float
    I2_0: float

    def __post_init__(self):
        for name, v in (("I1_0", self.I1_0), ("I2_0", self.I2_0)):
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and non-negative")


@dataclass
class SolverConfig:
    """Seed grid of the multi-start damped Newton root finder.

    The Newton Jacobian is exact (d(eta)/dI from the response's implicit
    derivative), so there is no difference step to tune; the iteration
    count and tolerances are the module constants NEWTON_MAX_ITER,
    NEWTON_TOL and DEDUP_RADIUS.
    """

    seed_grid: int = 24          # seeds per axis (log spaced)

    def __post_init__(self):
        if not self.seed_grid > 0:
            raise ValueError(f"seed_grid: must be positive, got {self.seed_grid}")


@dataclass
class OperatingPoint:
    """One converged solution of the feedback system with its stability verdict.

    `norm` is the published linearized-feedback norm ||L||_2; the stability
    verdict is taken from the spectral radius of the round-trip iteration
    Jacobian, which is what the dynamics actually obeys (the norm is only a
    sufficient criterion and over-reports instability for the strongly
    cross-coupled roots of this model). Both numbers are carried.
    """

    I1_in: float
    I2_in: float
    eta1: float
    eta2: float
    I1_out: float
    I2_out: float
    stability: str          # "stable" | "unstable"
    marginal: bool
    norm: float             # spectral norm of the linearized feedback matrix L
    residual: float
    jacobian_radius: float = float("nan")  # spectral radius of the iteration-map Jacobian


@dataclass
class IterationResult:
    """Outcome of the round-trip intensity iteration."""

    status: str             # "converged" | "diverged" | "cycling" | "max_steps"
    point: tuple[float, float]
    steps: int

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _residual_batch(pts, I0, cav, response, jacobian=False):
    """Residuals (n, 2), etas (n, 2) and ok at candidate points, for inputs
    I0 given per point (n, 2) or as one pair (2,).

    With jacobian=True a fourth value, the residual Jacobian (n, 2, 2), and a
    fifth, d(eta)/dI (n, 2, 2), follow.
    """
    e1, e2, ok, *deta = response.etas(pts[:, 0], pts[:, 1], jacobian=jacobian)
    r1 = pts[:, 0] * (1.0 - cav.R1 * e1) - I0[..., 0]
    r2 = pts[:, 1] * (1.0 - cav.R2 * e2) - I0[..., 1]
    r = np.stack([r1, r2], axis=1)
    etas = np.stack([e1, e2], axis=1)
    if not jacobian:
        return r, etas, ok
    # d r_i / d I_j = delta_ij (1 - R_i eta_i) - R_i I_i d eta_i / d I_j
    R = np.array([cav.R1, cav.R2])
    J = -(R * pts)[:, :, None] * deta[0]
    J[:, [0, 1], [0, 1]] += 1.0 - R * etas
    return r, etas, ok, J, deta[0]


def _merge_close(pts: np.ndarray, radius: float) -> np.ndarray:
    """Indices of the points kept, in order.

    Up to 256 points, a point is dropped exactly when it lies within relative
    `radius` (every coordinate) of an earlier kept point. Above 256 points a
    pre-merge first keeps only the first point of each bucket of the rounded
    log coordinates, 4 * radius wide: a point that shares a bucket with an
    earlier point is dropped even when it is farther than `radius` from every
    kept point. The exact rule then runs on the points the pre-merge kept.
    """
    n = len(pts)
    if n > 256:
        # pre-merge on rounded log coordinates (first-seen order); pairs that
        # straddle a bucket edge are left to the exact pass below
        keys = np.floor(np.log(np.maximum(np.abs(pts), 1e-300)) / max(radius, 1e-12) / 4.0)
        _, first = np.unique(keys, axis=0, return_index=True)
        idx = np.sort(first)
    else:
        idx = np.arange(n)
    cand = pts[idx]
    mag = np.maximum(np.abs(cand), 1e-30)
    keep = np.ones(len(idx), dtype=bool)
    # rows of the pairwise test are built in blocks to bound memory
    block = max(1, (1 << 18) // max(len(idx), 1))
    for b0 in range(0, len(idx), block):
        rows = slice(b0, b0 + block)
        close = np.all(np.abs(cand[rows, None] - cand[None])
                       <= radius * np.maximum(mag[rows, None], mag[None]), axis=2)
        # a kept point drops every other point close to it; one close to an
        # earlier kept point is already dropped when its own row comes up
        for k in np.nonzero(close.sum(axis=1) > 1)[0]:
            if keep[b0 + k]:
                keep &= ~close[k]
                keep[b0 + k] = True
    return idx[keep]


def _merge_cells(pts: np.ndarray, radius: float, cell: np.ndarray) -> np.ndarray:
    """_merge_close applied to each cell's points; `cell` is non-decreasing."""
    cuts = np.flatnonzero(np.diff(cell)) + 1
    return np.concatenate([lo + _merge_close(pts[lo:hi], radius)
                           for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(pts)])])


def _seed_box(I0, cav: CavityParams, widen: float = 1.0):
    """Seed box corners lo, hi (..., 2) of inputs I0 (..., 2): SEED_LOW_FACTOR
    * I_0 to BOUND_MARGIN * I_0 / (1 - R) per axis, the upper end widened."""
    lo = np.maximum(I0 * SEED_LOW_FACTOR, 1e-9)
    hi = np.maximum(I0, 1e-6) / (1.0 - np.array([cav.R1, cav.R2])) * BOUND_MARGIN * widen
    return lo, hi


def _seed_grid(inp: InputPoint, cav: CavityParams, cfg: SolverConfig, widen: float = 1.0):
    lo, hi = _seed_box(np.array([inp.I1_0, inp.I2_0]), cav, widen)
    a1 = np.geomspace(lo[0], hi[0], cfg.seed_grid)
    a2 = np.geomspace(lo[1], hi[1], cfg.seed_grid)
    g1, g2 = np.meshgrid(a1, a2, indexing="ij")
    return np.stack([g1.ravel(), g2.ravel()], axis=1), lo, hi


def _newton_step(r, J):
    """Newton steps -J^-1 r (n, 2) of n 2x2 systems in closed form, and det J
    (n,). A step is inf or nan where det J is 0 or J is not finite."""
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.stack([-(J[:, 1, 1] * r[:, 0] - J[:, 0, 1] * r[:, 1]) / det,
                         -(J[:, 0, 0] * r[:, 1] - J[:, 1, 0] * r[:, 0]) / det], axis=1)
    return step, det


def _newton_roots(I0, lo, hi, seeds, cell, cav, response):
    """Batched multi-start damped Newton with the exact Jacobian, over cells.

    Cell c has inputs I0[c] and seed box [lo[c], hi[c]]; seed k belongs to
    cell cell[k]. Every point is iterated exactly as if its cell were solved
    alone: all arithmetic is per point and merging is per cell.

    Every iterate carries the residual, eta, Jacobian and d(eta)/dI of the
    evaluation that produced it. The line search evaluates the full step of
    every point, then, in one more batched call, the damped steps lambda =
    DAMPING**k, k = 1..5, of the points the full step did not improve; the
    first lambda that lowers max|r| is taken, otherwise the smallest. A point
    stops when it has made no progress for STALL_ITER iterations (see
    STALL_RATIO). Returns (roots, root cells, residuals, etas, d(eta)/dI,
    skipped count per cell): the residual, eta and d(eta)/dI of each root are
    those of the evaluation that passed the convergence test, and the roots
    are ordered by cell, then by (I1, I2).
    """
    tol = NEWTON_TOL * np.maximum(np.maximum(I0[:, 0], I0[:, 1]), 1.0)
    box_lo, box_hi = lo * 1e-3, hi * 10.0
    lams = DAMPING ** np.arange(1, 6)
    pts = np.clip(seeds, (lo * 0.1)[cell], (hi * 10.0)[cell])
    r, etas, ok, J, deta = _residual_batch(pts, I0[cell], cav, response, jacobian=True)
    best = np.full(len(pts), np.inf)
    stall = np.zeros(len(pts), dtype=int)
    converged = []
    skipped = np.zeros(len(I0), dtype=int)

    # an empty batch runs one pass, so that `converged` is never empty
    for it in range(NEWTON_MAX_ITER):
        skipped += np.bincount(cell[~ok], minlength=len(I0))
        norm = np.abs(r).max(axis=1)
        progress = norm < STALL_RATIO * best
        best = np.where(progress, norm, best)
        stall = np.where(progress, 0, stall + 1)
        done = ok & (norm < tol[cell])
        converged.append([a[done] for a in (pts, cell, r, etas, deta)])
        step, det = _newton_step(r, J)
        active = (ok & ~done & (stall < STALL_ITER) & (np.abs(det) > 1e-300)
                  & np.all(np.isfinite(J.reshape(-1, 4)), axis=1))
        if not active.any():
            break
        base, norm, step, cell, best, stall = (
            pts[active], norm[active], step[active], cell[active], best[active], stall[active])

        pts = np.clip(base + step, box_lo[cell], box_hi[cell])
        r, etas, ok, J, deta = _residual_batch(pts, I0[cell], cav, response, jacobian=True)
        worse = np.nonzero(~(np.where(ok, np.abs(r).max(axis=1), np.inf) < norm))[0]
        if worse.size:
            m = worse.size
            wc = cell[worse]
            damped = np.clip(base[worse] + lams[:, None, None] * step[worse],
                             box_lo[wc], box_hi[wc]).reshape(-1, 2)
            r_d, etas_d, ok_d, J_d, deta_d = _residual_batch(
                damped, np.tile(I0[wc], (len(lams), 1)), cav, response, jacobian=True)
            norm_d = np.where(ok_d, np.abs(r_d).max(axis=1), np.inf).reshape(len(lams), m)
            improving = norm_d < norm[worse]
            choice = np.where(improving.any(axis=0), improving.argmax(axis=0), len(lams) - 1)
            pick = choice * m + np.arange(m)
            pts[worse], r[worse], etas[worse], ok[worse], J[worse], deta[worse] = (
                damped[pick], r_d[pick], etas_d[pick], ok_d[pick], J_d[pick], deta_d[pick])
        if it >= 1:
            keep = _merge_cells(pts, DEDUP_RADIUS, cell)
            pts, r, etas, ok, J, deta, cell, best, stall = (
                a[keep] for a in (pts, r, etas, ok, J, deta, cell, best, stall))

    roots, root_cell, r, etas, deta = (np.concatenate(a) for a in zip(*converged))
    order = np.argsort(root_cell, kind="stable")
    keep = order[_merge_cells(roots[order], DEDUP_RADIUS, root_cell[order])]
    keep = keep[np.lexsort((roots[keep, 1], roots[keep, 0], root_cell[keep]))]
    return roots[keep], root_cell[keep], r[keep], etas[keep], deta[keep], skipped


def spectral_norm(M: np.ndarray) -> np.ndarray:
    """Largest singular values of real 2x2 matrices M (..., 2, 2), in closed form."""
    a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    s = a * a + b * b + c * c + d * d
    det = a * d - b * c
    return np.sqrt(0.5 * (s + np.sqrt(np.maximum(s * s - 4.0 * det * det, 0.0))))


def spectral_radius(M: np.ndarray) -> np.ndarray:
    """Largest eigenvalue magnitudes of real 2x2 matrices M (..., 2, 2), in
    closed form."""
    a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    # tr^2 - 4 det, written without the cancellation of a nearly defective
    # matrix. Where it is >= 0 the eigenvalues are (tr +- sqrt(disc)) / 2;
    # where it is < 0 they are a complex pair of modulus sqrt(det), and det > 0
    disc = (a - d) ** 2 + 4.0 * b * c
    return np.where(disc >= 0.0, (np.abs(a + d) + np.sqrt(np.abs(disc))) / 2.0,
                    np.sqrt(np.abs(a * d - b * c)))[()]


def classify(radius) -> tuple:
    """Stability labels and marginal flags of round-trip spectral radii (...):
    stable below 1, unstable otherwise; a radius within MARGINAL_BAND of 1 is
    unstable and marginal."""
    marginal = np.abs(radius - 1.0) < MARGINAL_BAND
    return np.where((radius < 1.0) & ~marginal, "stable", "unstable")[()], marginal


def stability_matrix(pts, I0, etas, deta, cav: CavityParams):
    """Linearized feedback matrices L and iteration-map Jacobians J (n, 2, 2)
    at points (n, 2) with inputs I0 (n, 2), eta (n, 2) and d(eta)/dI (n, 2, 2).

    L follows the published linearization with the [1 + R_j eta_j]^2
    denominator; J is the Jacobian of the round-trip map.
    """
    R = np.array([cav.R1, cav.R2])
    L = (I0 * R / (1.0 + R * etas) ** 2)[:, :, None] * deta
    return L, _round_trip_jacobian(pts, etas, deta, cav)


def _round_trip_jacobian(pts, etas, deta, cav):
    """Jacobians diag(R eta) + R I d(eta)/dI (n, 2, 2) of the round-trip map
    I <- I_0 + R eta(I) I at points (n, 2)."""
    R = np.array([cav.R1, cav.R2])
    return (R * etas)[:, :, None] * np.eye(2) + (R * pts)[:, :, None] * deta


def _operating_points(pts, I0, r, etas, deta, cav) -> list[OperatingPoint]:
    """Operating points at roots pts (n, 2) of inputs I0 (n, 2), from the
    residuals, eta and d(eta)/dI of the evaluation that found them."""
    L, J = stability_matrix(pts, I0, etas, deta, cav)
    # verdict from the dynamics-faithful quantity, published norm reported alongside
    radius = spectral_radius(J)
    stability, marginal = classify(radius)
    out = etas * pts
    columns = (pts[:, 0], pts[:, 1], etas[:, 0], etas[:, 1], out[:, 0], out[:, 1],
               stability, marginal, spectral_norm(L), np.abs(r).max(axis=1), radius)
    return [OperatingPoint(*row) for row in zip(*(col.tolist() for col in columns))]


def solve_cells(
    inputs: Sequence[InputPoint],
    cav: CavityParams,
    cfg: SolverConfig,
    response,
) -> list[list[OperatingPoint] | NoSolution]:
    """Operating points of many input pairs, solved as one batch.

    Entry k is what find_all_solutions(inputs[k], ...) returns
    (the operating points sorted by (I1_in, I2_in)) or the NoSolution it
    raises. A cell's result does not depend on the other cells of the batch:
    every evaluation is per point and every merge per cell; the batch only
    shares the calls into the response (gain probe and Newton).
    """
    n = len(inputs)
    if n == 0:
        return []
    I0 = np.array([[inp.I1_0, inp.I2_0] for inp in inputs], dtype=float)
    if cav.R1 == 0.0 and cav.R2 == 0.0:
        # feedback absent: internal intensities equal the inputs exactly
        r, etas, ok, _, deta = _residual_batch(I0, I0, cav, response, jacobian=True)
        ops = _operating_points(I0, I0, r, etas, deta, cav)
        return [[op] if good else NoSolution(inp, skipped=1)
                for op, good, inp in zip(ops, ok, inputs)]

    grids = [_seed_grid(inp, cav, cfg) for inp in inputs]
    # probe for gain: physical buildup bound assumes eta <= 1
    probes = [seeds[:: max(len(seeds) // 32, 1)] for seeds, _, _ in grids]
    probe_cell = np.repeat(np.arange(n), [len(p) for p in probes])
    _, etas_probe, ok_probe = _residual_batch(np.concatenate(probes), I0[probe_cell],
                                              cav, response)
    seeds, seed_cell = [], []
    lo, hi = np.empty((n, 2)), np.empty((n, 2))
    for c, inp in enumerate(inputs):
        sel = ok_probe & (probe_cell == c)
        grid, lo[c], hi[c] = grids[c]
        if sel.any() and np.nanmax(etas_probe[sel]) > 1.0 + GAIN_TOL:
            grid, lo[c], hi[c] = _seed_grid(inp, cav, cfg, widen=10.0)
        seeds.append(grid)
        seed_cell.append(np.full(len(grid), c))

    return _solve_seeded(I0, lo, hi, np.concatenate(seeds), np.concatenate(seed_cell),
                         cav, response)


def _solve_seeded(I0, lo, hi, seeds, seed_cell, cav, response):
    """Newton from given seeds, then classification of every root from the
    Newton evaluation that found it.

    Cell c has inputs I0[c] and seed box [lo[c], hi[c]]; seed k belongs to
    cell seed_cell[k], which is non-decreasing. Returns per cell the operating
    points sorted by (I1_in, I2_in), or NoSolution.
    """
    roots, root_cell, r, etas, deta, skipped = _newton_roots(
        I0, lo, hi, seeds, seed_cell, cav, response)
    ops = _operating_points(roots, I0[root_cell], r, etas, deta, cav)
    bounds = np.searchsorted(root_cell, np.arange(len(I0) + 1))
    return [ops[bounds[c]:bounds[c + 1]] or NoSolution(InputPoint(*I0[c]), int(skipped[c]))
            for c in range(len(I0))]


def find_all_solutions(
    inp: InputPoint,
    cav: CavityParams,
    cfg: SolverConfig,
    response,
) -> list[OperatingPoint]:
    """All operating points for one input pair, sorted by (I1_in, I2_in).

    Damped Newton is launched from every node of a log-spaced seed grid;
    converged roots are deduplicated and classified from the evaluation that
    passed the convergence test (see _newton_roots). Raises
    NoSolution when nothing converges. This is the one-cell case of
    solve_cells.
    """
    result = solve_cells([inp], cav, cfg, response)[0]
    if isinstance(result, NoSolution):
        raise result
    return result


def iterate_map(
    inp: InputPoint,
    cav: CavityParams,
    response,
    start: tuple[float, float],
    max_steps: int = 2000,
    tol: float = 1e-12,
) -> IterationResult:
    """Physical round-trip iteration I_j <- I_j_0 + R_j eta_j(I) I_j.

    The dynamics proxy of the model: from a start away from every root it
    converges to a stable operating point. It does not test stability: the
    stopping test is on the change of one step, so a start within `tol` of an
    unstable operating point reports "converged" at step 1. Stability is the
    spectral radius of the round-trip Jacobian (stability_matrix).
    """
    cur = np.array(start, dtype=float)
    if np.any(cur <= 0):
        raise ValueError("start intensities must be positive")
    prev = None
    bound = 1e12 * max(inp.I1_0, inp.I2_0, 1.0)
    for step in range(1, max_steps + 1):
        e1, e2, ok = response.etas([cur[0]], [cur[1]])
        if not ok[0]:
            return IterationResult("diverged", (float(cur[0]), float(cur[1])), step)
        nxt = np.array([
            inp.I1_0 + cav.R1 * float(e1[0]) * cur[0],
            inp.I2_0 + cav.R2 * float(e2[0]) * cur[1],
        ])
        if not np.all(np.isfinite(nxt)) or np.any(nxt > bound):
            return IterationResult("diverged", (float(nxt[0]), float(nxt[1])), step)
        sc = np.maximum(np.abs(nxt), 1e-30)
        change = float(np.max(np.abs(nxt - cur) / sc))
        if change < tol:
            return IterationResult("converged", (float(nxt[0]), float(nxt[1])), step)
        if prev is not None:
            cyc = float(np.max(np.abs(nxt - prev) / sc))
            if cyc < tol and change >= tol:
                return IterationResult("cycling", (float(nxt[0]), float(nxt[1])), step)
        prev = cur
        cur = nxt
    return IterationResult("max_steps", (float(cur[0]), float(cur[1])), max_steps)


def correct_root(
    inp: InputPoint,
    cav: CavityParams,
    response,
    start: tuple[float, float],
    max_move: float,
) -> tuple[tuple[float, float], np.ndarray] | None:
    """((I1, I2), etas) of a stable operating point near `start`, or None.

    The sweep's corrector: exact-Jacobian Newton on the closed system from the
    previous sample's state, which converges quadratically where iterate_map
    converges at the rate of the round-trip spectral radius, slow near the
    folds. The root is returned only if Newton reaches a residual below
    CORRECTOR_TOL relative to the intensities within CORRECTOR_MAX_ITER
    evaluations (etas are eta (2,) of that last evaluation, at the root), it
    is stable by the rule the operating points use (classify: round-trip
    spectral radius below 1 and outside MARGINAL_BAND; Newton finds unstable
    roots as readily as stable ones) and no intensity moved by more than
    `max_move` relative to `start` (a branch switch is left to iterate_map).
    """
    I0 = np.array([inp.I1_0, inp.I2_0])
    x0 = np.array(start, dtype=float)
    x = x0.reshape(1, 2)
    for _ in range(CORRECTOR_MAX_ITER):
        r, etas, ok, J, deta = _residual_batch(x, I0, cav, response, jacobian=True)
        if not (ok[0] and np.isfinite(J).all()):
            return None
        if np.max(np.abs(r[0]) / x[0]) < CORRECTOR_TOL:
            break
        step, _ = _newton_step(r, J)
        x = x + step
        if not (x > 0).all():
            return None
    else:
        return None
    stability, _ = classify(spectral_radius(_round_trip_jacobian(x, etas, deta, cav)[0]))
    if stability != "stable" or np.any(np.abs(x[0] - x0) > max_move * x0):
        return None
    return (float(x[0, 0]), float(x[0, 1])), etas[0]
