"""Bistability-domain mapping: per-cell operating-point counts over a grid of
input intensities, region labelling (absorbing / bistable / transparent) and
boundary extraction of the bistable set.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .feedback import (
    CavityParams,
    InputPoint,
    NoSolution,
    OperatingPoint,
    SolverConfig,
    find_all_solutions,
)

REGION_ABSORBING = "absorbing"
REGION_BISTABLE = "bistable"
REGION_TRANSPARENT = "transparent"
REGION_FAILED = "failed"


class GridMismatch(ValueError):
    """Maps compared over different grids."""


@dataclass
class GridSpec:
    """Rectangular (I1_0, I2_0) scan grid, linear or log spaced."""

    i1_min: float = 1e-2
    i1_max: float = 1e3
    i1_steps: int = 60
    i2_min: float = 1e-2
    i2_max: float = 1e3
    i2_steps: int = 60
    log: bool = True

    def __post_init__(self):
        for ax, lo, hi, steps in (
            ("i1", self.i1_min, self.i1_max, self.i1_steps),
            ("i2", self.i2_min, self.i2_max, self.i2_steps),
        ):
            if not (np.isfinite(lo) and lo >= 0):
                raise ValueError(f"{ax}_min: must be finite and >= 0, got {lo}")
            if self.log and lo == 0:
                raise ValueError(f"{ax}_min: must be positive for log spacing")
            if not (np.isfinite(hi) and hi > lo):
                raise ValueError(f"{ax}_max: must be finite and exceed "
                                 f"{ax}_min = {lo}, got {hi}")
            if not steps >= 2:
                raise ValueError(f"{ax}_steps: must be >= 2, got {steps}")

    def _axis(self, lo: float, hi: float, steps: int) -> np.ndarray:
        return (np.geomspace if self.log else np.linspace)(lo, hi, steps)

    def axis1(self) -> np.ndarray:
        return self._axis(self.i1_min, self.i1_max, self.i1_steps)

    def axis2(self) -> np.ndarray:
        return self._axis(self.i2_min, self.i2_max, self.i2_steps)


def _corner_axis(axis: np.ndarray, log: bool) -> np.ndarray:
    """Cell-corner coordinates: midpoints between samples, extended half a step."""
    if log:
        mids = np.sqrt(axis[:-1] * axis[1:])
        first = axis[0] * np.sqrt(axis[0] / axis[1])
        last = axis[-1] * np.sqrt(axis[-1] / axis[-2])
    else:
        mids = 0.5 * (axis[:-1] + axis[1:])
        first = axis[0] - 0.5 * (axis[1] - axis[0])
        last = axis[-1] + 0.5 * (axis[-1] - axis[-2])
    return np.concatenate([[first], mids, [last]])


@dataclass
class BistabilityMap:
    """Per-cell solution statistics over a GridSpec.

    Arrays are indexed [i, j] with i along the I1 axis and j along the I2
    axis. `boundary` holds closed polyline chains (lists of (I1_0, I2_0)
    vertices) separating bistable from non-bistable cells.
    """

    grid: GridSpec
    solution_count: np.ndarray
    stable_count: np.ndarray
    region: np.ndarray
    min_eta: np.ndarray
    max_eta: np.ndarray
    boundary: list = field(default_factory=list)

    def bistable_cells(self) -> int:
        return int((self.region == REGION_BISTABLE).sum())


def _cell_stats(ops: list[OperatingPoint]):
    etas = [e for op in ops for e in (op.eta1, op.eta2)]
    return (
        len(ops),
        sum(1 for op in ops if op.stability == "stable"),
        float(min(etas)),
        float(max(etas)),
    )


def _label(count: int, min_eta: float, max_eta: float,
           eta_absorbing: float, eta_transparent: float) -> str:
    if count >= 2:
        return REGION_BISTABLE
    if max_eta < eta_absorbing:
        return REGION_ABSORBING
    if min_eta > eta_transparent:
        return REGION_TRANSPARENT
    # between thresholds: take the nearer one
    if (max_eta - eta_absorbing) <= (eta_transparent - min_eta):
        return REGION_ABSORBING
    return REGION_TRANSPARENT


def map_domain(
    grid: GridSpec,
    cav: CavityParams,
    response,
    cfg: SolverConfig,
    eta_absorbing: float = 0.1,
    eta_transparent: float = 0.9,
    threads: int = 0,
) -> BistabilityMap:
    """Solve every grid cell and label the three regions of the input plane.

    Rows (fixed I1 index) are processed in order; cells within a row may be
    evaluated concurrently. Each cell warm-starts from the roots of the same
    column in the previous, already finalized row, so results are identical
    for any thread count. A cell where no operating point is found
    (NoSolution) is labelled failed; any other exception propagates.
    """
    a1 = grid.axis1()
    a2 = grid.axis2()
    n1, n2 = len(a1), len(a2)
    counts = np.zeros((n1, n2), dtype=int)
    stables = np.zeros((n1, n2), dtype=int)
    region = np.full((n1, n2), REGION_FAILED, dtype=object)
    min_eta = np.full((n1, n2), np.nan)
    max_eta = np.full((n1, n2), np.nan)
    roots_prev: list[list[tuple[float, float]] | None] = [None] * n2

    workers = threads if threads and threads > 0 else None

    def solve_cell(args):
        i, j = args
        inp = InputPoint(float(a1[i]), float(a2[j]))
        seeds = roots_prev[j]
        try:
            ops = find_all_solutions(inp, cav, cfg, response, extra_seeds=seeds)
        except NoSolution:
            return i, j, None
        return i, j, ops

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for i in range(n1):
            jobs = [(i, j) for j in range(n2)]
            results = list(pool.map(solve_cell, jobs)) if workers != 1 else [
                solve_cell(job) for job in jobs
            ]
            new_prev: list[list[tuple[float, float]] | None] = [None] * n2
            for _, j, ops in results:
                if ops is None:
                    continue
                c, s, lo, hi = _cell_stats(ops)
                counts[i, j] = c
                stables[i, j] = s
                min_eta[i, j] = lo
                max_eta[i, j] = hi
                region[i, j] = _label(c, lo, hi, eta_absorbing, eta_transparent)
                new_prev[j] = [(op.I1_in, op.I2_in) for op in ops]
            roots_prev = new_prev

    bmap = BistabilityMap(
        grid=grid,
        solution_count=counts,
        stable_count=stables,
        region=region,
        min_eta=min_eta,
        max_eta=max_eta,
    )
    bmap.boundary = extract_boundary(bmap)
    return bmap


def extract_boundary(bmap: BistabilityMap) -> list[list[tuple[float, float]]]:
    """Closed counterclockwise chains around the bistable cell set.

    Edges are traced on the cell-corner lattice; chains start from the lowest
    corner index so the output is deterministic.
    """
    mask = bmap.region == REGION_BISTABLE
    n1, n2 = mask.shape
    c1 = _corner_axis(bmap.grid.axis1(), bmap.grid.log)
    c2 = _corner_axis(bmap.grid.axis2(), bmap.grid.log)

    def inside(i, j):
        return 0 <= i < n1 and 0 <= j < n2 and mask[i, j]

    # directed edges, bistable region kept on the left (counterclockwise,
    # with the I1 axis as x and the I2 axis as y)
    edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i in range(n1):
        for j in range(n2):
            if not mask[i, j]:
                continue
            if not inside(i, j - 1):
                edges.setdefault((i, j), []).append((i + 1, j))
            if not inside(i + 1, j):
                edges.setdefault((i + 1, j), []).append((i + 1, j + 1))
            if not inside(i, j + 1):
                edges.setdefault((i + 1, j + 1), []).append((i, j + 1))
            if not inside(i - 1, j):
                edges.setdefault((i, j + 1), []).append((i, j))
    for v in edges.values():
        v.sort()

    chains = []
    while edges:
        start = min(edges)
        cur = start
        chain = [cur]
        while True:
            nexts = edges[cur]
            nxt = nexts.pop(0)
            if not nexts:
                del edges[cur]
            chain.append(nxt)
            cur = nxt
            if cur == start:
                break
        chains.append([(float(c1[a]), float(c2[b])) for a, b in chain])
    chains.sort(key=lambda ch: ch[0])
    return chains


@dataclass
class DomainComparison:
    """Cell-wise comparison of two maps sharing a grid."""

    bistable_a: int
    bistable_b: int
    bbox_a: tuple[int, int, int, int] | None
    bbox_b: tuple[int, int, int, int] | None
    symmetric_difference: int
    differing_cells: list[tuple[int, int]]


def _bbox(mask: np.ndarray):
    idx = np.argwhere(mask)
    if idx.size == 0:
        return None
    return (int(idx[:, 0].min()), int(idx[:, 0].max()),
            int(idx[:, 1].min()), int(idx[:, 1].max()))


def compare_domains(map_a: BistabilityMap, map_b: BistabilityMap) -> DomainComparison:
    if map_a.grid != map_b.grid:
        raise GridMismatch("maps were computed on different grids")
    ma = map_a.region == REGION_BISTABLE
    mb = map_b.region == REGION_BISTABLE
    diff = map_a.region != map_b.region
    return DomainComparison(
        bistable_a=int(ma.sum()),
        bistable_b=int(mb.sum()),
        bbox_a=_bbox(ma),
        bbox_b=_bbox(mb),
        symmetric_difference=int((ma ^ mb).sum()),
        differing_cells=[(int(i), int(j)) for i, j in np.argwhere(diff)],
    )


MAP_COLUMNS = ["i", "j", "I1_0", "I2_0", "solution_count", "stable_count",
               "region", "min_eta", "max_eta"]
BOUNDARY_COLUMNS = ["chain_id", "vertex_index", "I1_0", "I2_0"]


def map_rows(bmap: BistabilityMap):
    """Row-major cell records in the exact emitted column order."""
    a1 = bmap.grid.axis1()
    a2 = bmap.grid.axis2()
    rows = []
    for i in range(len(a1)):
        for j in range(len(a2)):
            rows.append([
                i, j, float(a1[i]), float(a2[j]),
                int(bmap.solution_count[i, j]), int(bmap.stable_count[i, j]),
                str(bmap.region[i, j]),
                float(bmap.min_eta[i, j]), float(bmap.max_eta[i, j]),
            ])
    return rows


def boundary_rows(bmap: BistabilityMap):
    rows = []
    for cid, chain in enumerate(bmap.boundary):
        for vid, (x, y) in enumerate(chain):
            rows.append([cid, vid, x, y])
    return rows
