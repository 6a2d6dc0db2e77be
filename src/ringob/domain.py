"""Bistability-domain mapping: per-cell operating-point counts over a grid of
input intensities, region labelling (absorbing / bistable / transparent) and
boundary extraction of the bistable set.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor  # noqa: F401  bench/tracing.py swaps it by this name
from dataclasses import dataclass, field

import numpy as np

from .feedback import (
    GAIN_TOL,
    CavityParams,
    InputPoint,
    NoSolution,
    OperatingPoint,
    SolverConfig,
    _merge_cells,
    _residual_batch,
    _seed_box,
    _solve_seeded,
    find_all_solutions,  # noqa: F401  unused here; bench/tracing.py wraps it by this name
    solve_cells,
)

REGION_ABSORBING = "absorbing"
REGION_BISTABLE = "bistable"
REGION_TRANSPARENT = "transparent"
REGION_FAILED = "failed"
# a one-root cell is absorbing when all its etas lie below ETA_ABSORBING,
# transparent when all lie above ETA_TRANSPARENT, else by the nearer one
ETA_ABSORBING = 0.1
ETA_TRANSPARENT = 0.9

# The map is solved through the inverse map F(I) = (I1 (1 - R1 eta1),
# I2 (1 - R2 eta2)) of the internal intensities I, whose preimages of a
# cell's input are its operating points. F is tabulated on a TABLE_STEPS^2
# log grid; each table square at the fold of F is subdivided FOLD_REFINE x
# FOLD_REFINE. Over the 100x100 acceptance map, a 30x30 band and the default
# and high-Q 40x40 presets, 13 cells lose a root without refinement, 4 at
# 2 x 2 and none at 4 x 4.
TABLE_STEPS = 200
FOLD_REFINE = 8
# points per response call of the table and seeds per Newton batch, so that
# a map's peak memory does not grow with the table or the grid
EVAL_CHUNK = 4096
# a cell's seeds within this relative distance (every coordinate) are merged
SEED_MERGE_RADIUS = 1e-3
# barycentric slack, so that an input on an edge shared by two image
# triangles is not lost to rounding in both
EDGE_SLACK = 1e-9


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
    table_points: int = 0       # points at which the inverse map was tabulated
    fold_squares: int = 0       # table squares refined at the fold
    fallback_cells: int = 0     # cells solved by multi-start Newton (solve_cells)

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


def _label(count: int, min_eta: float, max_eta: float) -> str:
    if count >= 2:
        return REGION_BISTABLE
    if max_eta < ETA_ABSORBING:
        return REGION_ABSORBING
    if min_eta > ETA_TRANSPARENT:
        return REGION_TRANSPARENT
    # between thresholds: take the nearer one
    if (max_eta - ETA_ABSORBING) <= (ETA_TRANSPARENT - min_eta):
        return REGION_ABSORBING
    return REGION_TRANSPARENT


def _log_image(u, cav, response):
    """log F at points u (n, 2) of log internal intensity, and the mask of
    points where the response is ok and has no gain (there F > 0). Callers
    keep n within EVAL_CHUNK."""
    F, etas, ok = _residual_batch(np.exp(u), np.zeros(2), cav, response)
    good = ok & np.all(etas <= 1.0 + GAIN_TOL, axis=1) & np.all(F > 0.0, axis=1)
    return np.log(np.where(good[:, None], F, 1.0)), good


def _lattice(a1, a2):
    """Nodes (p * q, 2) of the lattice a1 x a2, row-major."""
    g1, g2 = np.meshgrid(a1, a2, indexing="ij")
    return np.stack([g1.ravel(), g2.ravel()], axis=1)


def _square_triangles(a1, a2, v, good, box):
    """Triangles of the squares of m node lattices that have no bad corner
    and whose image may meet the box (2, 2) of lower and upper corners.

    a1 (m, p) and a2 (m, q) are the lattices' log-intensity axes, v (m, p, q,
    2) the log image and good (m, p, q) its mask. Square (i, j) splits into
    the triangles (i, j), (i + 1, j), (i + 1, j + 1) and (i, j), (i + 1,
    j + 1), (i, j + 1), both counterclockwise. Returns nodes u and images of
    the triangles, each (t, 3, 2).
    """
    corners = [v[:, :-1, :-1], v[:, 1:, :-1], v[:, 1:, 1:], v[:, :-1, 1:]]
    meets = np.all((np.minimum.reduce(corners) <= box[1])
                   & (np.maximum.reduce(corners) >= box[0]), axis=-1)
    k, i, j = np.nonzero(meets & good[:, :-1, :-1] & good[:, 1:, :-1] & good[:, 1:, 1:]
                         & good[:, :-1, 1:])
    corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
    u = np.stack([np.stack([a1[k, x], a2[k, y]], axis=1) for x, y in corners], axis=1)
    img = np.stack([v[k, x, y] for x, y in corners], axis=1)
    tri = [0, 1, 2, 0, 2, 3]
    return (u[:, tri].reshape(-1, 3, 2), img[:, tri].reshape(-1, 3, 2))


def _orientation(v):
    """Signs (p - 1, q - 1, 2) of the signed areas of the two image triangles
    (see _square_triangles) of every square of a lattice image v (p, q, 2)."""
    a, b, c, d = v[:-1, :-1], v[1:, :-1], v[1:, 1:], v[:-1, 1:]

    def cross(p, q, r):
        return (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) \
            - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0])

    return np.stack([np.sign(cross(a, b, c)), np.sign(cross(a, c, d))], axis=-1)


def _cover(u, img, g1, g2):
    """Preimages of the map inputs that lie in image triangles.

    u and img (t, 3, 2) are triangle nodes in log intensity and their
    images; g1, g2 are the ascending log input axes. Returns seeds (m, 2) in
    log intensity, by barycentric interpolation, and their row-major cells.
    """
    lo, hi = img.min(axis=1), img.max(axis=1)
    i0, i1 = np.searchsorted(g1, lo[:, 0]), np.searchsorted(g1, hi[:, 0], side="right")
    j0, j1 = np.searchsorted(g2, lo[:, 1]), np.searchsorted(g2, hi[:, 1], side="right")
    ni, nj = np.maximum(i1 - i0, 0), np.maximum(j1 - j0, 0)
    pairs = ni * nj
    t = np.repeat(np.arange(len(u)), pairs)
    k = np.arange(pairs.sum()) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    ii, jj = i0[t] + k // nj[t], j0[t] + k % nj[t]
    a = img[t, 0]
    e1, e2 = img[t, 1] - a, img[t, 2] - a
    d1, d2 = g1[ii] - a[:, 0], g2[jj] - a[:, 1]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        l1 = (d1 * e2[:, 1] - d2 * e2[:, 0]) / det
        l2 = (e1[:, 0] * d2 - e1[:, 1] * d1) / det
    inside = (l1 >= -EDGE_SLACK) & (l2 >= -EDGE_SLACK) & (l1 + l2 <= 1.0 + EDGE_SLACK)
    t, l1, l2 = t[inside], l1[inside, None], l2[inside, None]
    seeds = u[t, 0] + l1 * (u[t, 1] - u[t, 0]) + l2 * (u[t, 2] - u[t, 0])
    return seeds, (ii * len(g2) + jj)[inside]


def _near(mask):
    """mask widened by one square to its four edge neighbours."""
    out = mask.copy()
    out[1:] |= mask[:-1]
    out[:-1] |= mask[1:]
    out[:, 1:] |= mask[:, :-1]
    out[:, :-1] |= mask[:, 1:]
    return out


def _inverse_map_seeds(I0, g1, g2, cav, response):
    """Seeds of every map cell from a table of the inverse map F.

    I0 (n, 2) are the cell inputs in row-major order over the log axes g1,
    g2. Returns seeds (m, 2), merged per cell, their cells (non-decreasing),
    the number of table points and the number of refined fold squares. A
    cell the table cannot vouch for gets no seed: its root box [I_0, I_0 /
    (1 - R)] lies outside the table or touches a square with a failed or
    gain node.
    """
    lo, hi = _seed_box(I0, cav)
    # a zero input (linear grids) has its roots at I_j = 0, off any log table
    table_lo = lo[np.all(I0 > 0.0, axis=1)].min(axis=0)
    u_lo, u_hi = np.log(table_lo), np.log(hi.max(axis=0))
    axes = [np.linspace(u_lo[k], u_hi[k], TABLE_STEPS) for k in (0, 1)]
    du = (u_hi - u_lo) / (TABLE_STEPS - 1)
    nsq = TABLE_STEPS - 1
    box = np.array([[g1[0], g2[0]], [g1[-1], g2[-1]]])
    bad = np.empty((nsq, nsq), dtype=bool)
    orient = np.empty((nsq, nsq, 2), dtype=np.int8)
    seeds, cells = [], []
    # the table is built and seeded in strips of rows, whose nodes fit one
    # call; each strip starts from the last node row of the one before
    strip = EVAL_CHUNK // TABLE_STEPS - 1
    for s in range(0, nsq, strip):
        rows = axes[0][s:s + strip + 1]
        v, good = _log_image(_lattice(rows[1:] if s else rows, axes[1]), cav, response)
        v, good = v.reshape(-1, TABLE_STEPS, 2), good.reshape(-1, TABLE_STEPS)
        if s:
            v, good = np.concatenate([v_last, v]), np.concatenate([good_last, good])
        v_last, good_last = v[-1:], good[-1:]
        squares = slice(s, s + strip)
        bad[squares] = ~(good[:-1, :-1] & good[1:, :-1] & good[1:, 1:] & good[:-1, 1:])
        orient[squares] = np.where(bad[squares, :, None], 0, _orientation(v))
        seed, cell = _cover(*_square_triangles(rows[None], axes[1][None], v[None], good[None],
                                               box), g1, g2)
        seeds.append(seed)
        cells.append(cell)

    # fold squares: the orientation of the image triangles flips within a
    # square or between neighbours; widened by one square. Their coarse
    # triangles stay: they close the cracks between a refined square and a
    # coarse neighbour
    pos, neg = (orient > 0).any(axis=2), (orient < 0).any(axis=2)
    flip = (pos & _near(neg)) | (neg & _near(pos))
    fold = _near(flip) & ~bad

    # refine the fold squares: FOLD_REFINE x FOLD_REFINE sub-squares each
    fi, fj = np.nonzero(fold)
    sub = np.arange(FOLD_REFINE + 1) / FOLD_REFINE
    per_call = max(1, EVAL_CHUNK // (FOLD_REFINE + 1) ** 2)
    for s in range(0, len(fi), per_call):
        i, j = fi[s:s + per_call], fj[s:s + per_call]
        a1 = axes[0][i, None] + du[0] * sub
        a2 = axes[1][j, None] + du[1] * sub
        m, p = len(i), FOLD_REFINE + 1
        u = np.stack([np.repeat(a1, p, axis=1), np.tile(a2, (1, p))], axis=-1).reshape(-1, 2)
        sv, sgood = _log_image(u, cav, response)
        sv, sgood = sv.reshape(m, p, p, 2), sgood.reshape(m, p, p)
        bad[i, j] |= ~sgood.all(axis=(1, 2))
        seed, cell = _cover(*_square_triangles(a1, a2, sv, sgood, box), g1, g2)
        seeds.append(seed)
        cells.append(cell)

    # cells whose root box lies outside the table or touches a bad square
    with np.errstate(divide="ignore"):
        root_box = np.log(np.stack([I0, I0 / (1.0 - np.array([cav.R1, cav.R2]))]))
    sq = np.clip(np.floor((root_box - u_lo) / du), 0, nsq - 1).astype(int)
    area = np.zeros((nsq + 1, nsq + 1), dtype=int)
    area[1:, 1:] = bad.cumsum(axis=0).cumsum(axis=1)
    (i0, j0), (i1, j1) = sq[0].T, sq[1].T + 1
    touched = area[i1, j1] - area[i0, j1] - area[i1, j0] + area[i0, j0]
    unvouched = (touched > 0) | ~np.all(I0 >= table_lo, axis=1)

    seeds, cells = np.concatenate(seeds), np.concatenate(cells)
    vouched = np.flatnonzero(~unvouched[cells])
    order = vouched[np.argsort(cells[vouched], kind="stable")]
    seeds, cells = np.exp(seeds[order]), cells[order]
    keep = _merge_cells(seeds, SEED_MERGE_RADIUS, cells)
    return (seeds[keep], cells[keep],
            TABLE_STEPS ** 2 + len(fi) * (FOLD_REFINE + 1) ** 2, len(fi))


def _batches(bounds):
    """Slices of consecutive cells, cell k holding seeds bounds[k] to
    bounds[k + 1], with at most EVAL_CHUNK seeds each (or one cell)."""
    start, n = 0, len(bounds) - 1
    while start < n:
        fits = int(np.searchsorted(bounds, bounds[start] + EVAL_CHUNK, side="right")) - 1
        stop = max(start + 1, fits)
        yield slice(start, stop)
        start = stop


def map_domain(
    grid: GridSpec,
    cav: CavityParams,
    response,
    cfg: SolverConfig,
) -> BistabilityMap:
    """Solve every grid cell and label the three regions of the input plane.

    The operating points of a cell are the preimages of its input under the
    inverse map F (see TABLE_STEPS): each cell is seeded from a table of F,
    refined at its fold, and all seeds of the map are polished by one
    batched Newton (in batches of at most EVAL_CHUNK seeds) and classified
    from the Newton evaluation that found each root, as solve_cells does. A
    cell without seeds (see _inverse_map_seeds) or whose seeds gave no root
    is solved by solve_cells instead. No cell depends on another, so the map
    is deterministic. A cell where no operating point is found (NoSolution)
    is labelled failed; any other exception propagates.
    """
    a1 = grid.axis1()
    a2 = grid.axis2()
    n1, n2 = len(a1), len(a2)
    I0 = _lattice(a1, a2)
    results: list = [None] * len(I0)
    table_points = fold_squares = 0
    fallback = np.ones(len(I0), dtype=bool)
    # without feedback solve_cells returns the exact roots I = I_0 directly
    if cav.R1 > 0.0 or cav.R2 > 0.0:
        with np.errstate(divide="ignore"):
            g1, g2 = np.log(a1), np.log(a2)
        seeds, seed_cell, table_points, fold_squares = _inverse_map_seeds(
            I0, g1, g2, cav, response)
        cells, first, local = np.unique(seed_cell, return_index=True, return_inverse=True)
        bounds = np.r_[first, len(seeds)]
        lo, hi = _seed_box(I0[cells], cav)
        for part in _batches(bounds):
            seeded = slice(bounds[part.start], bounds[part.stop])
            batch = _solve_seeded(I0[cells[part]], lo[part], hi[part], seeds[seeded],
                                  local[seeded] - part.start, cav, response)
            for c, ops in zip(cells[part], batch):
                if not isinstance(ops, NoSolution):
                    results[c] = ops
                    fallback[c] = False

    todo = np.flatnonzero(fallback)
    for part in _batches(np.arange(len(todo) + 1) * cfg.seed_grid ** 2):
        batch = solve_cells([InputPoint(*I0[c]) for c in todo[part]], cav, cfg, response)
        for c, ops in zip(todo[part], batch):
            results[c] = ops

    counts = np.zeros((n1, n2), dtype=int)
    stables = np.zeros((n1, n2), dtype=int)
    region = np.full((n1, n2), REGION_FAILED, dtype=object)
    min_eta = np.full((n1, n2), np.nan)
    max_eta = np.full((n1, n2), np.nan)
    for c, ops in enumerate(results):
        if isinstance(ops, NoSolution):
            continue
        i, j = divmod(c, n2)
        cnt, stb, lo_eta, hi_eta = _cell_stats(ops)
        counts[i, j] = cnt
        stables[i, j] = stb
        min_eta[i, j] = lo_eta
        max_eta[i, j] = hi_eta
        region[i, j] = _label(cnt, lo_eta, hi_eta)

    bmap = BistabilityMap(
        grid=grid,
        solution_count=counts,
        stable_count=stables,
        region=region,
        min_eta=min_eta,
        max_eta=max_eta,
        table_points=table_points,
        fold_squares=fold_squares,
        fallback_cells=len(todo),
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
