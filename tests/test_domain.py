"""Domain-mapper tests on a synthetic cell response whose bistable set is
known analytically, the inverse-map engine against multi-start Newton on
every cell, plus boundary-extraction checks against a flood-fill oracle."""

from dataclasses import dataclass

import numpy as np
import pytest

from ringob import domain
from ringob.atom import AtomParams, CellResponse, OpticalConstants
from ringob.domain import (
    REGION_BISTABLE,
    BistabilityMap,
    GridSpec,
    boundary_rows,
    extract_boundary,
    map_domain,
    map_rows,
)
from ringob.feedback import CavityParams, InputPoint, NoSolution, SolverConfig, solve_cells


class GridMismatch(ValueError):
    """Maps compared over different grids."""


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


def enclosed_cells(bmap: BistabilityMap) -> set[tuple[int, int]]:
    """Cells whose centers lie inside the boundary chains (even-odd rule).

    Purely geometric check against the emitted polylines: must equal the
    bistable cell set, with hole chains cancelling the outer chains.
    """
    a1 = bmap.grid.axis1()
    a2 = bmap.grid.axis2()
    if bmap.grid.log:
        cx, cy = np.log(a1), np.log(a2)
        chains = [np.log(np.asarray(ch)) for ch in bmap.boundary]
    else:
        cx, cy = a1, a2
        chains = [np.asarray(ch) for ch in bmap.boundary]
    inside = set()
    for i, x in enumerate(cx):
        for j, y in enumerate(cy):
            crossings = 0
            for ch in chains:
                x0, y0 = ch[:-1, 0], ch[:-1, 1]
                x1, y1 = ch[1:, 0], ch[1:, 1]
                # horizontal ray towards +x; edges are axis-aligned
                spans = (y0 > y) != (y1 > y)
                if spans.any():
                    xs = x0[spans] + (y - y0[spans]) / (y1[spans] - y0[spans]) \
                        * (x1[spans] - x0[spans])
                    crossings += int((xs > x).sum())
            if crossings % 2 == 1:
                inside.add((i, j))
    return inside


class SigmoidResponse:
    """Same saturable stub as in the feedback tests: three roots whenever the
    effective drive of mode 1 falls in the S-curve band."""

    def etas(self, I1, I2, jacobian=False):
        I1 = np.atleast_1d(np.asarray(I1, dtype=float))
        I2 = np.atleast_1d(np.asarray(I2, dtype=float))
        I1, I2 = np.broadcast_arrays(I1, I2)
        s = 1.0 / (1.0 + np.exp(-(I1 - 5.0) / 0.5))
        e1 = 0.05 + 0.9 * s
        ok = np.isfinite(I1) & np.isfinite(I2)
        if not jacobian:
            return e1, np.full_like(e1, 0.5), ok
        deta = np.zeros((len(e1), 2, 2))
        deta[:, 0, 0] = 0.9 * s * (1.0 - s) / 0.5
        return e1, np.full_like(e1, 0.5), ok, deta


CAV = CavityParams(R1=0.9, R2=0.5)
CFG = SolverConfig(seed_grid=14)


@pytest.fixture(scope="module")
def stub_map():
    grid = GridSpec(i1_min=0.5, i1_max=20.0, i1_steps=16,
                    i2_min=0.5, i2_max=2.0, i2_steps=4)
    return map_domain(grid, CAV, SigmoidResponse(), CFG)


class TestGridSpec:
    def test_axes_log(self):
        g = GridSpec(i1_min=1.0, i1_max=100.0, i1_steps=3)
        assert np.allclose(g.axis1(), [1.0, 10.0, 100.0])

    def test_axes_linear(self):
        g = GridSpec(i1_min=0.0, i1_max=2.0, i1_steps=3,
                     i2_min=0.1, i2_max=1.0, log=False)
        assert np.allclose(g.axis1(), [0.0, 1.0, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(i1_min=2.0, i1_max=1.0)
        with pytest.raises(ValueError):
            GridSpec(i1_steps=1)
        with pytest.raises(ValueError):
            GridSpec(i1_min=0.0, log=True)


class TestMapping:
    def test_band_is_bistable(self, stub_map):
        regions = stub_map.region
        counts = stub_map.solution_count
        # the sigmoid band sits at intermediate I1_0, independent of I2_0
        band_rows = sorted({i for i, j in zip(*np.nonzero(regions == "bistable"))})
        assert len(band_rows) >= 2
        assert all(counts[i, j] == 3 for i in band_rows for j in range(4)
                   if regions[i, j] == "bistable")

    def test_band_independent_of_i2(self, stub_map):
        mask = stub_map.region == "bistable"
        for i in range(mask.shape[0]):
            assert mask[i].all() or not mask[i].any()

    def test_absorbing_low_transparent_high(self, stub_map):
        regions = stub_map.region
        assert regions[0, 0] == "absorbing"      # eta1 ~ 0.05 at low drive
        # at high drive eta1 -> 0.95 > 0.9 but eta2 stays 0.5, so min_eta
        # keeps the unique-root cells out of "transparent"; they label by
        # the nearer threshold
        assert regions[-1, 0] in ("transparent", "absorbing")

    def test_stable_counts(self, stub_map):
        bist = stub_map.region == "bistable"
        assert (stub_map.stable_count[bist] == 2).all()

    def test_thread_determinism(self):
        grid = GridSpec(i1_min=0.5, i1_max=20.0, i1_steps=10,
                        i2_min=0.5, i2_max=2.0, i2_steps=3)
        m1 = map_domain(grid, CAV, SigmoidResponse(), CFG, threads=1)
        m8 = map_domain(grid, CAV, SigmoidResponse(), CFG, threads=8)
        assert map_rows(m1) == map_rows(m8)
        assert boundary_rows(m1) == boundary_rows(m8)

    def test_failed_label(self):
        class Broken:
            def etas(self, I1, I2, jacobian=False):
                I1 = np.atleast_1d(np.asarray(I1, dtype=float))
                nan = np.full_like(I1, np.nan)
                out = nan, nan, np.zeros_like(I1, dtype=bool)
                return out + (np.full((len(I1), 2, 2), np.nan),) if jacobian else out

        grid = GridSpec(i1_min=1.0, i1_max=2.0, i1_steps=2,
                        i2_min=1.0, i2_max=2.0, i2_steps=2)
        m = map_domain(grid, CAV, Broken(), CFG)
        assert (m.region == "failed").all()

    def test_found_middle_roots(self, stub_map):
        # rows I1_0 = 1.71 and 2.80, where multi-start Newton from the seed
        # grid alone misses the middle root
        a1 = stub_map.grid.axis1()
        for i, value in ((5, 1.71), (7, 2.80)):
            assert a1[i] == pytest.approx(value, rel=1e-2)
            assert (stub_map.solution_count[i] == 3).all()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_programming_error_propagates(self, threads):
        class Raising:
            def etas(self, I1, I2, jacobian=False):
                raise RuntimeError("bug in the response")

        grid = GridSpec(i1_min=1.0, i1_max=2.0, i1_steps=2,
                        i2_min=1.0, i2_max=2.0, i2_steps=2)
        with pytest.raises(RuntimeError, match="bug in the response"):
            map_domain(grid, CAV, Raising(), CFG, threads=threads)


def cell_table(results):
    """(count, stable count, region) per cell of solve_cells-style results."""
    rows = []
    for ops in results:
        if isinstance(ops, NoSolution):
            rows.append((0, 0, domain.REGION_FAILED))
            continue
        count, stable, lo, hi = domain._cell_stats(ops)
        rows.append((count, stable, domain._label(count, lo, hi, 0.1, 0.9)))
    return rows


def multistart(grid, cav, cfg, response):
    """Every cell of a grid solved by multi-start Newton alone, no warm start."""
    inputs = [InputPoint(float(x), float(y)) for x in grid.axis1() for y in grid.axis2()]
    return inputs, solve_cells(inputs, cav, cfg, response)


def assert_engine_matches_multistart(grid, cav, cfg, response):
    """The map's counts and regions equal those of multi-start Newton; a cell
    where they differ is solved again on a 60 x 60 seed grid, which must
    agree with the map."""
    bmap = map_domain(grid, cav, response, cfg)
    inputs, results = multistart(grid, cav, cfg, response)
    engine = list(zip(bmap.solution_count.ravel(), bmap.stable_count.ravel(),
                      bmap.region.ravel()))
    want = cell_table(results)
    fine = SolverConfig(seed_grid=60)
    for inp, got, ms in zip(inputs, engine, want):
        if got != ms:
            assert cell_table(solve_cells([inp], cav, fine, response)) == [got], inp
    return bmap, engine, want


@pytest.fixture(scope="module")
def cell_response():
    return CellResponse(AtomParams(), OpticalConstants())


class TestInverseMapEngine:
    """map_domain (inverse-map seeds, one Newton batch) against multi-start
    Newton on every cell of the same grids."""

    def test_sigmoid_stub(self):
        grid = GridSpec(i1_min=0.5, i1_max=20.0, i1_steps=16,
                        i2_min=0.5, i2_max=2.0, i2_steps=4)
        bmap, engine, want = assert_engine_matches_multistart(grid, CAV, CFG,
                                                              SigmoidResponse())
        # the seed grid alone misses the middle roots of two rows
        assert engine != want
        assert bmap.fallback_cells == 0

    def test_default_model_band(self, cell_response):
        grid = GridSpec(i1_min=1.9, i1_max=3.2, i1_steps=20,
                        i2_min=0.012, i2_max=0.2, i2_steps=20)
        bmap, _, _ = assert_engine_matches_multistart(grid, CavityParams(),
                                                      SolverConfig(seed_grid=12),
                                                      cell_response)
        assert bmap.bistable_cells() > 0
        assert bmap.fold_squares > 0
        assert bmap.table_points == domain.TABLE_STEPS ** 2 \
            + bmap.fold_squares * (domain.FOLD_REFINE + 1) ** 2

    def test_no_detuning_window(self):
        response = CellResponse(AtomParams(eps1=0.7, eps2=0.7), OpticalConstants())
        grid = GridSpec(i1_min=0.5, i1_max=20.0, i1_steps=20,
                        i2_min=5e-3, i2_max=2.0, i2_steps=20)
        bmap, _, _ = assert_engine_matches_multistart(grid, CavityParams(),
                                                      SolverConfig(seed_grid=12), response)
        assert bmap.bistable_cells() == 0

    def test_cells_without_root_go_to_fallback(self, monkeypatch):
        """A cell whose seeds gave no root is solved by multi-start Newton."""
        def rootless(I0, *args):
            return [NoSolution(InputPoint(*inp)) for inp in I0]

        monkeypatch.setattr(domain, "_solve_seeded", rootless)
        grid = GridSpec(i1_min=0.5, i1_max=20.0, i1_steps=6,
                        i2_min=0.5, i2_max=2.0, i2_steps=3)
        bmap = map_domain(grid, CAV, SigmoidResponse(), CFG)
        assert bmap.fallback_cells == 18
        _, results = multistart(grid, CAV, CFG, SigmoidResponse())
        assert list(zip(bmap.solution_count.ravel(), bmap.stable_count.ravel(),
                        bmap.region.ravel())) == cell_table(results)

    def test_failed_patch_goes_to_fallback(self, monkeypatch):
        """Nodes with 2.7 <= I2 <= 3 fail. With R2 = 0.5 the root box of a
        cell spans I2_0 to 2 I2_0, so exactly the cells of the column I2_0 =
        2 touch the patch (the next box ends at 2.52, 7% below it)."""

        class Patched(SigmoidResponse):
            def etas(self, I1, I2, jacobian=False):
                out = super().etas(I1, I2, jacobian)
                I2 = np.asarray(I2, dtype=float)
                return out[:2] + (out[2] & ((I2 < 2.7) | (I2 > 3.0)),) + out[3:]

        solved = []

        def recording(inputs, *args, **kwargs):
            solved.extend((inp.I1_0, inp.I2_0) for inp in inputs)
            return solve_cells(inputs, *args, **kwargs)

        monkeypatch.setattr(domain, "solve_cells", recording)
        grid = GridSpec(i1_min=0.5, i1_max=20.0, i1_steps=16,
                        i2_min=0.5, i2_max=2.0, i2_steps=4)
        bmap, _, _ = assert_engine_matches_multistart(grid, CAV, CFG, Patched())
        assert sorted(solved) == sorted((float(x), 2.0) for x in grid.axis1())
        assert bmap.fallback_cells == 16


def synthetic_map(mask, lo=1.0, hi=100.0):
    """BistabilityMap with a prescribed bistable mask for boundary tests."""
    n1, n2 = mask.shape
    grid = GridSpec(i1_min=lo, i1_max=hi, i1_steps=n1,
                    i2_min=lo, i2_max=hi, i2_steps=n2)
    region = np.where(mask, "bistable", "absorbing").astype(object)
    bmap = BistabilityMap(
        grid=grid,
        solution_count=np.where(mask, 3, 1),
        stable_count=np.where(mask, 2, 1),
        region=region,
        min_eta=np.full(mask.shape, 0.05),
        max_eta=np.full(mask.shape, 0.05),
    )
    bmap.boundary = extract_boundary(bmap)
    return bmap


class TestBoundary:
    def test_single_cell(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        bmap = synthetic_map(mask)
        assert len(bmap.boundary) == 1
        chain = bmap.boundary[0]
        assert chain[0] == chain[-1]       # closed
        assert len(chain) == 5             # 4 edges

    def test_chains_are_closed(self, stub_map):
        for chain in stub_map.boundary:
            assert chain[0] == chain[-1]
            assert len(chain) >= 5

    def test_two_blobs_two_chains(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[1:3, 1:3] = True
        mask[5:7, 5:7] = True
        bmap = synthetic_map(mask)
        assert len(bmap.boundary) == 2

    def test_flood_fill_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            mask = rng.random((9, 9)) < 0.35
            bmap = synthetic_map(mask)
            expected = {(int(i), int(j)) for i, j in np.argwhere(mask)}
            assert enclosed_cells(bmap) == expected

    def test_counterclockwise_orientation(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1:4, 1:4] = True
        bmap = synthetic_map(mask)
        chain = np.log(np.array(bmap.boundary[0]))
        x, y = chain[:, 0], chain[:, 1]
        # shoelace: positive signed area = counterclockwise
        area = 0.5 * np.sum(x[:-1] * y[1:] - x[1:] * y[:-1])
        assert area > 0

    def test_empty_mask(self):
        bmap = synthetic_map(np.zeros((4, 4), dtype=bool))
        assert bmap.boundary == []


class TestComparison:
    def test_identical_maps(self, stub_map):
        cmp = compare_domains(stub_map, stub_map)
        assert cmp.symmetric_difference == 0
        assert cmp.differing_cells == []
        assert cmp.bistable_a == cmp.bistable_b

    def test_differing_maps(self):
        a = synthetic_map(np.eye(4, dtype=bool))
        b = synthetic_map(np.zeros((4, 4), dtype=bool))
        cmp = compare_domains(a, b)
        assert cmp.symmetric_difference == 4
        assert cmp.bistable_b == 0
        assert cmp.bbox_a == (0, 3, 0, 3)
        assert cmp.bbox_b is None

    def test_grid_mismatch(self):
        a = synthetic_map(np.zeros((4, 4), dtype=bool))
        b = synthetic_map(np.zeros((5, 5), dtype=bool))
        with pytest.raises(GridMismatch):
            compare_domains(a, b)


class TestEmission:
    def test_row_major_order_and_columns(self, stub_map):
        rows = map_rows(stub_map)
        assert len(rows) == 16 * 4
        assert rows[0][:2] == [0, 0]
        assert rows[1][:2] == [0, 1]
        assert rows[4][:2] == [1, 0]
        assert all(len(r) == 9 for r in rows)

    def test_boundary_rows_indexing(self, stub_map):
        rows = boundary_rows(stub_map)
        assert rows, "stub map must have a boundary"
        chain_ids = sorted({r[0] for r in rows})
        assert chain_ids == list(range(len(stub_map.boundary)))
        first = [r for r in rows if r[0] == 0]
        assert [r[1] for r in first] == list(range(len(first)))
