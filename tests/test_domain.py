"""Domain-mapper tests on a synthetic cell response whose bistable set is
known analytically, plus boundary-extraction checks against a flood-fill
oracle."""

import numpy as np
import pytest

from ringob import domain
from ringob.domain import (
    BistabilityMap,
    GridMismatch,
    GridSpec,
    boundary_rows,
    compare_domains,
    extract_boundary,
    map_domain,
    map_rows,
)
from ringob.feedback import CavityParams, SolverConfig


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

    def test_uneven_groups(self, monkeypatch):
        # a 7-cell row splits into groups of 3, 2 and 2 cells on 3 threads,
        # whatever the CPU count of the machine running the test
        monkeypatch.setattr(domain.os, "cpu_count", lambda: 4)
        grid = GridSpec(i1_min=0.5, i1_max=20.0, i1_steps=8,
                        i2_min=0.5, i2_max=2.0, i2_steps=7)
        m1 = map_domain(grid, CAV, SigmoidResponse(), CFG, threads=1)
        m3 = map_domain(grid, CAV, SigmoidResponse(), CFG, threads=3)
        assert m1.bistable_cells() > 0
        assert map_rows(m1) == map_rows(m3)
        assert boundary_rows(m1) == boundary_rows(m3)

    def test_groups_at_most_one_per_cpu(self, monkeypatch):
        workers = []

        class Pool(domain.ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(domain, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(domain.os, "cpu_count", lambda: 3)
        grid = GridSpec(i1_min=0.5, i1_max=20.0, i1_steps=2,
                        i2_min=0.5, i2_max=2.0, i2_steps=7)
        for threads in (8, 0):
            map_domain(grid, CAV, SigmoidResponse(), CFG, threads=threads)
        assert workers == [3, domain.DEFAULT_GROUPS]

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

    @pytest.mark.parametrize("threads", [1, 2])
    def test_programming_error_propagates(self, threads):
        class Raising:
            def etas(self, I1, I2, jacobian=False):
                raise RuntimeError("bug in the response")

        grid = GridSpec(i1_min=1.0, i1_max=2.0, i1_steps=2,
                        i2_min=1.0, i2_max=2.0, i2_steps=2)
        with pytest.raises(RuntimeError, match="bug in the response"):
            map_domain(grid, CAV, Raising(), CFG, threads=threads)


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
