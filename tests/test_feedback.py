"""Unit tests of the closed feedback system: root finding against analytic
stubs and a dense-grid sign-change oracle, stability classification and the
round-trip iteration."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringob.atom import AtomParams, CellResponse, OpticalConstants
from ringob.feedback import (
    _merge_cells,
    _merge_close,
    _residual_batch,
    CavityParams,
    InputPoint,
    NoSolution,
    SolverConfig,
    classify,
    find_all_solutions,
    iterate_map,
    solve_cells,
    spectral_norm,
    spectral_radius,
)


def residual(inp: InputPoint, cav: CavityParams, candidate, response) -> np.ndarray:
    """Residual 2-vector of the closed feedback system at a candidate point."""
    pts = np.asarray(candidate, dtype=float).reshape(1, 2)
    r, _, ok = _residual_batch(pts, np.array([inp.I1_0, inp.I2_0]), cav, response)
    if not ok[0]:
        raise NoSolution(inp, skipped=1)
    return r[0]


class ConstantResponse:
    """eta_j constant: the closed system is linear with one exact root."""

    def __init__(self, eta1, eta2):
        self.e1 = eta1
        self.e2 = eta2

    def etas(self, I1, I2, jacobian=False):
        I1 = np.atleast_1d(np.asarray(I1, dtype=float))
        ok = np.isfinite(I1)
        out = (np.full_like(I1, self.e1), np.full_like(I1, self.e2), ok)
        return out + (np.zeros((len(I1), 2, 2)),) if jacobian else out


class SigmoidResponse:
    """Saturable transmission in mode 1, constant in mode 2; tuned so that a
    band of inputs supports three roots (classic S-curve)."""

    def __init__(self, center=5.0, width=0.5, lo=0.05, hi=0.95, eta2=0.5):
        self.center = center
        self.width = width
        self.lo = lo
        self.hi = hi
        self.e2 = eta2

    def etas(self, I1, I2, jacobian=False):
        I1 = np.atleast_1d(np.asarray(I1, dtype=float))
        I2 = np.atleast_1d(np.asarray(I2, dtype=float))
        I1, I2 = np.broadcast_arrays(I1, I2)
        s = 1.0 / (1.0 + np.exp(-(I1 - self.center) / self.width))
        e1 = self.lo + (self.hi - self.lo) * s
        ok = np.isfinite(I1) & np.isfinite(I2)
        if not jacobian:
            return e1, np.full_like(e1, self.e2), ok
        deta = np.zeros((len(e1), 2, 2))
        deta[:, 0, 0] = (self.hi - self.lo) * s * (1.0 - s) / self.width
        return e1, np.full_like(e1, self.e2), ok, deta


def dense_grid_root_count(inp, cav, response, lo, hi, n=400):
    """Oracle: cells of a dense log grid where both residual components change
    sign, merged into connected clusters."""
    a1 = np.geomspace(lo[0], hi[0], n)
    a2 = np.geomspace(lo[1], hi[1], n)
    g1, g2 = np.meshgrid(a1, a2, indexing="ij")
    e1, e2, ok = response.etas(g1.ravel(), g2.ravel())
    r1 = (g1.ravel() * (1.0 - cav.R1 * e1) - inp.I1_0).reshape(n, n)
    r2 = (g2.ravel() * (1.0 - cav.R2 * e2) - inp.I2_0).reshape(n, n)

    def straddles(r):
        c = np.stack([r[:-1, :-1], r[1:, :-1], r[:-1, 1:], r[1:, 1:]])
        return (c.min(axis=0) <= 0) & (c.max(axis=0) >= 0)

    cells = straddles(r1) & straddles(r2)
    # count 4-connected clusters
    seen = np.zeros_like(cells)
    count = 0
    for i, j in zip(*np.nonzero(cells)):
        if seen[i, j]:
            continue
        count += 1
        stack = [(i, j)]
        seen[i, j] = True
        while stack:
            a, b = stack.pop()
            for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                x, y = a + da, b + db
                if 0 <= x < cells.shape[0] and 0 <= y < cells.shape[1] \
                        and cells[x, y] and not seen[x, y]:
                    seen[x, y] = True
                    stack.append((x, y))
    return count


class TestClosedForms:
    @given(st.floats(0.0, 0.99), st.floats(0.0, 0.99),
           st.floats(1e-4, 1e-2).map(lambda x: x * 1e2))
    @settings(max_examples=40, deadline=None)
    def test_spectral_norm_vs_svd(self, a, b, c):
        M = np.array([[a, b], [c, a * b - 0.3]])
        assert spectral_norm(M) == pytest.approx(np.linalg.svd(M)[1][0], abs=1e-12)

    def test_spectral_norm_shear(self):
        # known closed form for [[1, 1], [0, 1]]
        assert spectral_norm(np.array([[1.0, 1.0], [0.0, 1.0]])) == pytest.approx(
            np.sqrt((3.0 + np.sqrt(5.0)) / 2.0), rel=1e-14)

    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
    @example(-1.0, -1.0, -9.817615387886967e-18, -1.0)  # nearly defective
    @settings(max_examples=60, deadline=None)
    def test_spectral_radius_vs_eig(self, a, b, c, d):
        M = np.array([[a, b], [c, d]])
        assert spectral_radius(M) == pytest.approx(
            float(np.abs(np.linalg.eigvals(M)).max()), abs=1e-10)

    def test_classify_bands(self):
        assert classify(0.5) == ("stable", False)
        assert classify(1.5) == ("unstable", False)
        assert classify(1.0 + 1e-9) == ("unstable", True)


class TestConstantResponse:
    def test_single_exact_root(self):
        response = ConstantResponse(0.4, 0.7)
        cav = CavityParams(R1=0.5, R2=0.25)
        inp = InputPoint(2.0, 3.0)
        ops = find_all_solutions(inp, cav, SolverConfig(seed_grid=8), response)
        assert len(ops) == 1
        assert ops[0].I1_in == pytest.approx(2.0 / (1 - 0.5 * 0.4), rel=1e-10)
        assert ops[0].I2_in == pytest.approx(3.0 / (1 - 0.25 * 0.7), rel=1e-10)
        assert ops[0].stability == "stable"

    def test_zero_feedback_exact(self):
        response = ConstantResponse(0.3, 0.3)
        ops = find_all_solutions(InputPoint(1.7, 0.9), CavityParams(0.0, 0.0),
                                 SolverConfig(), response)
        assert len(ops) == 1
        assert ops[0].I1_in == 1.7
        assert ops[0].I2_in == 0.9
        assert ops[0].I1_out == pytest.approx(1.7 * 0.3)

    def test_residual_helper(self):
        response = ConstantResponse(0.4, 0.7)
        cav = CavityParams(R1=0.5, R2=0.25)
        inp = InputPoint(2.0, 3.0)
        root = (2.0 / 0.8, 3.0 / 0.825)
        r = residual(inp, cav, root, response)
        assert np.abs(r).max() < 1e-12


class TestSigmoidResponse:
    CAV = CavityParams(R1=0.9, R2=0.5)

    def find(self, i1_0, i2_0):
        return find_all_solutions(InputPoint(i1_0, i2_0), self.CAV,
                                  SolverConfig(seed_grid=16),
                                  SigmoidResponse())

    def test_three_roots_in_band(self):
        # frozen: S-curve band of the sigmoid stub
        ops = self.find(3.2, 1.0)
        assert len(ops) == 3
        labels = [op.stability for op in ops]
        assert labels == ["stable", "unstable", "stable"]

    def test_oracle_agrees_on_count(self):
        inp = InputPoint(3.2, 1.0)
        lo = np.array([3.2e-3, 1e-3])
        hi = np.array([3.2 / 0.1 * 1.05, 1.0 / 0.5 * 1.05])
        assert dense_grid_root_count(inp, self.CAV, SigmoidResponse(), lo, hi) == 3

    def test_single_root_outside_band(self):
        assert len(self.find(0.5, 1.0)) == 1
        assert len(self.find(20.0, 1.0)) == 1

    def test_roots_sorted_and_verified(self):
        ops = self.find(3.2, 1.0)
        i1 = [op.I1_in for op in ops]
        assert i1 == sorted(i1)
        assert all(op.residual < 1e-8 for op in ops)

    def test_iteration_converges_to_stable(self):
        inp = InputPoint(3.2, 1.0)
        ops = self.find(3.2, 1.0)
        low, mid, high = ops
        for op in (low, high):
            res = iterate_map(inp, self.CAV, SigmoidResponse(),
                              (op.I1_in * 1.001, op.I2_in * 1.001))
            assert res.converged
            assert res.point[0] == pytest.approx(op.I1_in, rel=1e-6)
        # the middle root repels: perturbation lands on an outer root
        res = iterate_map(inp, self.CAV, SigmoidResponse(),
                          (mid.I1_in * 1.01, mid.I2_in))
        assert res.converged
        assert abs(res.point[0] - mid.I1_in) / mid.I1_in > 1e-3


@pytest.fixture(scope="module")
def response():
    return CellResponse(AtomParams(), OpticalConstants())


class TestRealResponse:
    """Frozen reference points of the physical cell (defaults: R = 0.6,
    eps1 = -eps2 = 0.7)."""

    def test_frozen_three_root_point(self, response):
        ops = find_all_solutions(InputPoint(2.56, 0.05), CavityParams(),
                                 SolverConfig(seed_grid=12), response)
        assert len(ops) == 3
        assert [op.stability for op in ops] == ["stable", "unstable", "stable"]
        assert ops[0].I1_in == pytest.approx(3.0174654, rel=1e-5)
        assert ops[1].I1_in == pytest.approx(3.5957046, rel=1e-5)
        assert ops[2].I1_in == pytest.approx(5.8553625, rel=1e-5)

    def test_one_loop_fewer_roots(self, response):
        ops = find_all_solutions(InputPoint(2.56, 0.05), CavityParams(R1=0.0, R2=0.6),
                                 SolverConfig(seed_grid=12), response)
        assert len(ops) == 1

    def test_stalled_starts_stop_early(self, response):
        """Some seeds of this input wander without converging. They stop
        once they make no progress, instead of running all 40 Newton
        iterations (83 response calls without the stagnation exit, 27 with)."""
        calls = []

        class Counting:
            def etas(self, I1, I2, jacobian=False):
                calls.append(len(np.atleast_1d(I1)))
                return response.etas(I1, I2, jacobian=jacobian)

        ops = find_all_solutions(InputPoint(1.9, 0.0179), CavityParams(),
                                 SolverConfig(seed_grid=12), Counting())
        assert len(ops) == 1
        assert len(calls) < 40

    def test_warm_start_equivalence(self, response):
        inp = InputPoint(2.56, 0.05)
        cfg = SolverConfig(seed_grid=12)
        cold = find_all_solutions(inp, CavityParams(), cfg, response)
        warm = find_all_solutions(inp, CavityParams(), cfg, response,
                                  extra_seeds=[(op.I1_in, op.I2_in) for op in cold])
        assert len(cold) == len(warm)
        for a, b in zip(cold, warm):
            assert a.I1_in == pytest.approx(b.I1_in, rel=1e-8)


class TestValidation:
    def test_reflectivity_bounds(self):
        with pytest.raises(ValueError):
            CavityParams(R1=1.0)
        with pytest.raises(ValueError):
            CavityParams(R2=-0.1)

    def test_negative_input(self):
        with pytest.raises(ValueError):
            InputPoint(-1.0, 0.0)

    def test_solver_config_bounds(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(dedup_radius=1e-12, tol=1e-10)

    def test_no_solution_reports_input(self):
        class Broken:
            def etas(self, I1, I2, jacobian=False):
                I1 = np.atleast_1d(np.asarray(I1, dtype=float))
                nan = np.full_like(I1, np.nan)
                out = nan, nan, np.zeros_like(I1, dtype=bool)
                return out + (np.full((len(I1), 2, 2), np.nan),) if jacobian else out

        with pytest.raises(NoSolution):
            find_all_solutions(InputPoint(1.0, 1.0), CavityParams(),
                               SolverConfig(seed_grid=6), Broken())

    def test_iterate_requires_positive_start(self):
        with pytest.raises(ValueError):
            iterate_map(InputPoint(1.0, 1.0), CavityParams(),
                        ConstantResponse(0.5, 0.5), (0.0, 1.0))


class TestMergeClose:
    def test_keeps_first_of_each_cluster(self):
        pts = np.array([[1.0, 1.0], [2.0, 1.0], [1.0 + 5e-5, 1.0], [2.0, 1.0 - 5e-5]])
        np.testing.assert_array_equal(_merge_close(pts, 1e-4), [0, 1])

    def test_deduplicates_beyond_premerge(self):
        # 3000 distinct points, plus a partner for every tenth one that lies
        # within the radius but across a bucket edge of the rounded-log
        # pre-merge, so only the exact pass can drop it
        radius = 1e-4
        width = 4.0 * radius
        k1 = np.arange(3000) * 10 + 7
        edge = np.exp(np.stack([k1 * width, np.full(3000, 5 * width)], axis=1))
        distinct = edge * (1.0 + 0.1 * radius)
        partners = edge[::10] * (1.0 - 0.1 * radius)
        pts = np.concatenate([distinct, partners])
        keys = np.floor(np.log(pts) / width)
        assert len(np.unique(keys, axis=0)) > 2048
        assert (keys[3000:, 0] != keys[:3000:10, 0]).all()
        np.testing.assert_array_equal(_merge_close(pts, radius), np.arange(3000))


class TestMergeCells:
    def test_each_cell_merged_alone(self):
        """Cells drawn from the same clusters, two of them above the
        256-point pre-merge threshold: each cell keeps what _merge_close keeps
        of its own points, and no point is dropped for a point of another cell."""
        rng = np.random.default_rng(11)
        radius = 1e-4
        centres = np.exp(rng.uniform(-3, 3, (80, 2)))
        sizes = (40, 600, 1, 120, 300)
        pts = centres[rng.integers(0, len(centres), sum(sizes))]
        pts = pts * np.exp(rng.normal(0.0, radius, pts.shape))
        cell = np.repeat(np.arange(len(sizes)), sizes)
        first = np.r_[0, np.cumsum(sizes)]
        expected = np.concatenate([first[c] + _merge_close(pts[cell == c], radius)
                                   for c in range(len(sizes))])
        got = _merge_cells(pts, radius, cell)
        np.testing.assert_array_equal(got, expected)
        assert len(got) < len(pts)


def assert_same_results(batched, single):
    for got, want in zip(batched, single):
        if isinstance(want, NoSolution):
            assert isinstance(got, NoSolution) and str(got) == str(want)
        else:
            assert got == want       # every field, bit for bit, same order


def one_cell(inp, cav, cfg, response, seeds):
    try:
        return find_all_solutions(inp, cav, cfg, response, extra_seeds=seeds)
    except NoSolution as exc:
        return exc


class TestSolveCells:
    def test_acceptance_row_matches_one_cell_solves(self, response):
        """Row I1_0 = 2.674 of the 12x12 acceptance window (one three-root
        cell), warm-started from the row below as the map does."""
        cav, cfg = CavityParams(), SolverConfig(seed_grid=12)
        a1, a2 = np.geomspace(0.5, 20.0, 12), np.geomspace(5e-3, 2.0, 12)
        below = solve_cells([InputPoint(float(a1[4]), float(v)) for v in a2], cav, cfg,
                            response)
        seeds = [[(op.I1_in, op.I2_in) for op in ops] for ops in below]
        inputs = [InputPoint(float(a1[5]), float(v)) for v in a2]
        batched = solve_cells(inputs, cav, cfg, response, seeds)
        assert [len(ops) for ops in batched].count(3) == 1
        assert_same_results(batched, [one_cell(inp, cav, cfg, response, s)
                                      for inp, s in zip(inputs, seeds)])

    def test_failed_cell_leaves_others(self):
        """A stub that fails below I2 = 1: the cell whose root lies there has
        no solution, the others keep their three roots."""

        class Gapped(SigmoidResponse):
            def etas(self, I1, I2, jacobian=False):
                out = super().etas(I1, I2, jacobian)
                return out[:2] + (out[2] & (np.asarray(I2) >= 1.0),) + out[3:]

        cav, cfg = CavityParams(R1=0.9, R2=0.5), SolverConfig(seed_grid=16)
        inputs = [InputPoint(3.2, v) for v in (0.5, 1.0, 2.0, 4.0)]
        seeds = [None, [(3.5, 1.4)], None, [(4.0, 5.3), (9.0, 5.3)]]
        batched = solve_cells(inputs, cav, cfg, Gapped(), seeds)
        assert isinstance(batched[0], NoSolution)
        assert [len(ops) for ops in batched[1:]] == [3, 3, 3]
        assert_same_results(batched, [one_cell(inp, cav, cfg, Gapped(), s)
                                      for inp, s in zip(inputs, seeds)])
