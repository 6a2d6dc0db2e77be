"""Hysteresis-engine tests on synthetic responses with known switching
behavior, jump detection and loop-area arithmetic on hand-built traces, and
the Newton corrector on a synthetic S-curve and on the exact response."""

import numpy as np
import pytest

from ringob.atom import AtomParams, CellResponse, OpticalConstants
from ringob.feedback import (
    CavityParams,
    InputPoint,
    SolverConfig,
    correct_root,
    find_all_solutions,
    iterate_map,
)
from ringob.sweep import (
    AbscissaMismatch,
    AxisSweep,
    Jump,
    ParametricPath,
    SweepTrace,
    detect_jumps,
    jump_rows,
    loop_area,
    run_sweep,
    trace_rows,
)


class ConstantResponse:
    def __init__(self, eta1=0.5, eta2=0.5):
        self.e1 = eta1
        self.e2 = eta2

    def etas(self, I1, I2, jacobian=False):
        I1 = np.atleast_1d(np.asarray(I1, dtype=float))
        out = (np.full_like(I1, self.e1), np.full_like(I1, self.e2),
               np.isfinite(I1))
        return out + (np.zeros((len(I1), 2, 2)),) if jacobian else out


class SigmoidResponse:
    """S-curve in mode 1 (three coexisting branches in a band of I1_0)."""

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


class FailingResponse:
    """Every evaluation fails (ok is False)."""

    def etas(self, I1, I2, jacobian=False):
        nan = np.full(len(np.atleast_1d(I1)), np.nan)
        out = (nan, nan, np.zeros(len(nan), dtype=bool))
        return out + (np.full((len(nan), 2, 2), np.nan),) if jacobian else out


@pytest.fixture
def iterate_calls(monkeypatch):
    """Records each iterate_map call that run_sweep makes."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return iterate_map(*args, **kwargs)

    monkeypatch.setattr("ringob.sweep.iterate_map", counting)
    return calls


def flat_trace(t, y1, y2, converged=None):
    n = len(t)
    conv = np.ones(n, dtype=bool) if converged is None else np.asarray(converged)
    z = np.zeros(n)
    return SweepTrace(t=np.asarray(t, float), I1_0=z, I2_0=z, I1_in=z, I2_in=z,
                      eta1=z, eta2=z, I1_out=np.asarray(y1, float),
                      I2_out=np.asarray(y2, float), converged=conv)


class TestSpecs:
    def test_axis_samples(self):
        sw = AxisSweep(axis=2, start=1.0, stop=3.0, steps=3, fixed=0.5)
        t, i1, i2 = sw.samples()
        assert np.allclose(t, [0.0, 0.5, 1.0])
        assert np.allclose(i1, 0.5)
        assert np.allclose(i2, [1.0, 2.0, 3.0])

    def test_path_samples_log(self):
        path = ParametricPath(waypoints=[(1.0, 100.0), (100.0, 1.0)],
                              steps=3, log=True)
        t, i1, i2 = path.samples()
        assert np.allclose(i1, [1.0, 10.0, 100.0])
        assert np.allclose(i2, [100.0, 10.0, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            AxisSweep(axis=3, start=0.0, stop=1.0, steps=5, fixed=0.0)
        with pytest.raises(ValueError):
            AxisSweep(axis=1, start=0.0, stop=1.0, steps=1, fixed=0.0)
        with pytest.raises(ValueError):
            ParametricPath(waypoints=[(1.0, 1.0)], steps=5)
        with pytest.raises(ValueError):
            ParametricPath(waypoints=[(0.0, 1.0), (1.0, 1.0)], steps=5, log=True)


class TestJumps:
    def test_detects_step(self):
        t = np.linspace(0, 1, 5)
        y1 = np.array([1.0, 1.0, 1.0, 4.0, 4.0])
        jumps = detect_jumps(flat_trace(t, y1, np.ones(5)))
        assert len(jumps) == 1
        j = jumps[0]
        assert j.output_index == 1
        assert j.t == pytest.approx(0.625)
        assert (j.before, j.after) == (1.0, 4.0)

    def test_threshold_respected(self):
        t = np.linspace(0, 1, 4)
        y = np.array([1.0, 1.4, 1.9, 2.7])   # each step < 50% of the larger
        assert detect_jumps(flat_trace(t, y, np.ones(4))) == []

    def test_skips_unconverged(self):
        t = np.linspace(0, 1, 4)
        y = np.array([1.0, 1.0, 9.0, 9.0])
        conv = np.array([True, True, False, True])
        assert detect_jumps(flat_trace(t, y, np.ones(4), conv)) == []

    def test_near_zero_channel_is_quiet(self):
        # orders-of-magnitude wander far below the channel peak is not a jump
        t = np.linspace(0, 1, 5)
        y2 = np.array([1e-30, 1e-20, 1e-10, 1e-8, 1.0])
        jumps = detect_jumps(flat_trace(t, np.ones(5), y2))
        assert all(j.t > 0.7 for j in jumps if j.output_index == 2)

    def test_fully_absorbed_channel_is_quiet(self):
        # output orders of magnitude below its own drive: never a jump
        t = np.linspace(0, 1, 5)
        tr = flat_trace(t, np.ones(5), np.array([1e-13, 1e-15, 1e-17, 1e-13, 1e-16]))
        tr.I2_0 = np.ones(5)
        assert detect_jumps(tr) == []

    def test_rows(self):
        rows = jump_rows([Jump(t=0.5, output_index=2, before=1.0, after=3.0)])
        assert rows == [[0.5, 2, 1.0, 3.0]]


class TestLoopArea:
    def test_rectangle(self):
        t = np.linspace(0, 1, 11)
        f = flat_trace(t, np.ones(11), np.zeros(11))
        b = flat_trace(t, np.full(11, 3.0), np.zeros(11))
        assert loop_area(f, b, 1) == pytest.approx(2.0)
        assert loop_area(f, b, 2) == pytest.approx(0.0)

    def test_mismatch(self):
        f = flat_trace(np.linspace(0, 1, 5), np.ones(5), np.ones(5))
        b = flat_trace(np.linspace(0, 1, 6), np.ones(6), np.ones(6))
        with pytest.raises(AbscissaMismatch):
            loop_area(f, b, 1)


class TestRunSweep:
    def test_constant_response_no_hysteresis(self):
        sw = AxisSweep(axis=1, start=1.0, stop=4.0, steps=15, fixed=1.0)
        res = run_sweep(sw, CavityParams(R1=0.5, R2=0.5), ConstantResponse())
        assert res.forward.converged.all()
        assert res.jumps_forward == [] and res.jumps_backward == []
        assert res.loop_area_1 == pytest.approx(0.0, abs=1e-9)
        # linear closed form: I_in = I_0 / (1 - R eta)
        assert np.allclose(res.forward.I1_in, res.forward.I1_0 / (1 - 0.25))

    def test_zero_feedback_trivial(self):
        sw = AxisSweep(axis=1, start=1.0, stop=4.0, steps=10, fixed=1.0)
        res = run_sweep(sw, CavityParams(R1=0.0, R2=0.0), ConstantResponse())
        assert np.allclose(res.forward.I1_in, res.forward.I1_0)
        assert res.loop_area_1 == 0.0 and res.loop_area_2 == 0.0
        assert res.jumps_forward == []

    def test_sigmoid_hysteresis(self, iterate_calls):
        cav = CavityParams(R1=0.9, R2=0.5)
        sw = AxisSweep(axis=1, start=1.0, stop=8.0, steps=60, fixed=1.0)
        res = run_sweep(sw, cav, SigmoidResponse())
        ups = [j for j in res.jumps_forward if j.output_index == 1]
        downs = [j for j in res.jumps_backward if j.output_index == 1]
        assert len(ups) == 1 and len(downs) == 1
        assert ups[0].after > ups[0].before
        assert downs[0].t < ups[0].t          # switching hysteresis
        assert res.loop_area_1 > 0
        # one cold start per pass; each jump sample is refused by the corrector
        assert res.fallbacks == 4
        # an accepted root is the sample: only the fallbacks iterate
        assert len(iterate_calls) == res.fallbacks

    def test_failed_cold_start_is_not_retried(self, iterate_calls):
        # every sample starts cold and fails; a retry would repeat the same
        # deterministic iteration from the same start
        sw = AxisSweep(axis=1, start=1.0, stop=2.0, steps=5, fixed=1.0)
        res = run_sweep(sw, CavityParams(), FailingResponse())
        assert not (res.forward.converged.any() or res.backward.converged.any())
        assert np.isnan(res.forward.I1_in).all()
        assert len(iterate_calls) == res.fallbacks == 2 * 5

    def test_backward_on_forward_abscissa(self):
        sw = AxisSweep(axis=1, start=1.0, stop=2.0, steps=7, fixed=1.0)
        res = run_sweep(sw, CavityParams(), ConstantResponse())
        assert np.allclose(res.forward.t, res.backward.t)
        assert np.allclose(res.forward.I1_0, res.backward.I1_0)

    def test_trace_rows_shape(self):
        sw = AxisSweep(axis=1, start=1.0, stop=2.0, steps=4, fixed=1.0)
        res = run_sweep(sw, CavityParams(), ConstantResponse())
        rows = trace_rows(res.forward)
        assert len(rows) == 4
        assert all(len(r) == 10 for r in rows)
        assert all(r[9] == 1 for r in rows)


SIGMOID_CAV = CavityParams(R1=0.9, R2=0.5)


def sigmoid_roots(i1_0):
    """The three operating points (stable, unstable, stable) of the S-curve
    stub at (i1_0, 0.5)."""
    ops = find_all_solutions(InputPoint(i1_0, 0.5), SIGMOID_CAV,
                             SolverConfig(seed_grid=30), SigmoidResponse())
    assert [op.stability for op in ops] == ["stable", "unstable", "stable"]
    return ops


class TestCorrector:
    @pytest.mark.parametrize("i1_0, rho", [(1.5, 1.86), (2.0, 2.39), (2.5, 2.55)])
    def test_iterate_map_converges_on_unstable_root(self, i1_0, rho):
        # started on an unstable root the iteration reports convergence at
        # once: stability comes from the spectral radius, not from iterate_map
        mid = sigmoid_roots(i1_0)[1]
        assert mid.jacobian_radius == pytest.approx(rho, abs=0.01)
        res = iterate_map(InputPoint(i1_0, 0.5), SIGMOID_CAV, SigmoidResponse(),
                          (mid.I1_in, mid.I2_in))
        assert res.converged and res.steps == 1

    @pytest.mark.parametrize("i1_0", [1.5, 2.0, 2.5])
    def test_refuses_unstable_accepts_stable(self, i1_0):
        inp = InputPoint(i1_0, 0.5)
        low, mid, high = sigmoid_roots(i1_0)
        assert correct_root(inp, SIGMOID_CAV, SigmoidResponse(),
                            (mid.I1_in, mid.I2_in), max_move=0.5) is None
        for op in (low, high):
            root, etas = correct_root(inp, SIGMOID_CAV, SigmoidResponse(),
                                      (1.01 * op.I1_in, op.I2_in), max_move=0.5)
            assert root == pytest.approx((op.I1_in, op.I2_in), rel=1e-11)
            # eta of the corrector's last evaluation, at the root itself
            e1, e2, _ = SigmoidResponse().etas([root[0]], [root[1]])
            assert etas.tolist() == [e1[0], e2[0]]

    def test_refuses_a_marginal_root(self):
        # eta = 1 and R = 1 - 5e-7: the one root has round-trip spectral
        # radius 1 - 5e-7, within MARGINAL_BAND of 1, which the operating
        # points call unstable and marginal; the corrector refuses it too
        inp, cav = InputPoint(1.0, 1.0), CavityParams(R1=1 - 5e-7, R2=1 - 5e-7)
        (op,) = find_all_solutions(inp, cav, SolverConfig(), ConstantResponse(1.0, 1.0))
        assert (op.stability, op.marginal) == ("unstable", True)
        assert op.jacobian_radius == pytest.approx(1 - 5e-7, abs=1e-12)
        assert correct_root(inp, cav, ConstantResponse(1.0, 1.0),
                            (1.001 * op.I1_in, 1.001 * op.I2_in), max_move=0.5) is None

    def test_refuses_a_move_beyond_max_move(self):
        inp = InputPoint(2.0, 0.5)
        low = sigmoid_roots(2.0)[0]
        start = (1.3 * low.I1_in, low.I2_in)
        assert correct_root(inp, SIGMOID_CAV, SigmoidResponse(), start,
                            max_move=0.1) is None
        assert correct_root(inp, SIGMOID_CAV, SigmoidResponse(), start,
                            max_move=0.5) is not None

    def test_exact_response_sweep(self):
        # criterion 8's axis sweep through the bistable band, at 40 steps
        response = CellResponse(AtomParams(), OpticalConstants())
        calls = []
        etas = response.etas

        def counting_etas(*args, **kwargs):
            calls.append(1)
            return etas(*args, **kwargs)

        response.etas = counting_etas
        fixed = min(np.geomspace(5e-3, 2.0, 100), key=lambda v: abs(np.log(v / 0.05)))
        cav = CavityParams()
        res = run_sweep(AxisSweep(axis=1, start=1.5, stop=3.5, steps=40,
                                  fixed=float(fixed)), cav, response)
        assert len(calls) <= 7 * 2 * 40
        for tr in (res.forward, res.backward):
            assert tr.converged.all()
            I = np.stack([tr.I1_in, tr.I2_in], axis=1)
            e1, e2, ok = etas(I[:, 0], I[:, 1])
            assert ok.all()
            fixed_point = (np.stack([tr.I1_0, tr.I2_0], axis=1)
                           + np.array([cav.R1, cav.R2]) * np.stack([e1, e2], axis=1) * I)
            assert np.allclose(fixed_point, I, rtol=1e-11, atol=0)
