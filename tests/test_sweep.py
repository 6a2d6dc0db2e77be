"""Hysteresis-engine tests on synthetic responses with known switching
behavior, plus jump detection and loop-area arithmetic on hand-built
traces."""

import numpy as np
import pytest

from ringob.feedback import CavityParams
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

    def test_sigmoid_hysteresis(self):
        cav = CavityParams(R1=0.9, R2=0.5)
        sw = AxisSweep(axis=1, start=1.0, stop=8.0, steps=60, fixed=1.0)
        res = run_sweep(sw, cav, SigmoidResponse())
        ups = [j for j in res.jumps_forward if j.output_index == 1]
        downs = [j for j in res.jumps_backward if j.output_index == 1]
        assert len(ups) == 1 and len(downs) == 1
        assert ups[0].after > ups[0].before
        assert downs[0].t < ups[0].t          # switching hysteresis
        assert res.loop_area_1 > 0

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
