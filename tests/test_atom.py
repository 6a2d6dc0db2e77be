"""Unit tests of the atomic steady state, susceptibility and the closed-form
two-level expressions. Reference values come from independent oracles
(nullspace of the full superoperator, dense eigen-decompositions)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringob import atom as atom_module
from ringob.atom import (
    ApproxCellResponse,
    AtomParams,
    BranchPoint,
    CellResponse,
    DegenerateDenominator,
    DriveParams,
    OpticalConstants,
    SingularSteadyState,
    SteadyStateProblem,
    ZeroDrive,
    absorption_factor,
    apply_relaxation,
    build_hamiltonian,
    density_matrix,
    steady_state,
    susceptibility,
    two_level_im_rho12,
    two_level_im_rho32,
)

finite = st.floats(-5.0, 5.0, allow_nan=False)
rate = st.floats(0.05, 5.0, allow_nan=False)


def lindblad_atom(eps1, eps2, g21, g23, k1=0.0, k2=0.0, k3=0.0):
    """AtomParams with dephasings consistent with population decay."""
    gamma = np.zeros((3, 3))
    gamma[1, 0] = g21
    gamma[1, 2] = g23
    half = 0.5 * (g21 + g23)
    Gamma = np.array([
        [0.0, half + k1 + k2, k1 + k3],
        [half + k1 + k2, 0.0, half + k2 + k3],
        [k1 + k3, half + k2 + k3, 0.0],
    ])
    return AtomParams(eps1=eps1, eps2=eps2, gamma=gamma, Gamma=Gamma)


class TestHamiltonian:
    def test_default_detunings_diagonal(self):
        atom = AtomParams()   # eps1 = 0.7, eps2 = -0.7
        H = build_hamiltonian(atom, DriveParams(0.0, 0.0))
        assert np.allclose(np.diag(H), [0.0, 0.7, -1.4])

    def test_coupling_layout(self):
        H = build_hamiltonian(AtomParams(eps1=0.0, eps2=0.0), DriveParams(1.5, 2.5))
        expected = np.array([
            [0.0, 1.5, 0.0],
            [1.5, 0.0, 2.5],
            [0.0, 2.5, 0.0],
        ])
        assert np.allclose(H, expected)

    def test_hermitian(self):
        H = build_hamiltonian(AtomParams(eps1=1.0, eps2=-2.0), DriveParams(0.3, 0.8))
        assert np.allclose(H, H.conj().T)

    def test_no_direct_1_3_coupling(self):
        H = build_hamiltonian(AtomParams(), DriveParams(1.0, 1.0))
        assert H[0, 2] == 0.0 and H[2, 0] == 0.0


class TestRelaxation:
    @given(finite, finite, rate, rate,
           st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_trace_preserving(self, eps1, eps2, g21, g23, entries):
        atom = lindblad_atom(eps1, eps2, g21, g23)
        a, b, c, d, e, f = entries
        rho = np.array([
            [a, b + 1j * c, d],
            [b - 1j * c, e, f],
            [d, f, 1.0 - a - e],
        ], dtype=complex)
        out = apply_relaxation(rho, atom)
        assert abs(np.trace(out)) < 1e-12

    def test_population_flow_direction(self):
        # all population in |2>: it must decay into |1> and |3>
        atom = AtomParams()
        rho = np.zeros((3, 3), dtype=complex)
        rho[1, 1] = 1.0
        out = apply_relaxation(rho, atom)
        assert out[1, 1].real < 0
        assert out[0, 0].real > 0 and out[2, 2].real > 0

    def test_coherence_damping(self):
        atom = AtomParams()
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 1] = rho[1, 0] = 0.5
        out = apply_relaxation(rho, atom)
        assert out[0, 1].real == pytest.approx(-0.5 * 0.5)


def nullspace_steady_state(atom, drive):
    """Independent oracle: smallest singular vector of the full generator."""
    problem = SteadyStateProblem(atom)
    M = problem.full_matrix(drive.omega1, drive.omega2)
    _, _, vh = np.linalg.svd(M)
    vec = vh[-1].conj()
    rho = vec.reshape(3, 3)
    rho = rho / np.trace(rho)
    return rho


class TestSteadyState:
    def test_matches_nullspace_oracle(self):
        atom = AtomParams()
        drive = DriveParams(1.0, 0.5)
        dm = steady_state(atom, drive)
        oracle = nullspace_steady_state(atom, drive)
        assert np.abs(dm.rho - oracle).max() < 1e-12

    def test_residual_trace_hermiticity(self):
        atom = lindblad_atom(0.7, -0.7, 3.0, 3.0)
        dm = steady_state(atom, DriveParams(2.0, 0.3))
        assert dm.residual < 1e-10
        assert dm.trace_defect < 1e-10
        assert dm.hermiticity_defect < 1e-10
        assert dm.min_eigenvalue > -1e-8

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
           st.floats(0.05, 3.0), st.floats(0.05, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_physicality_lindblad(self, eps1, eps2, om1, om2):
        atom = lindblad_atom(eps1, eps2, 2.0, 1.0, k1=0.1, k2=0.2, k3=0.05)
        dm = steady_state(atom, DriveParams(om1, om2))
        assert dm.residual < 1e-10
        assert dm.min_eigenvalue > -1e-8

    def test_singular_without_drive(self):
        # Omega = 0 with no ground-state mixing: steady state not unique
        atom = AtomParams()
        with pytest.raises(SingularSteadyState) as err:
            steady_state(atom, DriveParams(0.0, 0.0))
        assert err.value.cond > 1e12

    def test_batch_agrees_with_scalar(self):
        atom = AtomParams()
        problem = SteadyStateProblem(atom)
        om1 = np.array([0.5, 1.0, 2.0])
        om2 = np.array([0.2, 1.0, 0.1])
        x, res, ok = problem.solve_batch(om1, om2)
        rho = density_matrix(x)
        assert ok.all()
        for k in range(3):
            dm = steady_state(atom, DriveParams(float(om1[k]), float(om2[k])))
            assert np.abs(rho[k] - dm.rho).max() < 1e-12
            assert res[k] < 1e-10

    def test_batch_independent_of_chunking(self, monkeypatch):
        """2,000 points in one call, point by point and in chunks of 7 or
        4,096 give the same bits, also around a singular point whose chunk
        falls back to per-point solves; all match the null-space oracle."""
        atom = AtomParams()
        problem = SteadyStateProblem(atom)
        rng = np.random.default_rng(3)
        om1, om2 = np.exp(rng.uniform(np.log(0.05), np.log(10.0), (2, 2000)))
        om1[7] = om2[7] = 0.0
        whole = problem.solve_batch(om1, om2, jacobian=True)
        assert whole[2].sum() == 1999 and not whole[2][7]
        single = [problem.solve_batch(om1[k:k + 1], om2[k:k + 1], jacobian=True)
                  for k in range(2000)]
        for a, parts in zip(whole, zip(*single)):
            np.testing.assert_array_equal(a, np.concatenate(parts))
        for chunk in (7, 4096):
            monkeypatch.setattr(atom_module, "_CHUNK", chunk)
            for a, b in zip(whole, problem.solve_batch(om1, om2, jacobian=True)):
                np.testing.assert_array_equal(a, b)
        rho = density_matrix(whole[0])
        for k in np.nonzero(whole[2])[0]:
            oracle = nullspace_steady_state(atom, DriveParams(om1[k], om2[k]))
            assert np.abs(rho[k] - oracle).max() < 1e-12

    def test_gauge_symmetry_sign_flip(self):
        # |rho| entries are invariant under Omega_1 -> -Omega_1 is not
        # meaningful for intensities; instead swap-symmetric parameters must
        # produce the mirrored state
        atom = AtomParams(eps1=0.0, eps2=0.0)
        dm_ab = steady_state(atom, DriveParams(1.3, 0.4))
        atom_sw = AtomParams(eps1=0.0, eps2=0.0,
                             gamma=atom.gamma[::-1, ::-1].copy(),
                             Gamma=atom.Gamma[::-1, ::-1].copy())
        dm_ba = steady_state(atom_sw, DriveParams(0.4, 1.3))
        P = np.eye(3)[::-1]
        assert np.abs(dm_ab.rho - P @ dm_ba.rho @ P).max() < 1e-10


class TestCoherenceBalance:
    def test_population_balance_identity(self):
        """Im rho_21 = -gamma_21 rho_22 / (2 Omega_1), same for mode 2."""
        atom = AtomParams()
        drive = DriveParams(1.7, 0.6)
        dm = steady_state(atom, drive)
        g21 = atom.gamma[1, 0]
        g23 = atom.gamma[1, 2]
        p22 = dm.rho[1, 1].real
        assert dm.rho[1, 0].imag == pytest.approx(-g21 * p22 / (2 * drive.omega1), rel=1e-9)
        assert dm.rho[1, 2].imag == pytest.approx(-g23 * p22 / (2 * drive.omega2), rel=1e-9)

    def test_ratio_equal_rates(self):
        atom = AtomParams()
        drive = DriveParams(0.5, 2.0)
        dm = steady_state(atom, drive)
        ratio = dm.rho[1, 0].imag / dm.rho[1, 2].imag
        assert ratio == pytest.approx(drive.omega2 / drive.omega1, rel=1e-9)


class TestSusceptibility:
    def test_absorptive_sign(self):
        atom = AtomParams()
        drive = DriveParams(1.0, 1.0)
        dm = steady_state(atom, drive)
        constants = OpticalConstants()
        for mode in (1, 2):
            chi = susceptibility(dm, drive, constants, mode)
            assert chi.imag < 0

    def test_zero_drive_raises(self):
        atom = AtomParams()
        dm = steady_state(atom, DriveParams(1.0, 1.0))
        with pytest.raises(ZeroDrive):
            susceptibility(dm, DriveParams(0.0, 1.0), OpticalConstants(), 1)

    def test_absorption_factor_passive(self):
        res = absorption_factor(-1e-6j, OpticalConstants())
        assert 0 < res.eta < 1
        assert not res.gain

    def test_absorption_factor_gain_flag(self):
        res = absorption_factor(+1e-6j, OpticalConstants())
        assert res.eta > 1
        assert res.gain

    def test_transparent_limit(self):
        res = absorption_factor(0.0 + 0.0j, OpticalConstants())
        assert res.eta == pytest.approx(1.0)

    def test_branch_point(self):
        with pytest.raises(BranchPoint):
            absorption_factor(-1.0 / (4.0 * np.pi), OpticalConstants())

    def test_coupling_override(self):
        c = OpticalConstants(C1=2.0, C2=3.0)
        assert c.coupling(1) == 2.0
        assert c.coupling(2) == 3.0

    def test_include_length(self):
        with_l = OpticalConstants(include_length=True)
        without = OpticalConstants(include_length=False)
        chi = -1e-7j
        e1 = absorption_factor(chi, with_l).eta
        e2 = absorption_factor(chi, without).eta
        # L = 5 cm multiplies the exponent
        assert np.log(e1) == pytest.approx(5.0 * np.log(e2), rel=1e-9)


class TestTwoLevelForms:
    @given(st.floats(0.1, 4.0), st.floats(0.1, 4.0), st.floats(-2.0, 2.0),
           rate, rate, rate)
    @settings(max_examples=100, deadline=None)
    def test_identity_between_forms(self, om1, om2, delta, g21, g23, G21):
        try:
            lhs = two_level_im_rho32(om1, om2, delta, g21, g23, G21)
            rhs = two_level_im_rho12(om1, om2, delta, g21, G21) * g21 * om1 / (g23 * om2)
        except DegenerateDenominator:
            return
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_pole_raises(self):
        # denominator zero: 4 om1^2 G = g ((om2-d)^2 + G^2)
        g21, G21, delta = 1.0, 1.0, 0.0
        om2 = 1.0
        om1 = np.sqrt(g21 * ((om2 - delta) ** 2 + G21**2) / (4 * G21))
        with pytest.raises(DegenerateDenominator):
            two_level_im_rho12(float(om1), om2, delta, g21, G21)

    def test_frozen_value(self):
        # default rates, on-resonance mode 2
        val = two_level_im_rho12(1.0, 0.7, 0.7, 3.0, 0.5)
        # 1*3*0.5 / (4*1*0.5 - 3*(0^2+0.25)) = 1.5/1.25
        assert val == pytest.approx(1.2, rel=1e-12)


class TestCellResponse:
    def test_etas_flag_nonpositive(self):
        resp = CellResponse(AtomParams(), OpticalConstants())
        e1, e2, ok = resp.etas([1.0, 0.0, -1.0], [1.0, 1.0, 1.0])
        assert ok.tolist() == [True, False, False]
        assert np.isnan(e1[1]) and np.isnan(e2[2])

    def test_eta_bounds(self):
        resp = CellResponse(AtomParams(), OpticalConstants())
        e1, e2, ok = resp.etas(np.geomspace(0.01, 100, 20), np.geomspace(0.01, 100, 20))
        assert ok.all()
        assert (e1 > 0).all() and (e2 > 0).all()
        assert (e1 <= 1.0 + 1e-12).all()

    def test_approx_fails_where_closed_form_has_gain_sign(self):
        # the two-level denominator is negative here: the closed form gives
        # Im rho_21 > 0 (gain, eta ~ 1e34) where the exact value is < 0
        resp = ApproxCellResponse(AtomParams(), OpticalConstants())
        _, _, ok = resp.etas(0.01, 0.05)
        assert not ok[0]
        exact = CellResponse(AtomParams(), OpticalConstants())
        assert exact.coherences(np.array([0.1]), np.sqrt([0.05]))[0][0, 0].imag < 0

    def test_strong_drive_transparency(self):
        # saturated transition: eta_1 approaches 1 at very strong drive
        resp = CellResponse(AtomParams(), OpticalConstants())
        e1, _, ok = resp.etas([1e6], [1e6])
        assert ok[0]
        assert e1[0] > 0.99


def window_internal_points(n=200, seed=7):
    """Log-uniform internal intensities over the acceptance window's reach:
    I_j0 in [0.5, 20] x [5e-3, 2] builds up to I_j0 / (1 - R_j) at R = 0.6."""
    rng = np.random.default_rng(seed)
    I1 = np.exp(rng.uniform(np.log(0.5), np.log(20.0 / 0.4), n))
    I2 = np.exp(rng.uniform(np.log(5e-3), np.log(2.0 / 0.4), n))
    return I1, I2


def central_differences(resp, I1, I2, rel_step=1e-6):
    """d eta_i / d I_j by central differences, shape (n, 2, 2), and where all
    four neighbours evaluated ok."""
    fd = np.empty((len(I1), 2, 2))
    ok = np.ones(len(I1), dtype=bool)
    for j in range(2):
        h = rel_step * (I1, I2)[j]
        plus, minus = [I1.copy(), I2.copy()], [I1.copy(), I2.copy()]
        plus[j] += h
        minus[j] -= h
        p1, p2, okp = resp.etas(*plus)
        m1, m2, okm = resp.etas(*minus)
        fd[:, 0, j] = (p1 - m1) / (2.0 * h)
        fd[:, 1, j] = (p2 - m2) / (2.0 * h)
        ok &= okp & okm
    return fd, ok


class TestEtaJacobian:
    """Exact d(eta)/dI of the shared eta path against central differences.

    The difference step 1e-6 relative leaves errors up to about 4e-6 of each
    row's largest entry on these points, hence the bound 1e-4; a missing or
    wrong chain-rule term is an O(1) error.
    """

    @pytest.mark.parametrize("cls", [CellResponse, ApproxCellResponse])
    def test_matches_central_differences(self, cls):
        resp = cls(AtomParams(), OpticalConstants())
        I1, I2 = window_internal_points()
        e1, e2, ok, deta = resp.etas(I1, I2, jacobian=True)
        fd, ok_fd = central_differences(resp, I1, I2)
        # below the e^100 gain cap, also at the difference neighbours
        uncapped = np.stack([e1, e2], axis=1).max(axis=1) < np.exp(99.0)
        use = ok & ok_fd & uncapped
        assert use.sum() >= 100
        row_scale = np.maximum(np.abs(fd), np.abs(deta)).max(axis=2, keepdims=True)
        err = np.abs(deta - fd) / np.maximum(row_scale, 1e-300)
        assert err[use].max() < 1e-4
        assert np.median(err[use]) < 1e-7

    @pytest.mark.parametrize("cls", [CellResponse, ApproxCellResponse])
    def test_values_unchanged_by_jacobian(self, cls):
        resp = cls(AtomParams(), OpticalConstants())
        I1, I2 = window_internal_points()
        I1 = np.concatenate([I1, [0.0, -1.0, 1.0]])
        I2 = np.concatenate([I2, [1.0, 1.0, np.nan]])
        e1, e2, ok, deta = resp.etas(I1, I2, jacobian=True)
        f1, f2, ok_plain = resp.etas(I1, I2)
        np.testing.assert_array_equal(ok, ok_plain)
        np.testing.assert_allclose(e1, f1, rtol=1e-14)
        np.testing.assert_allclose(e2, f2, rtol=1e-14)
        assert np.isnan(deta[~ok]).all()
        assert np.isfinite(deta[ok]).all()


class TestValidation:
    def test_gamma_shape(self):
        with pytest.raises(ValueError):
            AtomParams(gamma=np.zeros((2, 2)))

    def test_negative_rate(self):
        g = np.zeros((3, 3))
        g[1, 0] = -1.0
        with pytest.raises(ValueError):
            AtomParams(gamma=g)

    def test_asymmetric_big_gamma(self):
        G = np.zeros((3, 3))
        G[0, 1] = 1.0
        with pytest.raises(ValueError):
            AtomParams(Gamma=G)

    def test_negative_drive(self):
        with pytest.raises(ValueError):
            DriveParams(-1.0, 0.0)

    def test_constants_positive(self):
        with pytest.raises(ValueError):
            OpticalConstants(L=-1.0)
