"""Three-level Lambda atom: rotating-frame Hamiltonian, relaxation, stationary
density matrix and the optical response (susceptibility chi_j, absorption
factor eta_j) of the intracavity cell.

All frequencies (detunings, Rabi frequencies, decay rates) are expressed in
units of 1e8 Hz. Lengths are in cm, densities in cm^-3, dipole moments in
CGSe; the physical constants are folded into a single coupling prefactor per
transition (see OpticalConstants.coupling).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FREQ_UNIT = 1e8            # base frequency unit, s^-1
HBAR_CGS = 1.0545718e-27   # erg*s

RESIDUAL_TOL = 1e-10


class SingularSteadyState(RuntimeError):
    """Stationary system is rank-deficient (e.g. undriven, disconnected ground manifold)."""

    def __init__(self, message: str, cond: float = float("inf")):
        super().__init__(f"{message} (condition estimate {cond:.3e})")
        self.cond = cond


class DegenerateDenominator(ZeroDivisionError):
    """Closed-form two-level expression evaluated at its pole."""


def _rate_matrix(m, name: str) -> np.ndarray:
    arr = np.array(m, dtype=float)
    if arr.shape != (3, 3):
        raise ValueError(f"{name} must be 3x3, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(arr < 0):
        raise ValueError(f"{name} rates must be non-negative")
    if np.any(np.diagonal(arr) != 0):
        raise ValueError(f"{name} diagonal must be zero")
    return arr


@dataclass
class AtomParams:
    """Detunings and relaxation rates of the Lambda system.

    gamma[a, b] is the population transfer rate from state a+1 to state b+1;
    Gamma[i, j] = Gamma[j, i] is the decay rate of the coherence rho_ij.
    """

    eps1: float = 0.7
    eps2: float = -0.7
    gamma: np.ndarray = field(default_factory=lambda: _default_gamma())
    Gamma: np.ndarray = field(default_factory=lambda: _default_big_gamma())

    def __post_init__(self):
        if not (np.isfinite(self.eps1) and np.isfinite(self.eps2)):
            raise ValueError("detunings must be finite")
        self.gamma = _rate_matrix(self.gamma, "gamma")
        self.Gamma = _rate_matrix(self.Gamma, "Gamma")
        if not np.array_equal(self.Gamma, self.Gamma.T):
            raise ValueError("Gamma must be symmetric")

    @property
    def delta1(self) -> float:
        return self.eps1

    @property
    def delta2(self) -> float:
        return self.eps2 - self.eps1


def _default_gamma() -> np.ndarray:
    g = np.zeros((3, 3))
    g[1, 0] = 3.0  # excited |2> -> ground |1>
    g[1, 2] = 3.0  # excited |2> -> ground |3>
    return g


def _default_big_gamma() -> np.ndarray:
    G = np.zeros((3, 3))
    G[0, 1] = G[1, 0] = 0.5
    G[1, 2] = G[2, 1] = 0.5
    return G


@dataclass
class DriveParams:
    """Rabi frequencies of the two acting fields."""

    omega1: float
    omega2: float

    def __post_init__(self):
        for name, om in (("omega1", self.omega1), ("omega2", self.omega2)):
            if not np.isfinite(om) or om < 0:
                raise ValueError(f"{name} must be finite and non-negative")


@dataclass
class OpticalConstants:
    """Cell constants entering the susceptibility and absorption factor.

    k is the optical wavenumber in cm^-1 (default 2*pi / 0.5e-4 cm) and L the
    cell length in cm.
    """

    Na: float = 1e12
    D1: float = 1e-18
    D2: float = 1e-18
    k: float = 2 * np.pi / 0.5e-4
    L: float = 5.0

    def __post_init__(self):
        for name in ("Na", "k", "L"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name}: must be positive and finite, got {v}")
        for name in ("D1", "D2"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name}: must be finite and >= 0, got {v}")

    def coupling(self, mode: int) -> float:
        """Prefactor C_j = Na |D_j|^2 / hbar such that chi_j = C_j * rho_coh /
        Omega_j (dimensionless)."""
        D = self.D1 if mode == 1 else self.D2
        return self.Na * D * D / (HBAR_CGS * FREQ_UNIT)


@dataclass
class DensityMatrix:
    """Stationary 3x3 density matrix with the verified equation residual."""

    rho: np.ndarray
    residual: float

    @property
    def trace_defect(self) -> float:
        return abs(np.trace(self.rho) - 1.0)

    @property
    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T)).min())


def _relaxation_superop(atom: AtomParams) -> np.ndarray:
    G = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            if i != j:
                G[3 * i + j, 3 * i + j] = -atom.Gamma[i, j]
    for j in range(3):
        row = 4 * j
        for k in range(3):
            G[row, 4 * k] += atom.gamma[k, j]
            G[row, row] -= atom.gamma[j, k]
    return G


def _commutator_superop(A: np.ndarray) -> np.ndarray:
    I3 = np.eye(3)
    return np.kron(A, I3) - np.kron(I3, A.T)


def density_matrix(x) -> np.ndarray:
    """Hermitian unit-trace density matrices (..., 3, 3) from their real
    coordinates x (..., 8) = (rho_11, rho_22, Re rho_12, Im rho_12,
    Re rho_13, Im rho_13, Re rho_23, Im rho_23)."""
    x = np.asarray(x, dtype=float)
    rho = np.empty(x.shape[:-1] + (3, 3), dtype=complex)
    rho[..., 0, 0] = x[..., 0]
    rho[..., 1, 1] = x[..., 1]
    rho[..., 2, 2] = 1.0 - x[..., 0] - x[..., 1]
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        rho[..., i, j].real = rho[..., j, i].real = x[..., 2 + 2 * k]
        rho[..., i, j].imag = x[..., 3 + 2 * k]
        rho[..., j, i].imag = -x[..., 3 + 2 * k]
    return rho


# vec(rho) = _E33 + x @ _STATE_BASIS
_E33 = density_matrix(np.zeros(8)).ravel()
_STATE_BASIS = density_matrix(np.eye(8)).reshape(8, 9) - _E33
# the eight real equations, in the layout of x: the entries of L rho = -i M rho
# at rows _EQ_ROWS of vec, real or imaginary part. L rho is Hermitian and
# traceless for Hermitian rho, so these imply the other ten.
_EQ_ROWS = [0, 4, 1, 1, 2, 2, 5, 5]
_EQ_IMAG = np.array([False, False, False, True, False, True, False, True])

# points per stacked LAPACK call, bounding the memory of a large batch
_CHUNK = 512


def _real_equations(v: np.ndarray) -> np.ndarray:
    """The eight real equations of L v = -i M v from the complex rows M v."""
    w = -1j * v[_EQ_ROWS]
    mask = _EQ_IMAG.reshape((-1,) + (1,) * (w.ndim - 1))
    return np.where(mask, w.imag, w.real)


class SteadyStateProblem:
    """Vectorized stationary master equation [H, rho] + i*G*rho = 0, Tr rho = 1.

    rho is Hermitian with unit trace, so the system is solved for its eight
    real coordinates x (see density_matrix): A(Omega) x = b(Omega), with
    A = A0 + Omega_1 A1 + Omega_2 A2 and b likewise, precomputed once per
    AtomParams. Batches of drive points are solved with stacked LAPACK calls.
    """

    def __init__(self, atom: AtomParams):
        self.atom = atom
        H0 = np.diag([0.0, atom.delta1, atom.delta2]).astype(complex)
        X1 = np.zeros((3, 3), dtype=complex)
        X1[0, 1] = X1[1, 0] = 1.0
        X2 = np.zeros((3, 3), dtype=complex)
        X2[1, 2] = X2[2, 1] = 1.0
        M0 = _commutator_superop(H0) + 1j * _relaxation_superop(atom)
        M1 = _commutator_superop(X1)
        M2 = _commutator_superop(X2)
        # rows: the constant, omega_1 and omega_2 parts of [A.ravel(), b]
        self._Ab = np.stack([
            np.concatenate([_real_equations(M @ _STATE_BASIS.T).ravel(),
                            -_real_equations(M @ _E33)])
            for M in (M0, M1, M2)
        ])
        # (dA/d omega_j) x for j = 1, 2 in one product, and db/d omega_j as columns
        self._dA = self._Ab[1:, :64].reshape(16, 8)
        self._db = self._Ab[1:, 64:].T

    def _system(self, om1, om2):
        """Stacked A (n, 8, 8) and b (n, 8, 1). dA/d omega_j has entries 0,
        +-1 and +-2 on disjoint supports, so every entry is a sum of at most
        two exact terms: one rounding, whatever order the product takes."""
        coef = np.empty((len(om1), 3))
        coef[:, 0] = 1.0
        coef[:, 1] = om1
        coef[:, 2] = om2
        Ab = coef @ self._Ab
        return Ab[:, :64].reshape(-1, 8, 8), Ab[:, 64:, None]

    def solve_batch(self, omega1, omega2, jacobian=False):
        """Solve for arrays of drive points.

        Returns (x, residual, ok): x has shape (n, 8), the real coordinates of
        rho (see density_matrix); residual is the max-abs residual of the full
        stationary system; ok marks entries that solved cleanly below
        RESIDUAL_TOL. Each point's arithmetic is independent of the others in
        the batch, which is solved in chunks of _CHUNK points.

        With jacobian=True a fourth value dx of shape (n, 8, 2) follows,
        dx[..., j] = dx / d omega_{j+1} = A^-1 (db/d omega_j - dA/d omega_j x),
        one more batched solve with the same matrices. NaN where not ok.
        """
        om1 = np.atleast_1d(np.asarray(omega1, dtype=float))
        om2 = np.atleast_1d(np.asarray(omega2, dtype=float))
        om1, om2 = np.broadcast_arrays(om1, om2)
        if len(om1) <= _CHUNK:
            return self._solve_chunk(om1, om2, jacobian)
        parts = [self._solve_chunk(om1[s:s + _CHUNK], om2[s:s + _CHUNK], jacobian)
                 for s in range(0, len(om1), _CHUNK)]
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))

    def _solve_chunk(self, om1, om2, jacobian):
        A, b = self._system(om1, om2)
        try:
            xs = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            xs = np.full_like(b, np.nan)
            for i in range(len(A)):
                try:
                    xs[i] = np.linalg.solve(A[i], b[i])
                except np.linalg.LinAlgError:
                    pass
        good = np.isfinite(xs[..., 0]).all(axis=1)
        if good.all():
            residual = self._residual_of(A, xs, b)
        else:
            residual = np.full(len(A), np.inf)
            residual[good] = self._residual_of(A[good], xs[good], b[good])
        # one pass of iterative refinement where the first solve is loose
        rough = np.flatnonzero(good & (residual > 1e-12))
        if rough.size:
            rc = b[rough] - np.matmul(A[rough], xs[rough])
            try:
                xs[rough] += np.linalg.solve(A[rough], rc)
                residual[rough] = self._residual_of(A[rough], xs[rough], b[rough])
            except np.linalg.LinAlgError:
                pass
        ok = residual < RESIDUAL_TOL
        if not jacobian:
            return xs[..., 0], residual, ok
        dx = np.full((len(A), 8, 2), np.nan)
        if ok.any():
            # a full slice keeps the common all-ok case free of copies
            sel = slice(None) if ok.all() else ok
            dAx = np.matmul(self._dA, xs[sel]).reshape(-1, 2, 8).transpose(0, 2, 1)
            dx[sel] = np.linalg.solve(A[sel], self._db - dAx)
        return xs[..., 0], residual, ok, dx

    @staticmethod
    def _residual_of(A, x, b):
        """Max-abs residual of the full complex stationary system.

        Its entries are those of L rho: the diagonal ones are r_0, r_1 and
        -(r_0 + r_1) (L is traceless), the off-diagonal ones have modulus
        |Re + i Im| of each coherence equation pair.
        """
        r = (np.matmul(A, x) - b)[..., 0]
        diag = np.maximum(np.abs(r[:, :2]).max(axis=1), np.abs(r[:, 0] + r[:, 1]))
        return np.maximum(diag, np.hypot(r[:, 2::2], r[:, 3::2]).max(axis=1))

    def solve(self, omega1: float, omega2: float) -> DensityMatrix:
        x, residual, ok = self.solve_batch([omega1], [omega2])
        if not ok[0]:
            A, _ = self._system(np.array([omega1]), np.array([omega2]))
            cond = float(np.linalg.cond(A[0]))
            raise SingularSteadyState(
                "stationary system is singular or failed the residual check",
                cond=cond,
            )
        return DensityMatrix(rho=density_matrix(x[0]), residual=float(residual[0]))


def steady_state(atom: AtomParams, drive: DriveParams) -> DensityMatrix:
    """Stationary density matrix of the driven Lambda atom.

    Raises SingularSteadyState when the constrained system is rank-deficient
    (e.g. both drives off with a disconnected ground manifold).
    """
    return SteadyStateProblem(atom).solve(drive.omega1, drive.omega2)


def _two_level_im_rho12(omega1, omega2, delta, gamma21, Gamma21):
    """The closed-form two-level Im(rho_12), its denominator and the scale of
    the pole test, elementwise on arrays or floats (inf or nan at the pole)."""
    detuned = gamma21 * ((omega2 - delta) ** 2 + Gamma21**2)
    drive = 4.0 * omega1**2 * Gamma21
    den = drive - detuned
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(omega1 * gamma21 * Gamma21, den), den, drive + detuned


def two_level_im_rho12(
    omega1: float, omega2: float, delta: float, gamma21: float, Gamma21: float
) -> float:
    """Closed-form two-level approximation of Im(rho_12), implemented verbatim."""
    im12, den, scale = _two_level_im_rho12(omega1, omega2, delta, gamma21, Gamma21)
    if den == 0 or abs(den) < 1e-14 * scale:
        raise DegenerateDenominator("two-level expression evaluated at its pole")
    return float(im12)


def two_level_im_rho32(
    omega1: float,
    omega2: float,
    delta: float,
    gamma21: float,
    gamma23: float,
    Gamma21: float,
) -> float:
    """Closed-form two-level approximation of Im(rho_32): the same two-level
    expression, two_level_im_rho12 * gamma21*omega1 / (gamma23*omega2).
    """
    if omega2 <= 0 or gamma23 <= 0:
        raise ValueError("omega2 and gamma23 must be positive")
    im12 = two_level_im_rho12(omega1, omega2, delta, gamma21, Gamma21)
    return im12 * gamma21 * omega1 / (gamma23 * omega2)


# gain exponents are capped here so a runaway (nonphysical) amplifying branch
# yields a huge but finite residual instead of overflow
_ETA_EXP_CAP = 100.0
_EYE2 = np.eye(2)
# sign of Im rho_21 = -Im rho_12 and Im rho_23, as a column over the two modes
_CONJ_21 = np.array([[-1.0], [1.0]])


class CellResponse:
    """Batched absorption factors eta_j(I1_in, I2_in) of the atomic cell.

    Intensities are in units of Omega^2 (Omega_j = sqrt(I_j)). The
    coherences come from the exact stationary density matrix; subclasses
    replace `coherences` and share `optics` (chi -> eta) and the chain rule
    of `etas`.
    """

    def __init__(self, atom: AtomParams, constants: OpticalConstants):
        self.atom = atom
        self.constants = constants
        self.problem = SteadyStateProblem(atom)
        # per-mode constants as columns, to broadcast against (2, n) arrays
        self._c = np.array([[constants.coupling(1)], [constants.coupling(2)]])
        self._exponent = 2.0 * constants.k * constants.L

    def coherences(self, om1, om2, jacobian=False):
        """Excited-ground coherences (rho_21, rho_23) as a (2, n) array and the ok mask.

        With jacobian=True a third value dcoh of shape (2, 2, n) follows,
        dcoh[i, j] = d coh_i / d omega_j. Both are read off the real
        coordinates: rho_21 = Re rho_12 - i Im rho_12, rho_23 = Re + i Im.
        """
        x, _, ok, *dx = self.problem.solve_batch(om1, om2, jacobian=jacobian)
        coh = np.empty((2, len(x)), dtype=complex)
        coh.real = x[:, 2::4].T
        coh.imag = _CONJ_21 * x[:, 3::4].T
        if not jacobian:
            return coh, ok
        dcoh = np.empty((2, 2, len(x)), dtype=complex)
        dcoh.real = dx[0][:, 2::4].transpose(1, 2, 0)
        dcoh.imag = _CONJ_21[:, :, None] * dx[0][:, 3::4].transpose(1, 2, 0)
        return coh, ok, dcoh

    def optics(self, om, coh):
        """chi_j = C_j coh_j / Omega_j, root_j = sqrt(1 + 4 pi chi_j), the gain
        exponent arg_j = 2 k l Im root_j and eta_j = exp(arg_j), capped at
        exp(_ETA_EXP_CAP), from Rabi frequencies and coherences of shape (2, n).

        Principal square-root branch; om must be nonzero.
        """
        chi = self._c * coh / om
        root = np.sqrt(1.0 + 4.0 * np.pi * chi)
        arg = self._exponent * root.imag
        return chi, root, arg, np.exp(np.minimum(arg, _ETA_EXP_CAP))

    def etas(self, I1, I2, jacobian=False):
        """eta arrays for intensity arrays; ok=False where I<=0 or the solve fails.

        With jacobian=True a fourth value deta of shape (n, 2, 2) follows,
        deta[:, i, j] = d eta_i / d I_j, by the chain rule through the
        coherence derivatives (zero where the gain exponent is capped, NaN
        where not ok).
        """
        I1 = np.atleast_1d(np.asarray(I1, dtype=float))
        I2 = np.atleast_1d(np.asarray(I2, dtype=float))
        I1, I2 = np.broadcast_arrays(I1, I2)
        positive = (I1 > 0) & (I2 > 0) & np.isfinite(I1) & np.isfinite(I2)
        om = np.sqrt(np.where(positive, [I1, I2], 1.0))
        coh, ok, *dcoh = self.coherences(om[0], om[1], jacobian=jacobian)
        ok = ok & positive
        _, root, arg, eta = self.optics(om, coh)
        eta = np.where(ok, eta, np.nan)
        if not jacobian:
            return eta[0], eta[1], ok
        # d eta_i / d omega_j = E eta_i Im(2 pi / root_i * dchi_ij) below the cap,
        # with dchi_ij = c_i / omega_i * (dcoh_ij - delta_ij coh_i / omega_i)
        dchi = dcoh[0] - _EYE2[:, :, None] * (coh / om)[:, None, :]
        deta = ((2.0 * np.pi) * self._c / (om * root))[:, None, :] * dchi
        slope = np.where(arg < _ETA_EXP_CAP, self._exponent * eta, 0.0)
        # d omega_j / d I_j = 1 / (2 omega_j)
        deta = deta.imag * slope[:, None, :] * (0.5 / om)[None, :, :]
        return eta[0], eta[1], ok, deta.transpose(2, 0, 1)


class ApproxCellResponse(CellResponse):
    """Cell response built from the closed-form two-level expressions.

    The absorptive parts Im(rho_21) and Im(rho_23) are taken from the
    analytic approximations (with Delta = eps1); real parts are dropped.
    """

    def coherences(self, om1, om2, jacobian=False):
        """i * Im(rho_21), i * Im(rho_23) in closed form; layout as in CellResponse.

        Not ok where the two-level denominator is <= 0: there the closed form
        has the sign of gain, which a passive cell never has.
        """
        g21 = self.atom.gamma[1, 0]
        g23 = self.atom.gamma[1, 2]
        G21 = self.atom.Gamma[0, 1]
        delta = self.atom.eps1
        im12, den, _ = _two_level_im_rho12(om1, om2, delta, g21, G21)
        ok = den > 0
        im12, den = np.where(ok, im12, 0.0), np.where(ok, den, 1.0)
        # Im(rho_32) = q * Im(rho_12), as in two_level_im_rho32
        q = om1 * g21 / (om2 * g23) if g23 > 0 else np.zeros_like(im12)
        coh = -1j * np.array([im12, q * im12])
        if not jacobian:
            return coh, ok
        d12 = np.array([
            g21 * G21 * (den - 8.0 * G21 * om1**2) / den**2,
            2.0 * g21 * (om2 - delta) * im12 / den,
        ])
        d32 = q * (d12 + np.array([im12 / om1, -im12 / om2]))
        return coh, ok, -1j * np.array([d12, d32])
