"""Three-level Lambda atom: rotating-frame Hamiltonian, relaxation, stationary
density matrix and the optical response (susceptibility, absorption factor) of
the intracavity cell.

All frequencies (detunings, Rabi frequencies, decay rates) are expressed in
units of 1e8 Hz. Lengths are in cm, densities in cm^-3, dipole moments in
CGSe; the physical constants are folded into a single coupling prefactor per
transition (see OpticalConstants.coupling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

FREQ_UNIT = 1e8            # base frequency unit, s^-1
HBAR_CGS = 1.0545718e-27   # erg*s

RESIDUAL_TOL = 1e-10


class SingularSteadyState(RuntimeError):
    """Stationary system is rank-deficient (e.g. undriven, disconnected ground manifold)."""

    def __init__(self, message: str, cond: float = float("inf")):
        super().__init__(f"{message} (condition estimate {cond:.3e})")
        self.cond = cond


class ZeroDrive(ValueError):
    """Susceptibility requested for an undriven mode."""


class BranchPoint(ValueError):
    """Absorption factor evaluated at the branch point 1 + 4*pi*chi = 0."""


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

    k is the optical wavenumber in cm^-1 (default 2*pi / 0.5e-4 cm).  C1/C2,
    when set, override the coupling prefactor Na*|Dj|^2/hbar computed from the
    tabulated values.  intensity_scale{1,2} set the intensity-to-Rabi
    normalization Omega_j = scale_j * sqrt(I_j).
    """

    Na: float = 1e12
    D1: float = 1e-18
    D2: float = 1e-18
    k: float = 2 * np.pi / 0.5e-4
    L: float = 5.0
    include_length: bool = True
    C1: float | None = None
    C2: float | None = None
    intensity_scale1: float = 1.0
    intensity_scale2: float = 1.0

    def __post_init__(self):
        for name in ("Na", "k", "L", "intensity_scale1", "intensity_scale2"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name}: must be positive and finite, got {v}")
        for name in ("D1", "D2", "C1", "C2"):
            v = getattr(self, name)
            if v is not None and not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name}: must be finite and >= 0, got {v}")

    def coupling(self, mode: int) -> float:
        """Prefactor C_j such that chi_j = C_j * rho_coh / Omega_j (dimensionless)."""
        override = self.C1 if mode == 1 else self.C2
        if override is not None:
            return override
        D = self.D1 if mode == 1 else self.D2
        return self.Na * D * D / (HBAR_CGS * FREQ_UNIT)

    @property
    def path_length(self) -> float:
        return self.L if self.include_length else 1.0


@dataclass
class DensityMatrix:
    """Stationary 3x3 density matrix with the verified equation residual."""

    rho: np.ndarray
    residual: float

    @property
    def trace_defect(self) -> float:
        return abs(np.trace(self.rho) - 1.0)

    @property
    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.rho - self.rho.conj().T)))

    @property
    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T)).min())


def build_hamiltonian(atom: AtomParams, drive: DriveParams) -> np.ndarray:
    """Rotating-frame Hamiltonian of the driven Lambda atom (Hermitian by fill)."""
    o1, o2 = drive.omega1, drive.omega2
    return np.array(
        [
            [0.0, o1, 0.0],
            [o1, atom.delta1, o2],
            [0.0, o2, atom.delta2],
        ],
        dtype=complex,
    )


def apply_relaxation(rho: np.ndarray, atom: AtomParams) -> np.ndarray:
    """Relaxation superoperator: coherence decay plus population transfer.

    Linear in rho; conserves the trace for arbitrary (not necessarily
    Hermitian) input.
    """
    rho = np.asarray(rho, dtype=complex)
    out = -(atom.Gamma * rho).astype(complex)
    pops = np.diagonal(rho)
    gain = atom.gamma.T @ pops
    loss = atom.gamma.sum(axis=1) * pops
    np.fill_diagonal(out, gain - loss)
    return out


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


_TRACE_ROW = np.zeros(9, dtype=complex)
_TRACE_ROW[[0, 4, 8]] = 1.0
_TRACE_IDX = 8  # row of the (3,3) population equation, implied by the others


class SteadyStateProblem:
    """Vectorized stationary master equation [H, rho] + i*G*rho = 0.

    The 9x9 system matrix is linear in the Rabi frequencies, so the three
    constituent matrices are precomputed once per AtomParams and batches of
    drive points are solved with stacked LAPACK calls.
    """

    def __init__(self, atom: AtomParams):
        self.atom = atom
        H0 = np.diag([0.0, atom.delta1, atom.delta2]).astype(complex)
        X1 = np.zeros((3, 3), dtype=complex)
        X1[0, 1] = X1[1, 0] = 1.0
        X2 = np.zeros((3, 3), dtype=complex)
        X2[1, 2] = X2[2, 1] = 1.0
        self._M0 = _commutator_superop(H0) + 1j * _relaxation_superop(atom)
        self._M1 = _commutator_superop(X1)
        self._M2 = _commutator_superop(X2)
        # constrained variants: the redundant (3,3) population row replaced by
        # the trace constraint (its residual is recovered from rows 0 and 4)
        self._M0c = self._M0.copy()
        self._M0c[_TRACE_IDX] = _TRACE_ROW
        self._M1c = self._M1.copy()
        self._M1c[_TRACE_IDX] = 0.0
        self._M2c = self._M2.copy()
        self._M2c[_TRACE_IDX] = 0.0
        # x @ _dMcT stacks (dMc/d omega_1) x and (dMc/d omega_2) x
        self._dMcT = np.concatenate([self._M1c.T, self._M2c.T], axis=1)

    def full_matrix(self, omega1: float, omega2: float) -> np.ndarray:
        """Unconstrained 9x9 stationary operator (trace-degenerate)."""
        return self._M0 + omega1 * self._M1 + omega2 * self._M2

    def solve_batch(self, omega1, omega2, jacobian=False):
        """Solve for arrays of drive points.

        Returns (rho, residual, ok): rho has shape (n, 3, 3); residual is the
        max-abs residual of the full (un-replaced) stationary system; ok marks
        entries that solved cleanly below RESIDUAL_TOL.

        With jacobian=True a fourth value drho of shape (n, 3, 3, 2) follows,
        drho[..., j] = d rho / d omega_{j+1}. It comes from differentiating the
        constrained system Mc x = e_8: dx/d omega_j = -Mc^-1 (dMc/d omega_j) x,
        one more batched solve with the same matrices. NaN where not ok.
        """
        om1 = np.atleast_1d(np.asarray(omega1, dtype=float))
        om2 = np.atleast_1d(np.asarray(omega2, dtype=float))
        om1, om2 = np.broadcast_arrays(om1, om2)
        n = om1.shape[0]

        Mc = (
            self._M0c[None, :, :]
            + om1[:, None, None] * self._M1c[None, :, :]
            + om2[:, None, None] * self._M2c[None, :, :]
        )
        rhs = np.zeros((n, 9, 1), dtype=complex)
        rhs[:, _TRACE_IDX, 0] = 1.0

        x = np.empty((n, 9), dtype=complex)
        ok = np.ones(n, dtype=bool)
        try:
            x[:] = np.linalg.solve(Mc, rhs)[..., 0]
        except np.linalg.LinAlgError:
            for i in range(n):
                try:
                    x[i] = np.linalg.solve(Mc[i], rhs[i])[..., 0]
                except np.linalg.LinAlgError:
                    x[i] = np.nan
                    ok[i] = False

        ok &= np.all(np.isfinite(x), axis=1)

        residual = np.full(n, np.inf)
        good = np.nonzero(ok)[0]
        if good.size:
            residual[good] = self._residual_of(Mc[good], x[good], rhs[good, :, 0])
            # one pass of iterative refinement where the first solve is loose
            rough = good[residual[good] > 1e-12]
            if rough.size:
                rc = rhs[rough, :, 0] - np.matmul(Mc[rough], x[rough, :, None])[..., 0]
                try:
                    x[rough] += np.linalg.solve(Mc[rough], rc[..., None])[..., 0]
                    residual[rough] = self._residual_of(Mc[rough], x[rough], rhs[rough, :, 0])
                except np.linalg.LinAlgError:
                    pass
        ok &= residual < RESIDUAL_TOL
        if not jacobian:
            return x.reshape(n, 3, 3), residual, ok
        dx = np.full((n, 9, 2), np.nan, dtype=complex)
        if ok.any():
            dMx = (x[ok] @ self._dMcT).reshape(-1, 2, 9).transpose(0, 2, 1)
            dx[ok] = -np.linalg.solve(Mc[ok], dMx)
        return x.reshape(n, 3, 3), residual, ok, dx.reshape(n, 3, 3, 2)

    @staticmethod
    def _residual_of(Mc, x, rhs):
        """Max-abs residual of the full stationary system from the constrained one.

        The replaced (3,3) population row is the negated sum of the other two
        diagonal rows (trace preservation), so it never has to be rebuilt.
        """
        r = np.matmul(Mc, x[..., None])[..., 0] - rhs
        r8 = -(r[:, 0] + r[:, 4])
        return np.maximum(np.abs(r[:, :8]).max(axis=1), np.abs(r8))

    def solve(self, omega1: float, omega2: float) -> DensityMatrix:
        rho, residual, ok = self.solve_batch([omega1], [omega2])
        if not ok[0]:
            M = self.full_matrix(omega1, omega2)
            Mc = M.copy()
            Mc[_TRACE_IDX] = _TRACE_ROW
            cond = float(np.linalg.cond(Mc))
            raise SingularSteadyState(
                "stationary system is singular or failed the residual check",
                cond=cond,
            )
        return DensityMatrix(rho=rho[0], residual=float(residual[0]))


def steady_state(atom: AtomParams, drive: DriveParams) -> DensityMatrix:
    """Stationary density matrix of the driven Lambda atom.

    Raises SingularSteadyState when the constrained system is rank-deficient
    (e.g. both drives off with a disconnected ground manifold).
    """
    return SteadyStateProblem(atom).solve(drive.omega1, drive.omega2)


class AbsorptionResult(NamedTuple):
    eta: float
    gain: bool


def susceptibility(
    rho: DensityMatrix | np.ndarray,
    drive: DriveParams,
    constants: OpticalConstants,
    mode: int,
) -> complex:
    """Complex susceptibility of transition `mode` (1: |1>-|2>, 2: |3>-|2>).

    Uses the excited-ground coherence rotating with the driving field
    (rho_21 for mode 1, rho_23 for mode 2), so that a passive cell yields
    Im(chi) < 0 and absorption in the factor below.
    """
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    omega = drive.omega1 if mode == 1 else drive.omega2
    if omega == 0:
        raise ZeroDrive(f"mode {mode} is undriven; susceptibility undefined")
    mat = rho.rho if isinstance(rho, DensityMatrix) else np.asarray(rho)
    coh = mat[1, 0] if mode == 1 else mat[1, 2]
    return constants.coupling(mode) * complex(coh) / omega


def absorption_factor(chi: complex, constants: OpticalConstants) -> AbsorptionResult:
    """Single-pass intensity transmission eta = exp(2*k*l*Im sqrt(1+4*pi*chi)).

    Principal square-root branch. eta > 1 (gain) is flagged, not clamped.
    """
    radicand = 1.0 + 4.0 * np.pi * complex(chi)
    if radicand == 0:
        raise BranchPoint("1 + 4*pi*chi = 0")
    root = np.sqrt(radicand)
    eta = float(np.exp(2.0 * constants.k * constants.path_length * root.imag))
    return AbsorptionResult(eta=eta, gain=eta > 1.0)


def _two_level_denominator(omega1, omega2, delta, gamma21, Gamma21):
    return 4.0 * omega1**2 * Gamma21 - gamma21 * ((omega2 - delta) ** 2 + Gamma21**2)


def two_level_im_rho12(
    omega1: float, omega2: float, delta: float, gamma21: float, Gamma21: float
) -> float:
    """Closed-form two-level approximation of Im(rho_12), implemented verbatim."""
    den = _two_level_denominator(omega1, omega2, delta, gamma21, Gamma21)
    scale = 4.0 * omega1**2 * Gamma21 + gamma21 * ((omega2 - delta) ** 2 + Gamma21**2)
    if den == 0 or abs(den) < 1e-14 * scale:
        raise DegenerateDenominator("two-level expression evaluated at its pole")
    return omega1 * gamma21 * Gamma21 / den


def two_level_im_rho32(
    omega1: float,
    omega2: float,
    delta: float,
    gamma21: float,
    gamma23: float,
    Gamma21: float,
) -> float:
    """Closed-form two-level approximation of Im(rho_32).

    Equals two_level_im_rho12 * gamma21*omega1 / (gamma23*omega2) identically.
    """
    if omega2 <= 0 or gamma23 <= 0:
        raise ValueError("omega2 and gamma23 must be positive")
    den = _two_level_denominator(omega1, omega2, delta, gamma21, Gamma21)
    scale = 4.0 * omega1**2 * Gamma21 + gamma21 * ((omega2 - delta) ** 2 + Gamma21**2)
    if den == 0 or abs(den) < 1e-14 * scale:
        raise DegenerateDenominator("two-level expression evaluated at its pole")
    return omega1**2 * gamma21**2 * Gamma21 / (omega2 * gamma23 * den)


# gain exponents are capped here so a runaway (nonphysical) amplifying branch
# yields a huge but finite residual instead of overflow
_ETA_EXP_CAP = 100.0
_EYE2 = np.eye(2)


class CellResponse:
    """Batched absorption factors eta_j(I1_in, I2_in) of the atomic cell.

    Intensities are in units of Omega^2 (Omega_j = scale_j * sqrt(I_j)). The
    coherences come from the exact stationary density matrix; subclasses
    replace `coherences` and share the eta and chain-rule code of `etas`.
    """

    def __init__(self, atom: AtomParams, constants: OpticalConstants):
        self.atom = atom
        self.constants = constants
        self.problem = SteadyStateProblem(atom)
        # per-mode constants as columns, to broadcast against (2, n) arrays
        self._c = np.array([[constants.coupling(1)], [constants.coupling(2)]])
        self._scale = np.array([[constants.intensity_scale1], [constants.intensity_scale2]])
        self._exponent = 2.0 * constants.k * constants.path_length

    def coherences(self, om1, om2, jacobian=False):
        """Excited-ground coherences (rho_21, rho_23) as a (2, n) array and the ok mask.

        With jacobian=True a third value dcoh of shape (2, 2, n) follows,
        dcoh[i, j] = d coh_i / d omega_j.
        """
        rho, _, ok, *drho = self.problem.solve_batch(om1, om2, jacobian=jacobian)
        coh = rho[:, 1, ::2].T
        if not jacobian:
            return coh, ok
        return coh, ok, drho[0][:, 1, ::2].transpose(1, 2, 0)

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
        om = self._scale * np.sqrt(np.where(positive, [I1, I2], 1.0))
        coh, ok, *dcoh = self.coherences(om[0], om[1], jacobian=jacobian)
        ok = ok & positive
        chi = self._c * coh / om
        root = np.sqrt(1.0 + 4.0 * np.pi * chi)
        arg = self._exponent * root.imag
        eta = np.where(ok, np.exp(np.minimum(arg, _ETA_EXP_CAP)), np.nan)
        if not jacobian:
            return eta[0], eta[1], ok
        # d eta_i / d omega_j = E eta_i Im(2 pi / root_i * dchi_ij) below the cap,
        # with dchi_ij = c_i / omega_i * (dcoh_ij - delta_ij coh_i / omega_i)
        dchi = dcoh[0] - _EYE2[:, :, None] * (coh / om)[:, None, :]
        deta = ((2.0 * np.pi) * self._c / (om * root))[:, None, :] * dchi
        slope = np.where(arg < _ETA_EXP_CAP, self._exponent * eta, 0.0)
        # d omega_j / d I_j = scale_j^2 / (2 omega_j)
        deta = deta.imag * slope[:, None, :] * (self._scale**2 / (2.0 * om))[None, :, :]
        return eta[0], eta[1], ok, deta.transpose(2, 0, 1)

    def eta_pair(self, I1: float, I2: float) -> tuple[float, float]:
        e1, e2, ok = self.etas([I1], [I2])
        if not ok[0]:
            raise SingularSteadyState(
                f"cell response failed at (I1, I2) = ({I1:g}, {I2:g})"
            )
        return float(e1[0]), float(e2[0])


class ApproxCellResponse(CellResponse):
    """Cell response built from the closed-form two-level expressions.

    The absorptive parts Im(rho_21) and Im(rho_23) are taken from the
    analytic approximations (with Delta = eps1); real parts are dropped.
    """

    def coherences(self, om1, om2, jacobian=False):
        """i * Im(rho_21), i * Im(rho_23) in closed form; layout as in CellResponse."""
        g21 = self.atom.gamma[1, 0]
        g23 = self.atom.gamma[1, 2]
        G21 = self.atom.Gamma[0, 1]
        delta = self.atom.eps1
        den = _two_level_denominator(om1, om2, delta, g21, G21)
        ok = den != 0
        den = np.where(ok, den, 1.0)
        im12 = om1 * g21 * G21 / den
        im32 = om1**2 * g21**2 * G21 / (om2 * g23 * den) if g23 > 0 else np.zeros_like(im12)
        coh = -1j * np.array([im12, im32])
        if not jacobian:
            return coh, ok
        d12 = np.array([
            g21 * G21 * (den - 8.0 * G21 * om1**2) / den**2,
            2.0 * g21 * (om2 - delta) * im12 / den,
        ])
        # im32 = q * im12 with q = om1 g21 / (om2 g23)
        q = om1 * g21 / (om2 * g23) if g23 > 0 else np.zeros_like(im12)
        d32 = q * (d12 + np.array([im12 / om1, -im12 / om2]))
        return coh, ok, -1j * np.array([d12, d32])
