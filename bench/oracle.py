"""Independent reference for the benchmark's correctness checks.

Nothing here imports `ringob`. The physics is restated from the model
description (README): a Lambda atom with grounds |1>, |3> and excited |2>,
driven at Rabi frequencies Omega_j = sqrt(I_j), whose stationary density
matrix gives the susceptibilities chi_j and the single-pass transmissions
eta_j = exp(2 k L Im sqrt(1 + 4 pi chi_j)).

- `Reference.etas` builds the 9x9 Liouvillian element by element from H
  and the decay and dephasing rates, takes its null vector by SVD and
  normalises the trace. The package instead assembles Kronecker
  superoperators, replaces one row by the trace constraint and solves by LU.
- `RootCounter` counts the operating points of the closed two-loop system
  I_j (1 - R_j eta_j(I)) = I_j0 on a dense grid of internal intensities, by
  the sign changes of the residual field. The package instead runs a
  multi-start damped Newton.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HBAR_CGS = 1.0545718e-27    # erg*s, the value the package's unit system uses
FREQ_UNIT = 1e8             # frequencies are in units of 1e8 s^-1


@dataclass(frozen=True)
class Model:
    """Atom, cell and cavity parameters, named as in the JSON config."""

    eps1: float = 0.7
    eps2: float = -0.7
    gamma_2to1: float = 3.0
    gamma_2to3: float = 3.0
    Gamma12: float = 0.5
    Gamma23: float = 0.5
    Gamma13: float = 0.0
    Na: float = 1e12
    D1: float = 1e-18
    D2: float = 1e-18
    wavelength: float = 0.5e-4
    L: float = 5.0
    R1: float = 0.6
    R2: float = 0.6

    def config(self) -> dict:
        """The `atom`, `constants` and `cavity` sections that select this model."""
        return {
            "atom": {"eps1": self.eps1, "eps2": self.eps2,
                     "gamma_2to1": self.gamma_2to1, "gamma_2to3": self.gamma_2to3,
                     "Gamma12": self.Gamma12, "Gamma23": self.Gamma23,
                     "Gamma13": self.Gamma13},
            "constants": {"Na": self.Na, "D1": self.D1, "D2": self.D2,
                          "k": 2.0 * np.pi / self.wavelength, "L": self.L},
            "cavity": {"R1": self.R1, "R2": self.R2},
        }


class Reference:
    """eta_1, eta_2 as functions of the internal intensities, by SVD null space."""

    def __init__(self, model: Model = Model()):
        self.model = model
        m = model
        # decay[a, b]: population transfer rate from level a+1 to level b+1
        self._decay = np.zeros((3, 3))
        self._decay[1, 0] = m.gamma_2to1
        self._decay[1, 2] = m.gamma_2to3
        self._dephase = np.array([[0.0, m.Gamma12, m.Gamma13],
                                  [m.Gamma12, 0.0, m.Gamma23],
                                  [m.Gamma13, m.Gamma23, 0.0]])
        self._coupling = (m.Na * m.D1 ** 2 / (HBAR_CGS * FREQ_UNIT),
                          m.Na * m.D2 ** 2 / (HBAR_CGS * FREQ_UNIT))
        self._exponent = 2.0 * (2.0 * np.pi / m.wavelength) * m.L

    def liouvillian(self, om1: np.ndarray, om2: np.ndarray) -> np.ndarray:
        """Stack of 9x9 generators L with d vec(rho)/dt = L vec(rho), vec row-major."""
        n = om1.shape[0]
        m = self.model
        H = np.zeros((n, 3, 3), dtype=complex)
        H[:, 0, 1] = H[:, 1, 0] = om1
        H[:, 1, 2] = H[:, 2, 1] = om2
        H[:, 1, 1] = m.eps1
        H[:, 2, 2] = m.eps2 - m.eps1
        L = np.zeros((n, 9, 9), dtype=complex)
        for i in range(3):
            for j in range(3):
                row = 3 * i + j
                # -i [H, rho]_ij = -i sum_k (H_ik rho_kj - rho_ik H_kj)
                for k in range(3):
                    L[:, row, 3 * k + j] += -1j * H[:, i, k]
                    L[:, row, 3 * i + k] += 1j * H[:, k, j]
                if i != j:
                    L[:, row, row] -= self._dephase[i, j]
                else:
                    for k in range(3):
                        L[:, row, 4 * k] += self._decay[k, i]
                        L[:, row, row] -= self._decay[i, k]
        return L

    def rho(self, I1, I2) -> np.ndarray:
        """Stationary density matrices, shape (n, 3, 3), for positive intensities."""
        om1 = np.sqrt(np.asarray(I1, dtype=float).ravel())
        om2 = np.sqrt(np.asarray(I2, dtype=float).ravel())
        _, _, vh = np.linalg.svd(self.liouvillian(om1, om2))
        null = vh[:, -1, :].conj()
        trace = null[:, 0] + null[:, 4] + null[:, 8]
        return (null / trace[:, None]).reshape(-1, 3, 3)

    def etas(self, I1, I2) -> tuple[np.ndarray, np.ndarray]:
        I1 = np.asarray(I1, dtype=float)
        I2 = np.asarray(I2, dtype=float)
        shape = np.broadcast(I1, I2).shape
        I1, I2 = (np.broadcast_to(a, shape).ravel() for a in (I1, I2))
        if not (np.all(I1 > 0) and np.all(I2 > 0)):
            raise ValueError("intensities must be positive")
        r = self.rho(I1, I2)
        chi1 = self._coupling[0] * r[:, 1, 0] / np.sqrt(I1)
        chi2 = self._coupling[1] * r[:, 1, 2] / np.sqrt(I2)
        eta1 = np.exp(self._exponent * np.sqrt(1.0 + 4.0 * np.pi * chi1).imag)
        eta2 = np.exp(self._exponent * np.sqrt(1.0 + 4.0 * np.pi * chi2).imag)
        return eta1.reshape(shape), eta2.reshape(shape)


class RootCounter:
    """Dense-grid count of operating points for inputs inside a box.

    Every root obeys I_j = I_j0 / (1 - R_j eta_j), so with 0 < eta <= 1 it
    lies in [I_j0, I_j0 / (1 - R_j)]. One table of reference eta over the
    union of these boxes (log spaced, `n` nodes per axis) serves every input.
    Each grid square is split into two triangles. A triangle holds a root of
    the residual r(I) = (I_1 (1 - R_1 eta_1) - I_10, I_2 (1 - R_2 eta_2) - I_20)
    when the residual vectors at its corners surround the origin: the three
    corner-pair cross products have one sign (the two-dimensional form of a
    sign change). That is a root of the residual interpolated linearly over
    the triangle, which has at most one there, so the count is the number of
    such triangles. Two roots closer than a grid step can share a triangle
    and go uncounted; the table is made fine enough for the inputs checked.
    """

    def __init__(self, reference: Reference, i1_range, i2_range, n: int = 300):
        m = reference.model
        self.R = (m.R1, m.R2)
        lo1, hi1 = i1_range
        lo2, hi2 = i2_range
        self.a1 = np.geomspace(lo1 * 0.98, hi1 / (1.0 - m.R1) * 1.02, n)
        self.a2 = np.geomspace(lo2 * 0.98, hi2 / (1.0 - m.R2) * 1.02, n)
        g1, g2 = np.meshgrid(self.a1, self.a2, indexing="ij")
        e1, e2 = reference.etas(g1, g2)
        if not (np.all(np.isfinite(e1)) and np.all(np.isfinite(e2))):
            raise ValueError("reference eta is not finite on the table")
        max_eta = float(max(e1.max(), e2.max()))
        if max_eta > 1.0:
            # gain would move roots outside [I0, I0/(1-R)]: the box is not complete
            raise ValueError(f"reference eta {max_eta:g} > 1 on the table")
        # the residual is affine in the inputs: r = F(I) - I0
        self.F1 = g1 * (1.0 - m.R1 * e1)
        self.F2 = g2 * (1.0 - m.R2 * e2)

    def _window(self, axis: np.ndarray, lo: float, hi: float) -> slice:
        a = max(int(np.searchsorted(axis, lo)) - 1, 0)
        b = min(int(np.searchsorted(axis, hi)) + 1, len(axis) - 1)
        if axis[a] > lo or axis[b] < hi:
            raise ValueError("input lies outside the counter's table")
        return slice(a, b + 1)

    def count(self, I10: float, I20: float) -> int:
        s1 = self._window(self.a1, I10, I10 / (1.0 - self.R[0]))
        s2 = self._window(self.a2, I20, I20 / (1.0 - self.R[1]))
        r1 = self.F1[s1, s2] - I10
        r2 = self.F2[s1, s2] - I20
        p00 = (r1[:-1, :-1], r2[:-1, :-1])
        p10 = (r1[1:, :-1], r2[1:, :-1])
        p01 = (r1[:-1, 1:], r2[:-1, 1:])
        p11 = (r1[1:, 1:], r2[1:, 1:])
        return int(_surrounds(p00, p10, p11).sum() + _surrounds(p00, p11, p01).sum())


def _surrounds(a, b, c) -> np.ndarray:
    """Whether the origin lies inside the triangle of 2-vectors a, b, c."""
    def cross(p, q):
        return p[0] * q[1] - p[1] * q[0]
    ab, bc, ca = cross(a, b), cross(b, c), cross(c, a)
    return ((ab > 0) & (bc > 0) & (ca > 0)) | ((ab < 0) & (bc < 0) & (ca < 0))
