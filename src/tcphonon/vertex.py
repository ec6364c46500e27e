"""Cubic interaction vertex and tree-level three-point matrix elements.

On the s = 1 family the only surviving cubic operator is pi^2 sigma with
coupling

    lambda3 = (Lambda^3 / 4 Omega^2) c_s^3 sqrt(c_s^-2 - 1)
            = (Lambda^3 / 4 Omega^2) c_s^2 sqrt((1 - c_s)(1 + c_s)),

which vanishes at the Lorentz point c_s = 1.  The second form is the one
evaluated: it has no cancellation as c_s -> 1.  The one-to-two matrix element
places the sigma-leg on each of the three particles in turn and sums
sigma-amplitude x pi-amplitude x pi-amplitude, conjugating outgoing legs:

    M = -i 4 lambda3 sqrt(2 w_p w_1 w_2)
        x [ u_sig(p) u_pi(1)* u_pi(2)* + u_sig(1)* u_pi(p) u_pi(2)*
            + u_sig(2)* u_pi(p) u_pi(1)* ]

where u_pi, u_sig are the mode pairs of each leg rescaled by sqrt(2 w_leg)
(dimensionless; the gapless u_pi is exactly 1 in the decoupled limit).  The
pairs are the canonical Fock pairs of spectrum.amplitudes, the gapped one
conjugated: u_pi = i^L |u_pi| and u_sig = i^(L-1) |u_sig|, L = 1 on the gapped
branch and 0 on the gapless.  With n = L_p - L_1 - L_2 the first term then
carries i^(n-1) and the other two i^(n+1) = -i^(n-1), and the rescales
multiply to sqrt(8 w_p w_1 w_2), so for all eight branch assignments

    M = -i^n 16 lambda3 w_p w_1 w_2 t,
    t = |sigma_p| |pi_1| |pi_2| - |sigma_1| |pi_p| |pi_2| - |sigma_2| |pi_p| |pi_1|.

At rest, L -> G G has t = |sigma_L| pi_G^2 - 2 |sigma_G| |pi_L| pi_G, whose
destructive interference is the rate zero at c_s = sqrt(3/8); in G -> G G, t
carries the soft-momentum cancellation that suppresses long-wavelength decay.
_bracket is t, _amplitude is 16 lambda3 w t and _m2 its square: the matrix
element, the rates and the Monte-Carlo oracle all evaluate the vertex
through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import ModelParams, PhysicalParams, params_from_physical
from .spectrum import _gapless, _gapped, _gapped_at_rest

__all__ = ["BranchLabel", "Leg", "cubic_coupling", "matrix_element"]


class BranchLabel(Enum):
    """The two quasiparticle branches: gapless Goldstone / gapped mode."""

    G = "G"
    L = "L"


@dataclass(frozen=True, eq=False)
class Leg:
    """One external particle: branch label plus wave-vector (3-vector)."""

    branch: BranchLabel
    momentum: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if not isinstance(self.branch, BranchLabel):
            raise ValueError(f"branch must be a BranchLabel, got {self.branch!r}")
        mom = np.asarray(self.momentum, dtype=float)
        if mom.shape != (3,) or not np.isfinite(mom).all():
            raise ValueError(f"momentum must be a finite 3-vector, got {mom!r}")
        object.__setattr__(self, "momentum", mom)

    @property
    def k(self) -> float:
        return float(np.linalg.norm(self.momentum))


def cubic_coupling(p: PhysicalParams) -> float:
    """Cubic pi^2-sigma coupling (mass units); exactly zero at c_s = 1."""
    cs = p.cs
    return (p.Lambda**3 / (4.0 * p.Omega**2)) * cs * cs * math.sqrt((1.0 - cs) * (1.0 + cs))


def _bracket(pi_p, sg_p, pi_1, sg_1, pi_2, sg_2):
    """Interference bracket t of the parent p and children 1, 2 from their
    amplitude magnitudes (module docstring).  Floats or arrays."""
    return sg_p * pi_1 * pi_2 - sg_1 * pi_p * pi_2 - sg_2 * pi_p * pi_1


def _amplitude(lam3: float, w, t):
    """Signed |M| = 16 lam3 w t of a one-to-two decay, from the cubic coupling,
    the product w of the three leg frequencies and the bracket t.  Floats or
    arrays."""
    return 16.0 * lam3 * w * t


def _m2(lam3: float, w, t):
    """|M|^2 of a one-to-two decay: the square of _amplitude.  Floats or arrays."""
    amp = _amplitude(lam3, w, t)
    return amp * amp


def _magnitudes(m: ModelParams, branch: BranchLabel, k: float) -> tuple[float, float, float]:
    """(omega, |pi|, |sigma|) of one leg.

    k = 0 is allowed on the gapped branch, where the amplitudes have finite
    limits (spectrum._gapped_at_rest); the gapless amplitudes diverge there
    and are rejected.
    """
    if branch is BranchLabel.G:
        if k == 0.0:
            raise ValueError("gapless leg at k = 0: amplitude diverges")
        return _gapless(m, k)
    if k == 0.0:
        return (m.gap, *_gapped_at_rest(m, m.gap))
    return _gapped(m, k)


def matrix_element(p: PhysicalParams, parent: Leg, child1: Leg, child2: Leg) -> complex:
    """Tree-level amplitude for parent -> child1 + child2.

    Requires momentum conservation to 1e-10 relative; symmetric under exchange
    of the two children; invariant under simultaneous rotation of all momenta
    (only magnitudes enter); scales as 1/Omega^2 at fixed Lambda, c_s.
    """
    residual = parent.momentum - child1.momentum - child2.momentum
    scale = max(parent.k, child1.k, child2.k)
    if scale > 0.0 and float(np.linalg.norm(residual)) > 1e-10 * scale:
        raise ValueError(
            f"momentum not conserved: |parent - child1 - child2| = {np.linalg.norm(residual):.3e}"
        )
    m = params_from_physical(p)
    (w_p, pi_p, sg_p), (w_1, pi_1, sg_1), (w_2, pi_2, sg_2) = (
        _magnitudes(m, leg.branch, leg.k) for leg in (parent, child1, child2)
    )
    gapped = BranchLabel.L
    n = (parent.branch is gapped) - (child1.branch is gapped) - (child2.branch is gapped)
    t = _bracket(pi_p, sg_p, pi_1, sg_1, pi_2, sg_2)
    return -(1j**n) * _amplitude(cubic_coupling(p), w_p * w_1 * w_2, t)
