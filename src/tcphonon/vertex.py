"""Cubic interaction vertex and tree-level three-point matrix elements.

On the s = 1 family the only surviving cubic operator is pi^2 sigma with
coupling

    lambda3 = (Lambda^3 / 4 Omega^2) c_s^3 sqrt(c_s^-2 - 1),

which vanishes at the Lorentz point c_s = 1.  The one-to-two matrix element
places the sigma-leg on each of the three particles in turn and sums
sigma-amplitude x pi-amplitude x pi-amplitude, conjugating outgoing legs:

    M = -i (Lambda^3/Omega^2) c_s^3 sqrt(c_s^-2 - 1) sqrt(2 w_p w_1 w_2)
        x [ u_sig(p) u_pi(1)* u_pi(2)* + u_sig(1)* u_pi(p) u_pi(2)*
            + u_sig(2)* u_pi(p) u_pi(1)* ]

where u_pi, u_sig are the mode pairs of each leg rescaled by sqrt(2 w_leg)
(dimensionless; the gapless u_pi is exactly 1 in the decoupled limit).  The
phase convention inside the bracket is fixed per branch:

    gapless:  u_pi real positive, u_sig = -i |u_sig|
    gapped:   u_pi = +i |u_pi|,   u_sig real positive

i.e. the gapped pair enters as the complex conjugate of the canonical Fock
pair of spectrum.amplitudes.  With these signs the at-rest gapped-to-2-gapless
bracket is |sigma_L| pi_G^2 - 2 |sigma_G| |pi_L| pi_G, whose destructive
interference produces the decay-rate zero at c_s = sqrt(3/8), and the
gapless-to-2-gapless bracket carries the soft-momentum cancellation that
suppresses long-wavelength decay.  _at_rest_bracket and _g2g_bracket are these
two brackets on amplitude magnitudes, and _m2 turns a bracket into |M|^2;
the rates and the Monte-Carlo oracle evaluate the vertex through them.
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
        mom = np.asarray(self.momentum, dtype=float)
        if mom.shape != (3,):
            raise ValueError(f"momentum must be a 3-vector, got shape {mom.shape}")
        object.__setattr__(self, "momentum", mom)

    @property
    def k(self) -> float:
        return float(np.linalg.norm(self.momentum))


def cubic_coupling(p: PhysicalParams) -> float:
    """Cubic pi^2-sigma coupling (mass units); exactly zero at c_s = 1."""
    arg = 1.0 / (p.cs * p.cs) - 1.0
    if arg < 0.0:  # guard roundoff at cs = 1
        arg = 0.0
    return (p.Lambda**3 / (4.0 * p.Omega**2)) * p.cs**3 * math.sqrt(arg)


def _mode_pair(m: ModelParams, branch: BranchLabel, k: float) -> tuple[float, complex, complex]:
    """(omega, pi, sigma) of one leg in the vertex phase convention.

    k = 0 is allowed on the gapped branch, where the amplitudes have finite
    limits (spectrum._gapped_at_rest); the gapless amplitudes diverge there
    and are rejected.
    """
    if branch is BranchLabel.G:
        if k == 0.0:
            raise ValueError("gapless leg at k = 0: amplitude diverges")
        w_g, pi_g, sg_g = _gapless(m, k)
        return w_g, complex(pi_g, 0.0), complex(0.0, -sg_g)
    if k == 0.0:
        w_l = m.gap
        pi_l, sg_l = _gapped_at_rest(m, w_l)
    else:
        w_l, pi_l, sg_l = _gapped(m, k)
    return w_l, complex(0.0, pi_l), complex(sg_l, 0.0)


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
    w_p, pi_p, sg_p = _mode_pair(m, parent.branch, parent.k)
    w_1, pi_1, sg_1 = _mode_pair(m, child1.branch, child1.k)
    w_2, pi_2, sg_2 = _mode_pair(m, child2.branch, child2.k)
    # per-leg rescale to dimensionless pairs; children conjugated (outgoing)
    r_p, r_1, r_2 = math.sqrt(2.0 * w_p), math.sqrt(2.0 * w_1), math.sqrt(2.0 * w_2)
    up_pi, up_sg = r_p * pi_p, r_p * sg_p
    u1_pi, u1_sg = (r_1 * pi_1).conjugate(), (r_1 * sg_1).conjugate()
    u2_pi, u2_sg = (r_2 * pi_2).conjugate(), (r_2 * sg_2).conjugate()
    bracket = up_sg * u1_pi * u2_pi + u1_sg * up_pi * u2_pi + u2_sg * up_pi * u1_pi
    prefactor = 4.0 * cubic_coupling(p) * math.sqrt(2.0 * w_p * w_1 * w_2)
    return -1j * prefactor * bracket


def _m2(pref: float, w, t):
    """|M|^2 = 16 pref^2 w^2 t^2 of a one-to-two decay, from pref = 4 cubic_coupling,
    the product w of the three leg frequencies and the bracket t of
    matrix_element (only its magnitude enters).  Floats or arrays."""
    return 16.0 * pref * pref * w * w * t * t


def _at_rest_bracket(m: ModelParams, lam: float, pi_g, sg_g):
    """Bracket |sigma_L| pi_G^2 - 2 |sigma_G| |pi_L| pi_G of the at-rest decay
    L -> G G, from the daughters' gapless amplitudes; its sign flip at
    c_s = sqrt(3/8) is the zero of the rate."""
    pi_l, sg_l = _gapped_at_rest(m, lam)
    return sg_l * pi_g * pi_g - 2.0 * sg_g * pi_l * pi_g


def _g2g_bracket(pi_k, sg_k, pi_1, sg_1, pi_2, sg_2):
    """Bracket -|s_k| p_1 p_2 + |s_1| p_k p_2 + |s_2| p_k p_1 of G -> G G from
    the gapless amplitude magnitudes of parent k and daughters 1, 2 (the phase
    structure makes the full bracket purely imaginary)."""
    return -sg_k * pi_1 * pi_2 + sg_1 * pi_k * pi_2 + sg_2 * pi_k * pi_1
