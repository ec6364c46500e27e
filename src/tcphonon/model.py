"""Parameter representations and the symmetry-orbit background.

The quadratic + cubic action of the two-field phonon model is fixed by the
microscopic couplings (s, beta, M, Omega).  The physical content of the
quadratic sector is carried by three numbers only: the gap

    Lambda = sqrt(M^2 + beta^2),

the sound speed

    c_s^2 = s^2 M^2 / (M^2 + beta^2),

and the symmetry-breaking scale Omega.  This module holds both
parameterizations and the bidirectional map between them on the s = 1 family,
plus the rotating background solution phi0(t) = exp(mu t Q) phi0(0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "PhysicalParams",
    "BackgroundOrbit",
    "params_from_physical",
    "physical_from_params",
    "background_orbit",
]


@dataclass(frozen=True, slots=True)
class _KernelTerms:
    """The spectrum kernels' model-only subexpressions, each grouped as its kernel groups it."""

    s2: float  # s^2
    m2: float  # M^2
    b2: float  # beta^2
    lam2: float  # Lambda^2 = M^2 + beta^2
    oms2: float  # (1 - s)(1 + s)
    ops2: float  # 1 + s^2
    lin_x: float  # 2 [M^2 (1 - s)(1 + s) + beta^2 (1 + s^2)], D^2's linear coefficient
    lam4: float  # Lambda^4
    sm2: float  # (s^2 M) M
    sm4: float  # sm2^2
    lin_k: float  # 2 s^2 [M^2 (1 - s)(1 + s) + 2 beta^2], k_G's linear coefficient
    two_s2: float  # 2 s^2
    one_minus_s2: float  # 1 - s^2, not (1 - s)(1 + s): the two round apart


@dataclass(frozen=True)
class ModelParams:
    """Microscopic couplings of the quadratic + cubic action.

    s is the dimensionless gradient coefficient of the phase mode, beta the
    first-derivative mixing (mass units), M the gapped-sector mass, Omega the
    symmetry-breaking scale.  The private _terms caches, by name, the
    model-only subexpressions the spectrum kernels read on every call; it is
    not a field, so equality, hash and repr see the four couplings only.
    """

    s: float = 1.0
    beta: float = 0.0
    M: float = 1.0
    Omega: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.M < math.inf:
            raise ValueError(f"M must be positive and finite, got {self.M}")
        if not 0.0 < self.Omega < math.inf:
            raise ValueError(f"Omega must be positive and finite, got {self.Omega}")
        if not 0.0 < self.s <= 1.0:
            raise ValueError(f"s must lie in (0, 1], got {self.s}")
        if not 0.0 <= self.beta < math.inf:
            raise ValueError(f"beta must be non-negative and finite, got {self.beta}")

    @property
    def gap(self) -> float:
        """k -> 0 frequency of the gapped branch, sqrt(M^2 + beta^2)."""
        return math.hypot(self.M, self.beta)

    @functools.cached_property
    def _terms(self) -> _KernelTerms:
        """The _KernelTerms of this parameter set, formed on first use."""
        s2, m2, b2 = self.s * self.s, self.M * self.M, self.beta * self.beta
        lam2, oms2, ops2 = m2 + b2, (1.0 - self.s) * (1.0 + self.s), 1.0 + s2
        sm2 = s2 * self.M * self.M  # (s^2 M) M: s^2 (M^2) rounds differently once s != 1
        return _KernelTerms(
            s2=s2, m2=m2, b2=b2, lam2=lam2, oms2=oms2, ops2=ops2,
            lin_x=2.0 * (m2 * oms2 + b2 * ops2), lam4=lam2 * lam2, sm2=sm2, sm4=sm2 * sm2,
            lin_k=2.0 * s2 * (m2 * oms2 + 2.0 * self.beta * self.beta),
            two_s2=2.0 * s2, one_minus_s2=1.0 - s2,
        )


@dataclass(frozen=True)
class PhysicalParams:
    """The three independent physical parameters: gap, sound speed, scale."""

    Lambda: float = 1.0
    cs: float = 0.5
    Omega: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.Lambda < math.inf:
            raise ValueError(f"Lambda must be positive and finite, got {self.Lambda}")
        if not 0.0 < self.cs <= 1.0:
            raise ValueError(f"cs must lie in (0, 1], got {self.cs}")
        if not 0.0 < self.Omega < math.inf:
            raise ValueError(f"Omega must be positive and finite, got {self.Omega}")


@dataclass(frozen=True)
class BackgroundOrbit:
    """Rotating ground-state orbit: frequency mu and initial 2-vector phi0."""

    mu: float
    phi0: tuple[float, float]


def params_from_physical(p: PhysicalParams) -> ModelParams:
    """Map (Lambda, cs, Omega) to microscopic couplings on the s = 1 family.

    M = cs*Lambda, beta = Lambda*sqrt(1 - cs^2).
    """
    # sqrt((1-cs)(1+cs)) keeps full precision for cs near 1
    beta = p.Lambda * math.sqrt((1.0 - p.cs) * (1.0 + p.cs))
    return ModelParams(s=1.0, beta=beta, M=p.cs * p.Lambda, Omega=p.Omega)


def physical_from_params(m: ModelParams) -> PhysicalParams:
    """Inverse map: Lambda = sqrt(M^2+beta^2), cs = s*M/Lambda."""
    lam = math.hypot(m.M, m.beta)
    return PhysicalParams(Lambda=lam, cs=m.s * m.M / lam, Omega=m.Omega)


def background_orbit(orbit: BackgroundOrbit, t: float) -> np.ndarray:
    """Evolve the background by the SO(2) rotation exp(mu t Q), Q = [[0,-1],[1,0]].

    The Euclidean norm of phi0 is preserved for all t.
    """
    c = math.cos(orbit.mu * t)
    s = math.sin(orbit.mu * t)
    x, y = orbit.phi0
    return np.array([c * x - s * y, s * x + c * y])
