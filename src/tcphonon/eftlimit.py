"""Single-field long-wavelength EFT relation and its numerical cross-check.

At momenta far below the gap the two-field theory reduces to a single
Goldstone EFT whose quadratic coefficient alpha_2 fixes the sound speed,
1/c_s^2 = 1 + 2 alpha_2.

verify_long_wavelength checks numerically that the full dispersion reproduces
the EFT sound speed as k -> 0 (Richardson extrapolation in k^2) and that the
gap identity M s / c_s = sqrt(M^2 + beta^2) holds algebraically.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .model import PhysicalParams, params_from_physical
from .spectrum import dispersion

__all__ = ["LongWavelengthReport", "cs_from_alpha2", "verify_long_wavelength"]


@dataclass(frozen=True)
class LongWavelengthReport:
    """Result of the k -> 0 consistency check."""

    cs_extrapolated: float
    cs_residual: float
    gap_residual: float


def cs_from_alpha2(alpha2: float) -> float:
    """Sound speed (1 + 2 alpha2)^(-1/2); alpha2 <= -1/2 has no real solution.

    A ValueError names alpha2 where no positive sound speed comes out: NaN,
    inf, and alpha2 above half the largest double, where 1 + 2 alpha2
    overflows, are rejected rather than returned as NaN or 0.0.
    """
    if not -0.5 < alpha2 <= 0.5 * sys.float_info.max:
        raise ValueError(f"alpha2 must lie in (-1/2, {0.5 * sys.float_info.max:.6g}] "
                         f"for a positive sound speed, got {alpha2}")
    return 1.0 / math.sqrt(1.0 + 2.0 * alpha2)


def verify_long_wavelength(p: PhysicalParams) -> LongWavelengthReport:
    """Extrapolate omega_G(k)/k to k -> 0 and compare with the EFT sound speed.

    The phase velocity approaches c_s with an O(k^2) dispersive correction, so
    two Richardson stages over the ladder k = {1e-3, 1e-4, 1e-5} Lambda cancel
    the k^2 and k^4 terms.  Also reports the algebraic gap-identity residual
    |M s / c_s - sqrt(M^2 + beta^2)| / Lambda.
    """
    m = params_from_physical(p)
    base = (1e-3 * p.Lambda, 1e-4 * p.Lambda, 1e-5 * p.Lambda)
    c = [dispersion(m, k).omega_G / k for k in base]
    # ladder ratio 10 => each stage cancels a factor 100 in the k^2 series
    r1 = (100.0 * c[1] - c[0]) / 99.0
    r2 = (100.0 * c[2] - c[1]) / 99.0
    cs_extrap = (10000.0 * r2 - r1) / 9999.0
    gap_residual = abs(m.M * m.s / p.cs - m.gap) / p.Lambda
    return LongWavelengthReport(
        cs_extrapolated=cs_extrap,
        cs_residual=abs(cs_extrap - p.cs),
        gap_residual=gap_residual,
    )
