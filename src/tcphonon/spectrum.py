"""Two-branch dispersion and canonical Fock amplitudes of the free theory.

The linearized equations of motion couple the phase mode pi_c and the radial
mode sigma through single time derivatives,

    pi_c'' + s^2 k^2 pi_c = -beta sigma',
    sigma'' + (M^2 + k^2) sigma = beta pi_c',

so the squared branch frequencies x = omega^2 solve the resolvent quadratic

    x^2 - b x + c = 0,   b = Lambda^2 + k^2 (1 + s^2),
                         c = s^2 k^2 (M^2 + k^2),

with Lambda^2 = M^2 + beta^2.  The smaller root loses all leading digits to
cancellation at k << Lambda, so it is always recovered from the root product
c / x_larger.

Mode amplitudes are fixed by canonical equal-time commutators of (pi_c, sigma)
with their conjugate momenta p_pi = pi_c' + beta sigma and p_sigma = sigma'.
Writing u = k^2, D = sqrt(b^2 - 4c), A = x_L - s^2 u, B = (M^2+u) A / x_L,
the squared magnitudes are

    |pi_G|^2    = A omega_G / (2 s^2 u D)
    |pi_L|^2    = (beta^2 x_G / B) omega_L / (2 s^2 u D)
    |sigma_G|^2 = (beta^2 x_L / A) omega_G / (2 (M^2+u) D)
    |sigma_L|^2 = B omega_L / (2 (M^2+u) D)

These forms are finite and exact in the decoupled limit beta = 0 (A = B = D
there), so no special-case branch is needed.  Phases follow from the equation
of motion sigma_a = -i (s^2 k^2 - omega_a^2) pi_a / (beta omega_a) for modes
proportional to exp(-i omega t), with pi_G and sigma_L chosen real positive;
pi_L and sigma_G come out negative-imaginary.  bogoliubov_oracle provides an
independent brute-force check by diagonalizing the 4x4 canonical system.

The rates need two more gapless-branch kernels.  The inverse k_G(w) solves
the characteristic quartic, a quadratic in u = k^2 at fixed w, whose larger
root is the gapless branch for every w >= 0; its discriminant is expanded,
as D^2 is, into non-negative terms.  The slope needs no differentiation of
the resolvent: the Hamiltonian z^T K z / 2 depends on u only through
s^2 u pi_c^2 + u sigma^2, so by the Hellmann-Feynman theorem (Feynman, Phys.
Rev. 56, 340, 1939) on the canonically normalized mode

    d omega_G / dk = 2k (s^2 |pi_G|^2 + |sigma_G|^2),

from the amplitudes the caller already holds.  The Monte-Carlo oracle also
needs omega_G's excess over the sound line, omega_G / k - cs and
d omega_G / dk - cs, which a difference of doubles loses once it is below an
ulp (cs -> 1 at small k); _sound_excess forms both in non-negative terms.

The kernels read the model-only subexpressions of their formulas by name
from ModelParams._terms, formed once per parameter set and each grouped as
the formula below groups it, so caching moves no bit.  Every term that
depends on k or w is formed here.  The kernels are unchecked: the public
dispersion and amplitudes raise a RuntimeError naming k where k^2, omega_G^2
or omega_G^2 omega_L^2 leaves the normal double range, instead of returning
a silent 0, inf, NaN or a subnormal with lost digits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

__all__ = [
    "DispersionPoint",
    "ModeAmplitudes",
    "dispersion",
    "amplitudes",
    "bogoliubov_oracle",
]

_TINY = sys.float_info.min  # smallest normal double


@dataclass(frozen=True)
class DispersionPoint:
    """The two branch frequencies at one wave-number, omega_G <= omega_L."""

    omega_G: float
    omega_L: float


@dataclass(frozen=True)
class ModeAmplitudes:
    """Complex Fock-space field amplitudes of both branches at fixed k."""

    pi_G: complex
    pi_L: complex
    sigma_G: complex
    sigma_L: complex


def _resolvent(m: ModelParams, u):
    """Roots of x^2 - bx + c at u = k^2: returns (x_G, x_L, D) with x_G <= x_L.

    u is a float or a numpy array.  The discriminant b^2 - 4c is expanded to
        D^2 = Lambda^4 + 2u [M^2(1-s^2) + beta^2(1+s^2)] + u^2 (1-s^2)^2,
    whose terms are all non-negative for s <= 1, so D >= Lambda^2 > 0 and
    x_L > 0 need no guard; the naive difference loses ~u/Lambda^2 digits to
    cancellation once k >> Lambda.
    """
    t = m._terms
    b = t.lam2 + u * t.ops2
    c = t.s2 * u * (t.m2 + u)
    disc = t.lam4 + u * (t.lin_x + u * t.oms2 * t.oms2)
    d = math.sqrt(disc) if type(disc) is float else np.sqrt(disc)
    x_l = 0.5 * (b + d)
    return c / x_l, x_l, d


def _omega_g(m: ModelParams, q: float) -> float:
    """Gapless-branch frequency omega_G(q) of a float q >= 0."""
    x_g, _, _ = _resolvent(m, q * q)
    return math.sqrt(x_g)


def _k_of_omega(m: ModelParams, w: float) -> float:
    """Gapless-branch momentum at frequency w >= 0: the inverse of omega_G(k).

    At fixed w the characteristic quartic is a quadratic in u = k^2,

        s^2 u^2 - B u + C = 0,  B = w^2 (1 + s^2) - s^2 M^2,  C = w^2 (w^2 - Lambda^2),

    whose larger root is the gapless branch for every w >= 0 (the smaller
    one, when positive, is the gapped branch at w > Lambda).  The
    discriminant B^2 - 4 s^2 C is expanded to

        s^4 M^4 + 2 s^2 w^2 [M^2 (1 - s^2) + 2 beta^2] + w^4 (1 - s^2)^2,

    whose terms are all non-negative, and the root is taken as
    (B + sqrt(disc)) / (2 s^2) for B >= 0 and as 2C / (B - sqrt(disc)) for
    B < 0, so nothing cancels.
    """
    t = m._terms
    w2 = w * w
    b = w2 * t.ops2 - t.sm2
    c = w2 * (w2 - t.lam2)
    root = math.sqrt(t.sm4 + w2 * (t.lin_k + w2 * t.oms2 * t.oms2))
    u = (b + root) / t.two_s2 if b >= 0.0 else 2.0 * c / (b - root)
    return math.sqrt(u)


def _gapless_slope(m: ModelParams, k, pi_g, sg_g):
    """Group velocity d omega_G / dk = 2k (s^2 |pi_G|^2 + |sigma_G|^2) at k from
    that k's gapless amplitudes (module docstring).  Floats or arrays."""
    return 2.0 * k * (m._terms.s2 * pi_g * pi_g + sg_g * sg_g)


def _sound_excess(m: ModelParams, u, x_l, d, slope: bool = False):
    """omega_G's excess over the sound line cs k at u = k^2 > 0 on the s = 1
    family, from the resolvent's x_L and D at the same u: nu = omega_G / k - cs,
    and with slope also sigma = d omega_G / dk - cs.  Floats or arrays.

    At s = 1, D^2 = Lambda^4 + 4 beta^2 u, and the phase velocity v = omega_G / k
    has v^2 = (M^2 + u) / x_L.  Its excess over cs^2 = M^2 / Lambda^2 is

        P = v^2 - cs^2 = (u / x_L) (beta^2 / Lambda^2) R,
        R = (D - Lambda^2 + 2 beta^2) / (D + Lambda^2),  D - Lambda^2 = 4 beta^2 u / (D + Lambda^2),

    so nu = P / (v + cs), and with omega_G = k v(u) the slope is v + u P' / v:

        sigma = nu + u P' / v,
        P' = (beta^2 / Lambda^2) [R (Lambda^2 (D + Lambda^2) + 2 beta^2 u) / (2 D x_L^2)
                                  + (u / x_L) 4 M^2 beta^2 / (D (D + Lambda^2)^2)].

    Every term is non-negative, so nu and sigma keep their digits where
    omega_G - cs k and d omega_G / dk - cs are far below an ulp of omega_G
    (the excess is about (1 - cs^2)^2 u / Lambda^2 at small u).  No
    intermediate exceeds the order of Lambda^4.
    """
    t = m._terms
    sqrt = math.sqrt if type(x_l) is float else np.sqrt
    dl = d + t.lam2
    r = (4.0 * t.b2 * u / dl + 2.0 * t.b2) / dl
    ratio = t.b2 / t.lam2
    p = u / x_l * ratio * r
    cs2 = t.m2 / t.lam2
    v = sqrt(cs2 + p)
    nu = p / (v + math.sqrt(cs2))
    if not slope:
        return nu
    dp = ratio * (r * ((t.lam2 * dl + 2.0 * t.b2 * u) / (2.0 * d * x_l)) / x_l
                  + u / x_l * 4.0 * (t.m2 / dl) * (t.b2 / dl) / d)
    return nu, nu + u * dp / v


def _excess(m: ModelParams, u, d):
    """A = x_L - s^2 u written without cancellation (all addends positive)."""
    t = m._terms
    return 0.5 * (t.lam2 + u * t.one_minus_s2 + d)


def _gapless(m: ModelParams, k):
    """Gapless-branch (omega_G, |pi_G|, |sigma_G|) at k > 0.

    k is a float or a numpy array.  Floats take math.sqrt, the cheaper call at
    the quadrature's nodes, and arrays np.sqrt; both round correctly, so an
    array call equals the elementwise float calls bit for bit.
    """
    u = k * k
    return _gapless_from_roots(m, u, *_resolvent(m, u))


def _gapless_from_roots(m: ModelParams, u, x_g, x_l, d):
    """_gapless at u = k^2 from the resolvent's (x_G, x_L, D) at the same u.

    Lets a caller that already holds the roots, or a subset of them, skip
    the resolvent; the result is _gapless's bit for bit.
    """
    t = m._terms
    sqrt = math.sqrt if type(x_g) is float else np.sqrt
    w_g = sqrt(x_g)
    a = _excess(m, u, d)
    pi_g = sqrt(a * w_g / (2.0 * (t.s2 * u) * d))
    sg_g = sqrt(t.b2 * x_l / a * w_g / (2.0 * (t.m2 + u) * d))
    return w_g, pi_g, sg_g


def _gapped_from_roots(
    m: ModelParams, u: float, x_g: float, x_l: float, d: float
) -> tuple[float, float, float]:
    """Gapped-branch (omega_L, |pi_L|, |sigma_L|) at u = k^2 > 0 from the
    resolvent's float (x_G, x_L, D) at the same u."""
    t = m._terms
    w_l = math.sqrt(x_l)
    mk = t.m2 + u
    bb = mk * _excess(m, u, d) / x_l
    pi_l = math.sqrt(t.b2 * x_g / bb * w_l / (2.0 * (t.s2 * u) * d))
    sg_l = math.sqrt(bb * w_l / (2.0 * mk * d))
    return w_l, pi_l, sg_l


def _gapped_at_rest(m: ModelParams, lam: float) -> tuple[float, float]:
    """Gapped-branch (|pi_L|, |sigma_L|) at k = 0, where both are finite:
    |sigma_L| = 1/sqrt(2 Lambda) and |pi_L| = (beta/Lambda) |sigma_L|.

    lam is the gap sqrt(M^2 + beta^2); a caller holding PhysicalParams
    passes its Lambda.
    """
    sg_l = 1.0 / math.sqrt(2.0 * lam)
    return (m.beta / lam) * sg_l, sg_l


def _checked_roots(m: ModelParams, k: float):
    """(u, (x_G, x_L, D)) at u = k^2 > 0 for the public functions.

    Raises a RuntimeError naming k, the gap and omega_G unless u, x_G and
    x_G x_L are all normal finite doubles: outside that range the resolvent
    returns 0, inf, NaN or a subnormal x_G with lost digits.  The resolvent
    runs only at a normal u: at u = 0 with a gap whose square underflows it
    would divide 0 by 0.
    """
    u = k * k
    roots = _resolvent(m, u) if _TINY <= u < math.inf else (math.nan, math.nan, math.nan)
    x_g, x_l, _ = roots
    if not (_TINY <= u < math.inf and _TINY <= x_g < math.inf and _TINY <= x_g * x_l < math.inf):
        raise RuntimeError(
            f"omega_G leaves the normal double range at k={k!r}, gap={m.gap!r}: "
            f"k^2={u!r}, omega_G^2={x_g!r}, omega_G^2 omega_L^2={x_g * x_l!r}"
        )
    return u, roots


def dispersion(m: ModelParams, k: float) -> DispersionPoint:
    """Branch frequencies omega_G(k) <= omega_L(k) of the coupled system.

    At k > 0 a RuntimeError names k where k^2 or omega_G^2 leaves the normal
    double range (_checked_roots).
    """
    if not 0.0 <= k < math.inf:
        raise ValueError(f"wave-number k must be non-negative and finite, got {k}")
    x_g, x_l, _ = _checked_roots(m, k)[1] if k > 0.0 else _resolvent(m, 0.0)
    return DispersionPoint(omega_G=math.sqrt(x_g), omega_L=math.sqrt(x_l))


def amplitudes(m: ModelParams, k: float) -> ModeAmplitudes:
    """Canonical Fock amplitudes at k > 0.

    Convention: pi_G and sigma_L real positive; the equation of motion then
    forces pi_L and sigma_G negative-imaginary.  The four commutator sum rules
    (see the module docstring) hold at every k.  A RuntimeError names k
    where k^2 or omega_G^2 leaves the normal double range (_checked_roots).
    """
    if not 0.0 < k < math.inf:
        raise ValueError(
            f"amplitudes need finite k > 0 (Goldstone amplitude diverges at k = 0), got {k}"
        )
    u, roots = _checked_roots(m, k)
    _, pi_g, sg_g = _gapless_from_roots(m, u, *roots)
    _, pi_l, sg_l = _gapped_from_roots(m, u, *roots)
    return ModeAmplitudes(
        pi_G=complex(pi_g, 0.0),
        pi_L=complex(0.0, -pi_l),
        sigma_G=complex(0.0, -sg_g),
        sigma_L=complex(sg_l, 0.0),
    )


def _canonical_matrix(m: ModelParams, k: float) -> np.ndarray:
    """Hamiltonian matrix K of the first-order system z' = J K z.

    Coordinates z = (pi_c, sigma, p_pi, p_sigma) with p_pi = pi_c' + beta sigma
    and p_sigma = sigma'; H = z^T K z / 2.
    """
    u = k * k
    return np.array(
        [
            [m.s * m.s * u, 0.0, 0.0, 0.0],
            [0.0, m.M * m.M + u + m.beta * m.beta, -m.beta, 0.0],
            [0.0, -m.beta, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


_J = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)


def bogoliubov_oracle(m: ModelParams, k: float) -> tuple[DispersionPoint, ModeAmplitudes]:
    """Brute-force canonical quantization of the linear system at k > 0.

    Diagonalizes z' = J K z numerically, keeps the two positive-frequency
    eigenvectors (eigenvalue -i omega), and normalizes each to i v^dag J v = 1
    so that all equal-time commutators take canonical values.  Phases are fixed
    as in amplitudes(): pi-component real positive on the gapless branch,
    sigma-component real positive on the gapped branch.  Serves as independent
    ground truth for dispersion() and amplitudes().
    """
    if not k > 0:
        raise ValueError(f"bogoliubov_oracle needs k > 0, got {k}")
    a = _J @ _canonical_matrix(m, k)
    vals, vecs = np.linalg.eig(a)  # raises LinAlgError on solver failure
    order = [i for i in range(4) if vals[i].imag < 0.0]
    if len(order) != 2:
        raise RuntimeError(f"expected 2 positive-frequency modes, found {len(order)}")
    order.sort(key=lambda i: -vals[i].imag)  # ascending omega
    omegas = []
    pairs = []
    for idx, i in enumerate(order):
        w = -vals[i].imag
        v = vecs[:, i]
        norm = (1j * (v.conj() @ (_J @ v))).real
        if norm < 0.0:  # picked the conjugate partner; flip to positive norm
            v = v.conj()
            norm = -norm
        v = v / math.sqrt(norm)
        # rotate the free overall phase: branch 0 (gapless) -> pi real+,
        # branch 1 (gapped) -> sigma real+
        ref = v[0] if idx == 0 else v[1]
        phase = ref / abs(ref)
        v = v / phase
        omegas.append(w)
        pairs.append((v[0], v[1]))
    point = DispersionPoint(omega_G=omegas[0], omega_L=omegas[1])
    amps = ModeAmplitudes(
        pi_G=pairs[0][0],
        pi_L=pairs[1][0],
        sigma_G=pairs[0][1],
        sigma_L=pairs[1][1],
    )
    return point, amps
