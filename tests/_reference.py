"""High-precision reference model for the tests: the spectrum, lambda3 and both
decay rates, re-derived from the textbook formulas, never imported from
tcphonon.  Where the package avoids a cancellation, the model keeps the textbook
form and spends digits instead, by one rule (digits); it returns mpmath numbers."""

import math
from fractions import Fraction

import mpmath
from mpmath import mpf, sqrt


def digits(cs, k, factor=1.0):
    """Working digits at sound speed cs and momentum k / Lambda: b^2 - 4c loses
    about 2 log10(k) of them at large k, the vertex bracket about as many at
    small k, and both log10(1 / (1 - cs^2)) near the sound line; a bracket
    proportional to a small factor (8 cs^2 - 3 at rest) loses log10(1 / factor)."""
    return 30 + math.ceil(2 * abs(math.log10(k)) - math.log10((1 - cs) * (1 + cs) * factor))


def _roots(s2, b2, m2, u):
    """(x_G, x_L, D): the roots x = omega^2 of x^2 - b x + c at u = k^2, D = sqrt(b^2 - 4c)."""
    b, c = m2 + b2 + u * (1 + s2), s2 * u * (m2 + u)
    d = sqrt(b * b - 4 * c)
    x_l = (b + d) / 2
    return c / x_l, x_l, d


def _gapless(s2, b2, m2, q):
    """(omega_G, |pi_G|, |sigma_G|, omega_G') at q, omega_G' by implicit
    differentiation of the quartic F = (x - s^2 u)(x - M^2 - u) - beta^2 x."""
    u = q * q
    x, x_l, d = _roots(s2, b2, m2, u)
    w, a = sqrt(x), x_l - s2 * u
    f_u, f_x = -s2 * (x - m2 - u) - (x - s2 * u), (x - m2 - u) + (x - s2 * u) - b2
    return (w, sqrt(a * w / (2 * s2 * u * d)), sqrt(b2 * x_l / a * w / (2 * (m2 + u) * d)),
            -q * f_u / (w * f_x))


def _k_of_omega(s2, b2, m2, w):
    """Gapless momentum at frequency w: the larger root u of s^2 u^2 - B u + C."""
    b, c = w * w * (1 + s2) - s2 * m2, w * w * (w * w - m2 - b2)
    root = sqrt(b * b - 4 * s2 * c)
    return sqrt((b + root) / (2 * s2) if b >= 0 else 2 * c / (b - root))


def modes(s, beta, mass, k):
    """(omega_G, omega_L, |pi_G|, |pi_L|, |sigma_G|, |sigma_L|, omega_G') of the
    model (s, beta, M) at momentum k."""
    lam = math.hypot(mass, beta)
    with mpmath.workdps(digits(s * mass / lam, k / lam)):
        (s2, b2, m2), u = (mpf(x) ** 2 for x in (s, beta, mass)), mpf(k) ** 2
        w_g, pi_g, sg_g, slope = _gapless(s2, b2, m2, mpf(k))
        x_g, x_l, d = _roots(s2, b2, m2, u)
        w_l, bb = sqrt(x_l), (m2 + u) * (x_l - s2 * u) / x_l
        return (w_g, w_l, pi_g, sqrt(b2 * x_g / bb * w_l / (2 * s2 * u * d)), sg_g,
                sqrt(bb * w_l / (2 * (m2 + u) * d)), slope)


def sound_excess(s, beta, mass, k):
    """(omega_G / k - cs, omega_G' - cs) of the model (s, beta, M) at momentum k."""
    w_g, *_, slope = modes(s, beta, mass, k)
    lam = math.hypot(mass, beta)
    with mpmath.workdps(digits(s * mass / lam, k / lam)):
        cs = s * mpf(mass) / mpmath.hypot(mass, beta)
        return w_g / k - cs, slope - cs


def _family(cs):
    """(s^2, beta^2, M^2) of the s = 1 family at Lambda = 1 and the exact cs."""
    return mpf(1), 1 - mpf(cs) ** 2, mpf(cs) ** 2


def deficit(cs, k, x):
    """(omega_G(k) - omega_G(x k) - omega_G(k - x k)) / omega_G(k) on the s = 1
    family, at twice digits(cs, k): the difference cancels about as many again."""
    with mpmath.workdps(2 * digits(cs, k)):
        fam, k = _family(cs), mpf(k)
        w_k, w_1, w_2 = (sqrt(_roots(*fam, q * q)[0]) for q in (k, x * k, k - x * k))
        return (w_k - w_1 - w_2) / w_k


def coupling(cs):
    """lambda3 = cs^3 sqrt(cs^-2 - 1) / 4 at Lambda = Omega = 1."""
    with mpmath.workdps(digits(cs, 1)):
        return mpf(cs) ** 3 * sqrt(1 / mpf(cs) ** 2 - 1) / 4


def rate_g(cs, k):
    """Gamma_{G->2G} at Lambda = Omega = 1: Int_0^k dq1 q1^2 |M|^2 / (4 w_1 w_2)
    q2 / (k q1 omega_G'(q2)) / (8 pi w_k), q2 = k_G(w_k - w_1), |M| = 16 lambda3
    w_k w_1 w_2 t.  quad stops at an absolute error, so the integrand is taken
    relative to its value at k / 2."""
    with mpmath.workdps(digits(cs, k)):
        fam, lam3, k = _family(cs), coupling(cs), mpf(k)
        w_k, pi_k, sg_k, _ = _gapless(*fam, k)

        def integrand(q1):
            w_1, pi_1, sg_1, _ = _gapless(*fam, q1)
            if w_k - w_1 <= 0:  # rounding at tanh-sinh nodes next to q1 = k
                return mpf(0)
            q2 = _k_of_omega(*fam, w_k - w_1)
            w_2, pi_2, sg_2, slope = _gapless(*fam, q2)
            t = sg_k * pi_1 * pi_2 - sg_1 * pi_k * pi_2 - sg_2 * pi_k * pi_1
            amp = 16 * lam3 * w_k * w_1 * w_2 * t
            return q1 * q1 * amp * amp / (4 * w_1 * w_2) * q2 / (k * q1 * slope)

        scale = integrand(k / 2)
        total, err = mpmath.quad(lambda q: integrand(q) / scale, [0, k], error=True)
        if not err <= 1e-25 * total:
            raise ArithmeticError(f"rate_g quadrature error {err} of {total} at cs={cs}, k={k}")
        return scale * total / (8 * mpmath.pi * w_k)


def rate_lambda(cs):
    """Gamma_{Lambda->2G} at Lambda = Omega = 1: k*^2 |M|^2 / (8 pi omega_G'(k*)),
    k* = k_G(1/2), |M| = 16 lambda3 omega_G(k*)^2 t, and at rest |pi_L| = beta / sqrt(2)
    and |sigma_L| = 1 / sqrt(2) in the bracket t."""
    with mpmath.workdps(digits(cs, 0.5, float(abs(8 * Fraction(cs) ** 2 - 3)))):
        (s2, b2, m2), half = _family(cs), mpf(1) / 2
        kstar = _k_of_omega(s2, b2, m2, half)
        w, pi_g, sg_g, slope = _gapless(s2, b2, m2, kstar)
        t = sqrt(half) * pi_g * pi_g - 2 * sg_g * sqrt(b2 * half) * pi_g
        amp = 16 * coupling(cs) * w * w * t
        return kstar * kstar * amp * amp / (8 * mpmath.pi * slope)
