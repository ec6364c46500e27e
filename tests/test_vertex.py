"""Cubic coupling and tree-level three-point matrix elements."""

import itertools
import math

import numpy as np
import pytest

from tcphonon import (
    BranchLabel,
    Leg,
    PhysicalParams,
    bogoliubov_oracle,
    cubic_coupling,
    lambda_threshold_momentum,
    matrix_element,
    params_from_physical,
)

_P5 = PhysicalParams(1.0, 0.5, 1.0)

# frozen collinear G -> G G probe at (Lambda=1, cs=0.5, Omega=1),
# momenta (0,0,1) -> (0,0,0.3) + (0,0,0.7); purely real by phase structure
_REF_G2G = 0.004792525415658508
# frozen at-rest L -> G G at the threshold momentum, same parameters
_REF_L2G = 0.01615917291167022j


def _leg(branch, kz):
    return Leg(branch, np.array([0.0, 0.0, kz]))


def test_coupling_vanishes_at_lorentz_point():
    assert cubic_coupling(PhysicalParams(1.0, 1.0, 1.0)) == 0.0


def test_coupling_reference_value():
    # (1/4) * 0.5^3 * sqrt(3) = sqrt(3)/32
    assert math.isclose(cubic_coupling(_P5), math.sqrt(3.0) / 32.0, rel_tol=1e-15)


def test_coupling_small_cs_quadratic():
    # lambda3 ~ (Lambda^3 / 4 Omega^2) cs^2 as cs -> 0
    for cs in (1e-3, 2e-3):
        assert math.isclose(cubic_coupling(PhysicalParams(1.0, cs, 1.0)) / cs**2, 0.25, rel_tol=1e-5)


@pytest.mark.parametrize("cs", [0.99, 0.99999, 0.99999999])
def test_coupling_matches_mpmath_near_lorentz_point(cs):
    # c_s^3 sqrt(c_s^-2 - 1) lost 1.7e-15, 5.4e-13 and 1.9e-9 relative at these
    # points to the cancellation in c_s^-2 - 1
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        c = mpmath.mpf(cs)
        reference = c**3 * mpmath.sqrt(1 / (c * c) - 1) / 4
    assert abs(cubic_coupling(PhysicalParams(1.0, cs, 1.0)) - reference) <= 1e-15 * reference


def test_coupling_scales_with_lambda_and_omega():
    base = cubic_coupling(_P5)
    assert math.isclose(cubic_coupling(PhysicalParams(2.0, 0.5, 1.0)), 8.0 * base, rel_tol=1e-14)
    assert math.isclose(cubic_coupling(PhysicalParams(1.0, 0.5, 3.0)), base / 9.0, rel_tol=1e-14)


def test_matrix_element_frozen_collinear_probe():
    val = matrix_element(_P5, _leg(BranchLabel.G, 1.0), _leg(BranchLabel.G, 0.3), _leg(BranchLabel.G, 0.7))
    assert math.isclose(val.real, _REF_G2G, rel_tol=1e-12)
    assert abs(val.imag) < 1e-18


def test_matrix_element_frozen_at_rest_decay():
    kstar = lambda_threshold_momentum(_P5)
    val = matrix_element(
        _P5, _leg(BranchLabel.L, 0.0), _leg(BranchLabel.G, kstar), _leg(BranchLabel.G, -kstar)
    )
    assert abs(val.real) < 1e-18
    assert math.isclose(val.imag, _REF_L2G.imag, rel_tol=1e-12)


def test_at_rest_decay_interference_zero():
    # destructive interference kills the on-shell amplitude at cs = sqrt(3/8)
    p = PhysicalParams(1.0, math.sqrt(3.0 / 8.0), 1.0)
    kstar = lambda_threshold_momentum(p)
    val = matrix_element(
        p, _leg(BranchLabel.L, 0.0), _leg(BranchLabel.G, kstar), _leg(BranchLabel.G, -kstar)
    )
    assert abs(val) < 1e-6


def test_lorentz_point_amplitude_vanishes():
    p = PhysicalParams(1.0, 1.0, 1.0)
    val = matrix_element(p, _leg(BranchLabel.G, 1.0), _leg(BranchLabel.G, 0.4), _leg(BranchLabel.G, 0.6))
    assert val == 0.0


def test_bose_symmetry():
    k1 = np.array([0.2, 0.1, 0.4])
    k2 = np.array([-0.1, 0.3, 0.2])
    parent = Leg(BranchLabel.G, k1 + k2)
    a = matrix_element(_P5, parent, Leg(BranchLabel.G, k1), Leg(BranchLabel.G, k2))
    b = matrix_element(_P5, parent, Leg(BranchLabel.G, k2), Leg(BranchLabel.G, k1))
    assert math.isclose(a.real, b.real, rel_tol=1e-13, abs_tol=1e-18)
    assert math.isclose(a.imag, b.imag, rel_tol=1e-13, abs_tol=1e-18)


def test_rotation_invariance():
    rng = np.random.default_rng(11)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    k1 = np.array([0.2, 0.1, 0.4])
    k2 = np.array([-0.1, 0.3, 0.2])
    a = matrix_element(_P5, Leg(BranchLabel.G, k1 + k2), Leg(BranchLabel.G, k1), Leg(BranchLabel.G, k2))
    b = matrix_element(
        _P5, Leg(BranchLabel.G, rot @ (k1 + k2)), Leg(BranchLabel.G, rot @ k1), Leg(BranchLabel.G, rot @ k2)
    )
    assert abs(a - b) < 1e-12 * abs(a)


def test_omega_scaling():
    # the vertex carries exactly one power of 1/Omega^2 at fixed (Lambda, cs)
    p4 = PhysicalParams(1.0, 0.5, 2.0)
    a = matrix_element(_P5, _leg(BranchLabel.G, 1.0), _leg(BranchLabel.G, 0.3), _leg(BranchLabel.G, 0.7))
    b = matrix_element(p4, _leg(BranchLabel.G, 1.0), _leg(BranchLabel.G, 0.3), _leg(BranchLabel.G, 0.7))
    assert math.isclose(a.real, 4.0 * b.real, rel_tol=1e-14)


def test_gapped_leg_continuous_at_rest():
    # parent L at k = 0 uses the closed amplitude limits; a tiny parent
    # momentum must reproduce it smoothly
    kstar = lambda_threshold_momentum(_P5)
    at_rest = matrix_element(
        _P5, _leg(BranchLabel.L, 0.0), _leg(BranchLabel.G, kstar), _leg(BranchLabel.G, -kstar)
    )
    delta = 1e-7
    moving = matrix_element(
        _P5, _leg(BranchLabel.L, delta), _leg(BranchLabel.G, kstar), _leg(BranchLabel.G, delta - kstar)
    )
    assert abs(moving - at_rest) < 1e-5 * abs(at_rest)


def test_momentum_conservation_enforced():
    with pytest.raises(ValueError):
        matrix_element(_P5, _leg(BranchLabel.G, 1.0), _leg(BranchLabel.G, 0.3), _leg(BranchLabel.G, 0.6))


def test_gapless_leg_at_rest_rejected():
    # Goldstone amplitude diverges at k = 0
    with pytest.raises(ValueError):
        matrix_element(_P5, _leg(BranchLabel.G, 0.0), _leg(BranchLabel.G, 0.5), _leg(BranchLabel.G, -0.5))


def test_leg_validation_and_norm():
    with pytest.raises(ValueError):
        Leg(BranchLabel.G, np.array([1.0, 2.0]))
    # a non-finite component used to give matrix_element (nan+nanj) silently
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="momentum must be a finite 3-vector"):
            Leg(BranchLabel.G, np.array([0.0, bad, 1.0]))
    # a label that is not a BranchLabel used to be taken as the gapped branch
    with pytest.raises(ValueError, match="branch must be a BranchLabel"):
        Leg("G", np.array([0.0, 0.0, 1.0]))
    leg = Leg(BranchLabel.G, np.array([3.0, 0.0, 4.0]))
    assert leg.k == 5.0


def _oracle_matrix_element(p, legs):
    """The complex bracket of the vertex docstring, built from the 4x4
    diagonalization oracle's Fock pairs: the gapped pair conjugated, each leg
    rescaled by sqrt(2 w), the children conjugated."""
    m = params_from_physical(p)
    ws, us = [], []
    for i, leg in enumerate(legs):
        point, a = bogoliubov_oracle(m, leg.k)
        if leg.branch is BranchLabel.G:
            w, pi, sg = point.omega_G, a.pi_G, a.sigma_G
        else:
            w, pi, sg = point.omega_L, a.pi_L.conjugate(), a.sigma_L.conjugate()
        r = math.sqrt(2.0 * w)
        pi, sg = r * pi, r * sg
        if i > 0:
            pi, sg = pi.conjugate(), sg.conjugate()
        ws.append(w)
        us.append((pi, sg))
    (up_pi, up_sg), (u1_pi, u1_sg), (u2_pi, u2_sg) = us
    bracket = up_sg * u1_pi * u2_pi + u1_sg * up_pi * u2_pi + u2_sg * up_pi * u1_pi
    return -1j * 4.0 * cubic_coupling(p) * math.sqrt(2.0 * ws[0] * ws[1] * ws[2]) * bracket


@pytest.mark.parametrize("cs", [0.15, 0.5, math.sqrt(3.0 / 8.0), 0.8, 0.97])
def test_matrix_element_matches_oracle_bracket(cs):
    # every branch assignment of three moving legs, G -> GL and L -> GL
    # included, against a reference that shares no kernel with the vertex
    p = PhysicalParams(1.0, cs, 1.0)
    k1 = np.array([0.2, -0.35, 0.6])
    k2 = np.array([-0.45, 0.1, 0.3])
    for branches in itertools.product(BranchLabel, repeat=3):
        legs = [Leg(b, v) for b, v in zip(branches, (k1 + k2, k1, k2))]
        ref = _oracle_matrix_element(p, legs)
        val = matrix_element(p, *legs)
        assert abs(val - ref) <= 1e-12 * abs(ref), (branches, val, ref)
