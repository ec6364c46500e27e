"""Parameter maps, validation, and the rotating background orbit."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from tcphonon import (
    BackgroundOrbit,
    ModelParams,
    PhysicalParams,
    background_orbit,
    params_from_physical,
    physical_from_params,
)


def test_params_from_physical_reference_point():
    m = params_from_physical(PhysicalParams(1.0, 0.5, 1.0))
    assert m.s == 1.0
    assert math.isclose(m.M, 0.5, rel_tol=1e-15)
    assert math.isclose(m.beta, math.sqrt(0.75), rel_tol=1e-15)  # 0.8660254...


def test_params_from_physical_pythagorean_point():
    m = params_from_physical(PhysicalParams(5.0, 0.6, 10.0))
    assert math.isclose(m.M, 3.0, rel_tol=1e-15)
    assert math.isclose(m.beta, 4.0, rel_tol=1e-15)
    assert m.Omega == 10.0


def test_params_from_physical_decoupling_point():
    # cs = 1 must land exactly on beta = 0, not within roundoff of it
    m = params_from_physical(PhysicalParams(1.0, 1.0, 1.0))
    assert m.M == 1.0
    assert m.beta == 0.0


def test_physical_from_params_pythagorean_point():
    p = physical_from_params(ModelParams(s=1.0, beta=4.0, M=3.0))
    assert math.isclose(p.Lambda, 5.0, rel_tol=1e-15)
    assert math.isclose(p.cs, 0.6, rel_tol=1e-15)


def test_physical_from_params_decoupled_and_symmetric():
    p = physical_from_params(ModelParams(s=1.0, beta=0.0, M=1.0))
    assert p.Lambda == 1.0 and p.cs == 1.0
    q = physical_from_params(ModelParams(s=1.0, beta=1.0, M=1.0))
    assert math.isclose(q.Lambda, math.sqrt(2.0), rel_tol=1e-15)
    assert math.isclose(q.cs, 1.0 / math.sqrt(2.0), rel_tol=1e-15)


def test_parameter_maps_roundtrip():
    for lam in (0.5, 1.0, 7.0):
        for cs in (0.05, 0.3, 0.6123724, 0.9, 1.0):
            p = PhysicalParams(lam, cs, 2.0)
            q = physical_from_params(params_from_physical(p))
            assert math.isclose(q.Lambda, lam, rel_tol=1e-14)
            assert math.isclose(q.cs, cs, rel_tol=1e-14, abs_tol=1e-14)
            assert q.Omega == 2.0


def test_gap_property():
    m = ModelParams(s=1.0, beta=4.0, M=3.0)
    assert m.gap == 5.0


def test_squares_cache_leaves_model_params_unchanged():
    # the kernels' cached model-only subexpressions (squares included) are not
    # fields: an instance that has formed them compares, hashes, prints,
    # copies and pickles like a fresh one
    m, fresh = ModelParams(s=0.7, beta=0.9, M=1.1), ModelParams(s=0.7, beta=0.9, M=1.1)
    t = m._terms
    assert (t.s2, t.m2, t.b2, t.lam2, t.oms2) == (0.7 * 0.7, 1.1 * 1.1, 0.9 * 0.9,
                                                  1.1 * 1.1 + 0.9 * 0.9, (1.0 - 0.7) * (1.0 + 0.7))
    assert m._terms is t
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
    assert [f.name for f in dataclasses.fields(m)] == ["s", "beta", "M", "Omega"]
    replaced = dataclasses.replace(m, M=2.0)
    assert replaced == ModelParams(s=0.7, beta=0.9, M=2.0)
    assert replaced._terms.m2 == 4.0
    assert replaced._terms == ModelParams(s=0.7, beta=0.9, M=2.0)._terms != m._terms
    restored = pickle.loads(pickle.dumps(m))
    assert restored == m and hash(restored) == hash(m) and restored._terms == m._terms
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.s = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        m._terms = ()
    # the record itself is frozen and holds its fields in slots
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.s2 = 0.5
    assert not hasattr(t, "__dict__")


def test_terms_are_the_kernels_inline_expressions():
    # each cached subexpression is grouped as its kernel wrote it inline; at
    # s = 0.6, M = 1.3 the k_G kernel's (s^2 M) M and s^2 (M^2) round apart,
    # and so do (1 - s)(1 + s) and 1 - s^2
    s, beta, M = 0.6, 0.8, 1.3
    m = ModelParams(s=s, beta=beta, M=M)
    s2, m2, b2 = s * s, M * M, beta * beta
    lam2, oms2 = m2 + b2, (1.0 - s) * (1.0 + s)
    mid_x, mid_k, sm2 = m2 * oms2 + b2 * (1.0 + s2), m2 * oms2 + 2.0 * beta * beta, s2 * M * M
    assert sm2 != s2 * m2 and oms2 != 1.0 - s2
    expected = {
        "s2": s2, "m2": m2, "b2": b2, "lam2": lam2, "oms2": oms2, "ops2": 1.0 + s2,
        "lin_x": 2.0 * mid_x, "lam4": lam2 * lam2, "sm2": sm2, "sm4": sm2 * sm2,
        "lin_k": 2.0 * s2 * mid_k, "two_s2": 2.0 * s2, "one_minus_s2": 1.0 - s2,
    }
    t = m._terms
    assert {f.name: getattr(t, f.name) for f in dataclasses.fields(t)} == expected


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(M=0.0)
    with pytest.raises(ValueError):
        ModelParams(Omega=-1.0)
    with pytest.raises(ValueError):
        ModelParams(s=0.0)
    with pytest.raises(ValueError):
        ModelParams(s=1.5)
    with pytest.raises(ValueError):
        ModelParams(beta=-0.1)
    ModelParams(s=1.0, beta=0.0, M=1.0)  # boundary values accepted


def test_physical_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(Lambda=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(cs=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(cs=1.0 + 1e-12)
    with pytest.raises(ValueError):
        PhysicalParams(Omega=0.0)
    PhysicalParams(cs=1.0)  # Lorentz point is allowed


@pytest.mark.parametrize("name", ["Lambda", "Omega"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_physical_params_reject_non_finite(name, value):
    # an infinite gap used to pass and come out as rate = nan
    with pytest.raises(ValueError, match=name):
        PhysicalParams(**{name: value})


@pytest.mark.parametrize("name", ["M", "beta", "Omega"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_model_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        ModelParams(**{name: value})


def test_background_orbit_identity():
    out = background_orbit(BackgroundOrbit(mu=0.0, phi0=(1.0, 0.0)), t=7.0)
    np.testing.assert_array_equal(out, [1.0, 0.0])


def test_background_orbit_quarter_and_full_rotation():
    out = background_orbit(BackgroundOrbit(mu=1.0, phi0=(1.0, 0.0)), t=math.pi / 2.0)
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)
    out = background_orbit(BackgroundOrbit(mu=2.0, phi0=(0.6, 0.8)), t=math.pi)
    np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-15)


def test_background_orbit_preserves_norm():
    orbit = BackgroundOrbit(mu=1.7, phi0=(0.6, 0.8))
    for t in (0.0, 1.0, 100.0, 1e4 / 1.7):
        assert math.isclose(float(np.linalg.norm(background_orbit(orbit, t))), 1.0, rel_tol=1e-13)
