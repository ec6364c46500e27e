"""The reference model (tests/_reference.py) holds the digits its rule claims."""

import math

import pytest

from tcphonon import PhysicalParams, params_from_physical

reference = pytest.importorskip("_reference")


def test_reference_holds_at_twice_its_digits(monkeypatch):
    # re-run at twice the working digits, no value moves by 1e-20 relative.
    # A G -> 2G integral at a fixed 40 digits was 3.3e-12 off at (0.5, 1e-4):
    # quad stops once its error estimate is below an absolute epsilon, which
    # a k^8-small integrand meets at once, so the model integrates relative
    # to the integrand at k / 2
    m = params_from_physical(PhysicalParams(1.0, 0.5, 1.0))
    calls = {
        "rate_g(0.5, 1e-4)": lambda: (reference.rate_g(0.5, 1e-4),),
        "rate_g(0.5, 1e-10)": lambda: (reference.rate_g(0.5, 1e-10),),
        "modes(k=1e-150)": lambda: reference.modes(m.s, m.beta, m.M, 1e-150),
        "modes(k=1e76)": lambda: reference.modes(m.s, m.beta, m.M, 1e76),
        "rate_lambda(sqrt(3/8))": lambda: (reference.rate_lambda(math.sqrt(3.0 / 8.0)),),
    }
    values = {name: call() for name, call in calls.items()}
    digits = reference.digits
    monkeypatch.setattr(reference, "digits", lambda *args: 2 * digits(*args))
    for name, call in calls.items():
        for value, again in zip(values[name], call()):
            assert abs(value - again) < 1e-20 * abs(again), name
