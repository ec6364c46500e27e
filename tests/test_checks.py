"""The `tcphonon check` suite: its names, tolerances and order are pinned."""

import math
import statistics

import numpy as np
import pytest

from tcphonon import PhysicalParams, checks, rates, spectrum

_SUITE = [
    ("model.roundtrip", 1e-14),
    ("model.orbit-norm", 1e-14),
    ("model.cs-range", 1e-15),
    ("spectrum.vieta", 1e-12),
    ("spectrum.quartic-residual", 1e-12),
    ("spectrum.monotone", 1e-15),
    ("spectrum.gap-limit", 1e-14),
    ("spectrum.decoupled", 1e-14),
    ("spectrum.sum-rules", 1e-10),
    ("spectrum.oracle", 1e-8),
    ("vertex.bose-symmetry", 1e-15),
    ("vertex.rotation", 1e-12),
    ("vertex.omega-scaling", 1e-14),
    ("vertex.cs-zero", 5e-3),
    ("rates.thresholds", 1e-10),
    ("rates.fig1-shape", 1e-15),
    ("rates.fig2-monotone", 1e-9),
    ("rates.small-k-suppression", 1e-12),
    ("rates.mc-agreement", 1e-2),
    ("rates.omega-scaling", 1e-12),
    ("rates.quad-tolerance", 1.0),
    ("eft.sound-speed", 1e-6),
    ("eft.gap-identity", 1e-14),
    ("eft.alpha2-monotone", 1e-15),
    ("eft.k2-scaling", 0.05),
]


@pytest.mark.parametrize("seed", [0, 3])
def test_suite_names_tolerances_and_order_are_pinned_and_all_pass(seed):
    results = checks.run_all(seed=seed)
    assert [(r.name, r.tolerance) for r in results] == _SUITE
    failed = [(r.name, r.measured) for r in results if not r.passed]
    assert failed == []


def test_a_raising_sweep_fails_its_five_checks_with_the_error(monkeypatch):
    # a raising sweep used to abort run_all with a RuntimeError naming its
    # five checks and the seed, and the other 20 results were lost
    def fail(m, k):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(spectrum, "bogoliubov_oracle", fail)
    results = checks.run_all(seed=3)
    assert [(r.name, r.tolerance) for r in results] == _SUITE
    raised = [r for r in results if r.error]
    assert [r.name for r in raised] == ["spectrum.vieta", "spectrum.quartic-residual",
                                        "spectrum.monotone", "spectrum.sum-rules",
                                        "spectrum.oracle"]
    for r in raised:
        assert not r.passed and math.isnan(r.measured)
        assert r.error == "LinAlgError: eigenvalues did not converge"
    assert all(r.passed and not math.isnan(r.measured) for r in results if not r.error)


def test_a_raising_sweep_runs_once_for_its_five_checks(monkeypatch):
    # functools.cache stores no exception, so each of the five checks swept the
    # grid again: 210 oracle calls at seed 3 instead of the 42 up to the first
    # momentum past 100 gaps (50 momenta from 1e-3 to 1e3 gaps)
    oracle, calls = spectrum.bogoliubov_oracle, []

    def fail_past_100_gaps(m, k):
        calls.append(k)
        if k > 100.0 * m.gap:
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return oracle(m, k)

    monkeypatch.setattr(spectrum, "bogoliubov_oracle", fail_past_100_gaps)
    results = checks.run_all(seed=3)
    assert len(calls) == 42
    swept = ["spectrum.vieta", "spectrum.quartic-residual", "spectrum.monotone",
             "spectrum.sum-rules", "spectrum.oracle"]
    assert [r.name for r in results if r.error] == swept
    for r in results:
        if r.name in swept:
            assert not r.passed and math.isnan(r.measured)
            assert r.error == "LinAlgError: eigenvalues did not converge"


def test_vertex_cs_zero_fails_without_a_sign_change(monkeypatch):
    # with the interference one-signed on [0.5, 0.7] there is no zero to bisect
    monkeypatch.setattr(checks, "_at_rest_interference", lambda cs: 1.0)
    assert checks._check_vertex_cs_zero() == 1.0 > dict(_SUITE)["vertex.cs-zero"]


def test_seed_15_reports_all_25_checks():
    # the g-2g oracle raised at seed 15 and aborted the suite; which checks
    # pass there is the Monte-Carlo oracle's business, not this test's
    results = checks.run_all(seed=15)
    assert [(r.name, r.tolerance) for r in results] == _SUITE
    assert all(not r.passed and math.isnan(r.measured) for r in results if r.error)


def test_mc_agreement_passes_at_seeds_0_to_19_within_the_oracle_error(monkeypatch):
    # at check's point and sample counts rates.mc-agreement (1e-2) failed at 9 of
    # these seeds, by up to 3.05e-2, and the g-2g oracle raised at seed 15
    oracle, results = rates.mc_rate_oracle, []

    def recorded(p, process, **kwargs):
        results.append((process, oracle(p, process, **kwargs)))
        return results[-1][1]

    monkeypatch.setattr(rates, "mc_rate_oracle", recorded)
    p = PhysicalParams(1.0, 0.5, 1.0)
    quad = {"lambda-2g": rates.rate_lambda_to_2g(p).rate, "g-2g": rates.rate_g_to_2g(p, 1.0).rate}
    seen = {process: [] for process in quad}
    for seed in range(20):
        assert checks._check_mc_agreement(seed) <= 1e-2, seed
        assert [process for process, _ in results] == ["lambda-2g", "g-2g"]
        for process, res in results:
            deviation = abs(res.rate - quad[process])
            assert deviation <= 4.0 * res.estimated_error, (seed, process, deviation, res)
            seen[process].append((deviation, res.estimated_error))
        results.clear()
    rms, median = {}, {}
    for process, pairs in seen.items():
        rms[process] = math.sqrt(statistics.fmean(d * d for d, _ in pairs))
        median[process] = statistics.median(e for _, e in pairs)
    # g-2g's error is its replicates' spread: neither a fifth nor five times
    # the deviations it describes
    assert rms["g-2g"] / 5.0 <= median["g-2g"] <= 5.0 * rms["g-2g"], (rms, median)
    # at rest it is a stated bound (rates.mc_rate_oracle), which covers them
    assert median["lambda-2g"] >= rms["lambda-2g"], (rms, median)
