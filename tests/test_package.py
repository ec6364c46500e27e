"""The package's public names: each module's __all__, re-exported once."""

import tcphonon

_PUBLIC = {
    "__version__",
    "BackgroundOrbit",
    "BranchLabel",
    "DecayResult",
    "DispersionPoint",
    "Leg",
    "LongWavelengthReport",
    "ModeAmplitudes",
    "ModelParams",
    "PhysicalParams",
    "amplitudes",
    "background_orbit",
    "bogoliubov_oracle",
    "cs_from_alpha2",
    "cubic_coupling",
    "dispersion",
    "lambda_threshold_momentum",
    "matrix_element",
    "mc_rate_oracle",
    "params_from_physical",
    "physical_from_params",
    "rate_g_to_2g",
    "rate_lambda_to_2g",
    "scan_g_rate",
    "scan_lambda_rate",
    "verify_long_wavelength",
}


def test_public_names_are_pinned():
    assert len(tcphonon.__all__) == len(_PUBLIC) == 26
    assert set(tcphonon.__all__) == _PUBLIC
    for name in _PUBLIC:
        assert getattr(tcphonon, name) is not None
