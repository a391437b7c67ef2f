import qdiscord

PUBLIC_NAMES = {
    # submodules
    "channel", "discord", "errors", "linalg", "measures", "oracles", "states",
    # states
    "DensityMatrix", "Purification", "dump_state", "load_state", "make_bell_diagonal",
    "make_example1", "make_horodecki", "make_random_rank2", "make_rho2", "purify",
    "trial_seed",
    # linalg and measures
    "partial_trace", "tensor", "binary_entropy", "eof_two_qubit", "f_map", "linear_entropy",
    "mutual_information", "tangle_two_qubit", "von_neumann_entropy", "wootters_concurrence",
    # closed forms
    "linear_classical_correlation", "CorrelationReport", "correlation_report", "discord_rank2",
    "discord_rho2_closed_form", "identity_residuals", "koashi_winter_residual",
    "monogamy_residual",
    # oracles
    "decomposition_linear_cc", "projective_classical_correlation",
    "projective_discord",
    # errors
    "ConsistencyError", "DegenerateDenominator", "DegenerateMarginal", "DimensionMismatch",
    "NotFinite", "NotHermitian", "NotPositive", "OutOfDomain", "QDiscordError", "RankTooHigh",
    "StateFormatError",
}


def test_public_api_is_pinned():
    # A name added to or removed from the package surface must be added to or
    # removed from this set too, so every change to the API is deliberate.
    assert set(qdiscord.__all__) == PUBLIC_NAMES
    assert len(qdiscord.__all__) == len(PUBLIC_NAMES)
