"""Closed-form quantum discord for rank-2 two-qubit states, the
linear-entropy classical correlation for dx2 states, and independent
brute-force oracles for both."""

from .channel import linear_classical_correlation
from .discord import (
    CorrelationReport,
    correlation_report,
    discord_rank2,
    discord_rho2_closed_form,
    identity_residuals,
)
from .errors import (
    ConsistencyError,
    DegenerateDenominator,
    DegenerateMarginal,
    DimensionMismatch,
    NotFinite,
    NotHermitian,
    NotPositive,
    OutOfDomain,
    QDiscordError,
    RankTooHigh,
    StateFormatError,
)
from .linalg import partial_trace
from .measures import (
    binary_entropy,
    eof_two_qubit,
    f_map,
    linear_entropy,
    tangle_two_qubit,
    von_neumann_entropy,
    wootters_concurrence,
)
from .oracles import (
    decomposition_linear_cc,
    projective_classical_correlation,
)
from .states import (
    DensityMatrix,
    dump_state,
    load_state,
    make_bell_diagonal,
    make_example1,
    make_horodecki,
    make_random_rank2,
    make_rho2,
    random_trials,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
