"""Closed-form classical correlation and quantum discord for rank-2
two-qubit states.

The pipeline chains three exact identities: the linear-entropy classical
correlation of the state, the monogamy between that quantity and the tangle
of rho_AC across a purification, and the Koashi-Winter trade-off between
E_f(rho_AC) and the classical correlation of rho_AB. The result is

    I_cc = S(rho_A) - f(S2(rho_A) - I2_cc)
    Q    = I_mutual - I_cc

valid whenever rho_AB has rank at most 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import in_blocks, linear_cc_batch, stack_states
from .errors import ConsistencyError, DegenerateDenominator, DimensionMismatch, RankTooHigh
from .linalg import partial_trace
from .measures import (binary_entropy, f_map, linear_entropy, spectral_entropy, tangle_two_qubit,
                       unit_interval, von_neumann_entropy)
from .states import RANK_TOL, DensityMatrix, purify, rho2_domain, traced_over_b

_CLAMP_WINDOW = 1e-9
_FIELDS = ("S_A", "S_B", "S_AB", "S2_A", "S2_B", "I_mutual", "I2_cc", "I_cc",
           "Q_discord", "rank")


@dataclass(frozen=True)
class CorrelationReport:
    """Every correlation quantity of one dA x 2 state, or of a batch.

    A batch holds one entry per state in each field: arrays, and a tuple for
    ``reason``. ``I_cc`` and ``Q_discord`` need a two-qubit state of rank at
    most 2; elsewhere they are None (NaN in a batch) and ``reason`` says why.
    Entropic fields are in bits; S2 and I2 values are dimensionless.
    """

    S_A: float
    S_B: float
    S_AB: float
    S2_A: float
    S2_B: float
    I_mutual: float
    I2_cc: float
    I_cc: Optional[float]
    Q_discord: Optional[float]
    rank: int
    reason: Optional[str] = None


def _clamp_unit_interval(value):
    """Snap rounding overshoot into [0, 1]; larger violations are bugs."""
    return unit_interval(value, "f argument", _CLAMP_WINDOW, ConsistencyError)


def _report_rows(rho: DensityMatrix) -> np.ndarray:
    """One row per report field, then the third-largest eigenvalues, for a stack."""
    matrices, dims = rho.matrix, rho.dims
    rho_a = partial_trace(matrices, dims, "A")
    rho_b = partial_trace(matrices, dims, "B")
    spectrum = np.linalg.eigvalsh(matrices)
    rank = np.count_nonzero(spectrum > RANK_TOL, axis=-1)
    applies = (rank <= 2) & (dims == (2, 2))
    s_a, s_b, s_ab = (von_neumann_entropy(rho_a), von_neumann_entropy(rho_b),
                      spectral_entropy(spectrum))
    s2_a, i2_cc = linear_entropy(rho_a), linear_cc_batch(rho)
    f_arg = _clamp_unit_interval(np.where(applies, s2_a - i2_cc, 0.0))
    i_cc = np.where(applies, s_a - f_map(f_arg), np.nan)
    i_mutual = s_a + s_b - s_ab
    return np.stack([s_a, s_b, s_ab, s2_a, linear_entropy(rho_b), i_mutual, i2_cc,
                     i_cc, i_mutual - i_cc, rank, spectrum[:, -3]])


def _exclusion(dims, rank: int, third_eigenvalue: float) -> Optional[Exception]:
    """The error that rules out the rank-2 two-qubit closed form, if any."""
    if dims != (2, 2):
        return DimensionMismatch(f"rank-2 formulas need a 2x2 pair, got dims {dims}")
    if rank > 2:
        return RankTooHigh(f"state has rank {rank}; third-largest eigenvalue "
                           f"{third_eigenvalue:.6e}")
    return None


def _assess(rho):
    """``correlation_report(rho)`` and each state's exclusion error or None."""
    stack, single = stack_states(rho)
    *rows, third = in_blocks(_report_rows, stack)
    fields = dict(zip(_FIELDS, rows), rank=rows[-1].astype(int))
    errors = [_exclusion(stack.dims, r, t) for r, t in zip(fields["rank"], third)]
    reasons = [error and f"rank-2 two-qubit closed form not applicable: {error}"
               for error in errors]
    if single:
        fields = {name: values[0].item() for name, values in fields.items()}
        if errors[0]:
            fields.update(I_cc=None, Q_discord=None)
    reason = reasons[0] if single else tuple(reasons)
    return CorrelationReport(**fields, reason=reason), errors


def correlation_report(rho: DensityMatrix) -> CorrelationReport:
    """Every correlation quantity of a dA x 2 state, or of a stack of them.

    Never raises for a supported shape; ``reason`` says where the rank-2
    two-qubit closed form does not apply and ``I_cc``/``Q_discord`` are unset.
    """
    return _assess(rho)[0]


def discord_rank2(rho: DensityMatrix) -> CorrelationReport:
    """``correlation_report`` for rank-<=2 two-qubit states; raises DimensionMismatch
    or RankTooHigh elsewhere, naming the first offending state of a stack."""
    report, errors = _assess(rho)
    for index, error in enumerate(errors):
        if error is not None:
            raise error if rho.matrix.ndim == 2 else type(error)(f"state {index}: {error}")
    return report


def discord_rho2_closed_form(x, theta: float, eta: float):
    """Discord of the two-parameter pure-state mixture family, in closed form.

    ``x`` may be an array of weights, giving an array. Where rho_B is
    (numerically) pure the marginal weight product vanishes and the formula
    is undefined: a scalar call raises DegenerateDenominator and an array
    call gives NaN there, and the caller should fall back to the pipeline on
    the built state.
    """
    x = rho2_domain(x, theta, eta)
    st, ct = math.sin(theta), math.cos(theta)
    se, ce = math.sin(eta), math.cos(eta)
    d1 = x * ct * ct + (1.0 - x) * se * se
    d2 = x * st * st + (1.0 - x) * ce * ce
    degenerate = d1 * d2 <= 1e-12
    if x.ndim == 0 and degenerate:
        raise DegenerateDenominator(f"marginal weight product {d1 * d2:.3e} vanishes")
    den = np.where(degenerate, 1.0, d1 * d2)
    l1 = (x * st * ct + (1.0 - x) * se * ce) / np.sqrt(den)
    l2 = (x * st * ct - (1.0 - x) * se * ce) / np.sqrt(den)
    l3 = (x * x * st * st * ct * ct - (1.0 - x) ** 2 * se * se * ce * ce) / den
    # l4 is S2(rho_A) = 4a(1-a) for a = x sin^2(theta) + (1-x) sin^2(eta),
    # expanded in double angles; the cross term enters with a plus sign.
    sin2t, sin2e = math.sin(2.0 * theta), math.sin(2.0 * eta)
    l4 = (
        4.0 * x * (1.0 - x)
        + x * x * sin2t * sin2t
        + (1.0 - x) ** 2 * sin2e * sin2e
        - 4.0 * x * (1.0 - x) * math.cos(theta - eta) ** 2
        + 2.0 * x * (1.0 - x) * sin2t * sin2e
    )
    l5 = 4.0 * den
    peak = np.maximum(np.maximum(l1 * l1, l2 * l2), l3 * l3)
    f_arg = _clamp_unit_interval(np.where(degenerate, 0.0, l4 - peak * l5))
    q = binary_entropy(d2) - binary_entropy(x) + f_map(f_arg)
    return float(q) if x.ndim == 0 else np.where(degenerate, np.nan, q)


def _purified_tangle(rho: DensityMatrix) -> np.ndarray:
    """tau(rho_AC) across one purification of each state of a stack; a rank-1
    state gets a trivial C, so its rho_AC is a product with tangle 0."""
    pur = purify(rho)
    if pur.dims[2] == 1:
        return np.zeros(len(rho))
    return tangle_two_qubit(traced_over_b(pur))


def identity_residuals(rho: DensityMatrix):
    """``(report, kw, monogamy)`` for one state or a stack, from one report and
    one purification: the two residuals below, with E_f(rho_AC) = f(tau)."""
    report = discord_rank2(rho)
    tau = in_blocks(_purified_tangle, rho)
    if rho.matrix.ndim == 2:
        tau = tau[0].item()
    return report, f_map(tau) + report.I_cc - report.S_A, tau + report.I2_cc - report.S2_A


def koashi_winter_residual(rho):
    """E_f(rho_AC) + I_cc(rho_AB) - S(rho_A) across a purification; ~0 when exact."""
    return identity_residuals(rho)[1]


def monogamy_residual(rho):
    """tau(rho_AC) + I2_cc(rho_AB) - S2(rho_A) across a purification; ~0 when exact."""
    return identity_residuals(rho)[2]
