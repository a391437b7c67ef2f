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

from .channel import _rebuilt_states, linear_cc_batch
from .errors import ConsistencyError, DegenerateDenominator, DimensionMismatch, RankTooHigh
from .linalg import partial_trace, qubit_eigvalsh
from .measures import binary_entropy, f_map, purity_loss, spectral_entropies, unit_interval
from .states import DensityMatrix, _stack_of, _unstack, rho2_domain

RANK_TOL = 1e-10  # eigenvalues above it count toward a state's rank
_CLAMP_WINDOW = 1e-9
# rho2's closed form divides by d1 * d2, the product of rho_B's diagonal
# weights; at or below this the formula is undefined (rho_B is numerically
# pure) and the caller falls back to the pipeline on the built state.
_MARGINAL_PRODUCT_FLOOR = 1e-12


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


def _report_fields(rho: DensityMatrix):
    """The report's numeric fields of a stack, by name in ``CorrelationReport``
    order, and the channel images that I2_cc read. ``I_cc`` and ``Q_discord``
    are NaN exactly where the rank-2 two-qubit closed form does not apply.
    The state's spectrum is the one its validation computed, rho_B is
    diagonalized once, by ``linear_cc_batch``, and a qubit rho_A in closed form."""
    spectrum, dims = rho.spectrum, rho.dims
    rho_a = partial_trace(rho.matrix, dims, "A")
    rank = np.count_nonzero(spectrum > RANK_TOL, axis=-1)
    applies = (rank <= 2) & (dims == (2, 2))
    i2_cc, extracted = linear_cc_batch(rho)
    lam_b = extracted[0]
    lam_a = qubit_eigvalsh(rho_a) if rho.dim_a == 2 else np.linalg.eigvalsh(rho_a)
    s_a, s_b, s_ab = spectral_entropies(lam_a, lam_b, spectrum)
    s2_a = purity_loss(rho_a)
    f_arg = _clamp_unit_interval(np.where(applies, s2_a - i2_cc, 0.0))
    i_cc = np.where(applies, s_a - f_map(f_arg), np.nan)
    i_mutual = s_a + s_b - s_ab
    return {"S_A": s_a, "S_B": s_b, "S_AB": s_ab, "S2_A": s2_a,
            "S2_B": 4.0 * lam_b[:, 0] * lam_b[:, 1], "I_mutual": i_mutual, "I2_cc": i2_cc,
            "I_cc": i_cc, "Q_discord": i_mutual - i_cc, "rank": rank}, extracted


def _assess(rho, strict: bool):
    """``(rho as a stack, correlation_report(rho), the channel images I2_cc read)``; with
    ``strict``, the first state outside the closed form raises, named by index in a stack.
    An error is built only for the members where ``_report_fields`` left I_cc unset."""
    stack = _stack_of(rho)
    columns, extracted = _report_fields(stack)
    rank, spectrum, unset = columns["rank"], stack.spectrum, np.isnan(columns["I_cc"])
    errors = {
        i: DimensionMismatch(f"rank-2 formulas need a 2x2 pair, got dims {stack.dims}")
        if stack.dims != (2, 2) else
        RankTooHigh(f"state has rank {rank[i]}; third-largest eigenvalue {spectrum[i, -3]:.6e}")
        for i in np.flatnonzero(unset).tolist()} if unset.any() else {}
    reasons = [None] * len(stack)
    for i, error in errors.items():
        reasons[i] = f"rank-2 two-qubit closed form not applicable: {error}"
    report = {name: _unstack(rho, values) for name, values in columns.items()}
    report["reason"] = _unstack(rho, tuple(reasons), errors if strict else {})  # one state raises
    if strict and errors:  # and a stack here, at its first failing member
        index, error = next(iter(errors.items()))
        raise type(error)(f"state {index}: {error}")
    if isinstance(report["reason"], str):  # one state outside the closed form
        report.update(I_cc=None, Q_discord=None)
    return stack, CorrelationReport(**report), extracted


def correlation_report(rho: DensityMatrix) -> CorrelationReport:
    """Every correlation quantity of a dA x 2 state, or of a stack of them.

    Never raises for a supported shape; ``reason`` says where the rank-2
    two-qubit closed form does not apply and ``I_cc``/``Q_discord`` are unset.
    """
    return _assess(rho, strict=False)[1]


def discord_rank2(rho: DensityMatrix) -> CorrelationReport:
    """``correlation_report`` for rank-<=2 two-qubit states; raises DimensionMismatch
    or RankTooHigh elsewhere, naming the first offending state of a stack."""
    return _assess(rho, strict=True)[1]


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
    degenerate = d1 * d2 <= _MARGINAL_PRODUCT_FLOOR
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


def _pivot_column(m: np.ndarray, keep) -> np.ndarray:
    """One pivoted Cholesky step on a positive semidefinite stack: the column
    of each matrix's largest diagonal entry over that entry's root, and 0
    where ``keep`` is False."""
    rows = np.arange(len(m))
    pivot = np.argmax(np.diagonal(m, axis1=1, axis2=2).real, axis=1)
    weight = np.where(keep, m[rows, pivot, pivot].real, 1.0)
    return np.where(keep[:, None], m[rows, :, pivot] / np.sqrt(weight)[:, None], 0.0)


def _purified_tangle(rho: DensityMatrix) -> np.ndarray:
    """tau(rho_AC) for a stack of rank-<=2 two-qubit states, across the
    purification psi[a, b, c] = G[(a, b), c] on a factor rho = G G^dagger.
    Two factors differ by a unitary on C, which leaves tau(rho_AC) as it is,
    so G is the pivoted rank-2 Cholesky factor; its column c weighs 0 where
    the c-th largest eigenvalue is at or below RANK_TOL. rho_AC = M M^dagger
    for M[(a, c), b] = psi[a, b, c], so it is never built: the spin-flip
    values are the singular values mu_1 >= mu_2 of the 2x2 complex symmetric
    A = M^T (YxY) M, and tau = (mu_1 - mu_2)^2 = |A|_F^2 - 2|det A|. YxY
    reverses M's rows and negates rows 0 and 3, so with F_r the row r of M,
    A = F1 (x) F2 + F2 (x) F1 - F0 (x) F3 - F3 (x) F0 for (x) the outer
    product. A rank-1 state has M = 0 on the rows c = 1, F1 = F3 = 0, which
    makes A, and so its tangle, exactly 0."""
    keep = rho.spectrum[:, :-3:-1] > RANK_TOL
    first = _pivot_column(rho.matrix, keep[:, 0])
    rest = rho.matrix - first[:, :, None] * first[:, None, :].conj()
    psi = np.stack([first, _pivot_column(rest, keep[:, 1])], axis=-1)
    psi = psi / np.linalg.norm(psi, axis=(1, 2))[:, None, None]
    rows = psi.reshape(-1, 2, 2, 2)  # F_(a, c)[b] = rows[:, a, b, c]
    half = (rows[:, 0, :, None, 1] * rows[:, 1, None, :, 0]
            - rows[:, 0, :, None, 0] * rows[:, 1, None, :, 1])  # F1 (x) F2 - F0 (x) F3
    a = half + half.swapaxes(1, 2)
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    return np.maximum(0.0, np.sum(np.abs(a) ** 2, axis=(1, 2)) - 2.0 * np.abs(det))


def identity_residuals(rho: DensityMatrix):
    """``(report, kw, monogamy, roundtrip)`` for one state or a stack, from one
    report, one purification and the channel images the report's I2_cc
    read. kw and monogamy are ~0 when exact: kw is
    E_f(rho_AC) + I_cc(rho_AB) - S(rho_A) with E_f(rho_AC) = f(tau), and
    monogamy is tau(rho_AC) + I2_cc(rho_AB) - S2(rho_A). roundtrip is
    max|rebuilt - rho| over the entries of each state rebuilt from those
    images (``channel._rebuilt_states``), NaN where rho_B is rank-1 and the
    channel is undefined. ``discord_rank2``'s errors apply."""
    stack, report, extracted = _assess(rho, strict=True)
    tau = _unstack(rho, _purified_tangle(stack))
    roundtrip = np.max(np.abs(_rebuilt_states(extracted) - stack.matrix), axis=(1, 2))
    return (report, f_map(tau) + report.I_cc - report.S_A, tau + report.I2_cc - report.S2_A,
            _unstack(rho, roundtrip))
