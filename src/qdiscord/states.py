"""Bipartite density matrices: named families, random rank-2 states,
purification, and the JSON wire format.

Basis ordering is computational throughout, with the bipartite index a*dB + b.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    NotHermitian,
    NotPositive,
    OutOfDomain,
    StateFormatError,
)
from .linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    partial_trace,
    tensor,
)

RANK_TOL = 1e-10
_JSON_TOL = 1e-8

FAMILY_NAMES = ("bell_diagonal", "horodecki", "example1", "rho2", "random_rank2")


@dataclass(frozen=True)
class DensityMatrix:
    """A bipartite density matrix with an explicit (dA, dB) split.

    The stored matrix is canonicalized on construction: it is symmetrized to
    be exactly Hermitian and rescaled to unit trace, after the raw input has
    been validated against the 1e-10 construction tolerances.
    """

    dims: tuple
    matrix: np.ndarray

    def __post_init__(self):
        d_a, d_b = int(self.dims[0]), int(self.dims[1])
        if d_a < 1 or d_b < 1:
            raise DimensionMismatch(f"invalid dims ({d_a}, {d_b})")
        m = np.asarray(self.matrix, dtype=complex)
        n = d_a * d_b
        if m.shape != (n, n):
            raise DimensionMismatch(
                f"matrix shape {m.shape} does not match dims ({d_a}, {d_b})"
            )
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        if herm_dev > 1e-10:
            raise NotHermitian(f"matrix deviates from Hermiticity by {herm_dev:.3e}")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"matrix trace {trace} is not 1 within 1e-10")
        canonical = (m + m.conj().T) / 2.0
        canonical = canonical / float(np.trace(canonical).real)
        smallest = float(np.linalg.eigvalsh(canonical)[0])
        if smallest < -1e-10:
            raise NotPositive(f"smallest eigenvalue {smallest:.3e} is negative")
        canonical.flags.writeable = False
        object.__setattr__(self, "dims", (d_a, d_b))
        object.__setattr__(self, "matrix", canonical)

    @property
    def dim_a(self) -> int:
        return self.dims[0]

    @property
    def dim_b(self) -> int:
        return self.dims[1]

    @property
    def dim(self) -> int:
        return self.dims[0] * self.dims[1]


@dataclass(frozen=True)
class Purification:
    """Pure |psi>_ABC with Tr_C recovering the source state (a row per state).

    The C dimension equals the numerical rank of the source, so rank-1 inputs
    get a trivial one-dimensional C and rank-2 inputs get a qubit C.
    """

    state_vector: np.ndarray
    dims: tuple
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class FamilySpec:
    """A named state family together with its parameter values."""

    name: str
    parameters: dict

    def __post_init__(self):
        if self.name not in FAMILY_NAMES:
            raise OutOfDomain(f"unknown family {self.name!r}")


def make_bell_diagonal(c1: float, c2: float, c3: float) -> DensityMatrix:
    """State (I + c1 XX + c2 YY + c3 ZZ)/4, valid when all Bell weights are >= 0."""
    weights = (
        (1 + c1 - c2 + c3) / 4.0,
        (1 - c1 + c2 + c3) / 4.0,
        (1 + c1 + c2 - c3) / 4.0,
        (1 - c1 - c2 - c3) / 4.0,
    )
    smallest = min(weights)
    if smallest < -1e-10:
        raise NotPositive(
            f"(c1, c2, c3)=({c1}, {c2}, {c3}) gives Bell weight {smallest:.3e}"
        )
    m = (
        np.eye(4, dtype=complex)
        + c1 * tensor(PAULI_X, PAULI_X)
        + c2 * tensor(PAULI_Y, PAULI_Y)
        + c3 * tensor(PAULI_Z, PAULI_Z)
    ) / 4.0
    return DensityMatrix((2, 2), m)


def make_horodecki(p: float) -> DensityMatrix:
    """Mixture p |psi+><psi+| + (1-p) |00><00| with |psi+> = (|01>+|10>)/sqrt2."""
    if not 0.0 <= p <= 1.0:
        raise OutOfDomain(f"p={p} outside [0, 1]")
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0 - p
    m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = p / 2.0
    return DensityMatrix((2, 2), m)


def make_example1(x: float) -> DensityMatrix:
    """Two-qubit family with spectrum {(2-x)/6, (2-x)/6, (2+x)/6, x/6} on x in [0, 2]."""
    if not 0.0 <= x <= 2.0:
        raise OutOfDomain(f"x={x} outside [0, 2]")
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = (2.0 - x) / 6.0
    m[1, 1] = m[2, 2] = (1.0 + x) / 6.0
    m[1, 2] = m[2, 1] = 1.0 / 6.0
    return DensityMatrix((2, 2), m)


def make_rho2(x: float, theta: float, eta: float) -> DensityMatrix:
    """Rank-<=2 mixture of sin(theta)|00>+cos(theta)|11> and sin(eta)|01>+cos(eta)|10>."""
    if not 0.0 <= x <= 1.0:
        raise OutOfDomain(f"x={x} outside [0, 1]")
    if not 0.0 <= theta <= 2.0 * math.pi:
        raise OutOfDomain(f"theta={theta} outside [0, 2*pi]")
    if not 0.0 <= eta <= 2.0 * math.pi:
        raise OutOfDomain(f"eta={eta} outside [0, 2*pi]")
    phi = np.zeros(4, dtype=complex)
    phi[0] = math.sin(theta)
    phi[3] = math.cos(theta)
    chi = np.zeros(4, dtype=complex)
    chi[1] = math.sin(eta)
    chi[2] = math.cos(eta)
    m = x * np.outer(phi, phi.conj()) + (1.0 - x) * np.outer(chi, chi.conj())
    return DensityMatrix((2, 2), m)


def trial_seed(seed: int, *indices: int) -> int:
    """Derive a reproducible substream seed by hashing (seed, indices)."""
    ss = np.random.SeedSequence([int(seed), *[int(i) for i in indices]])
    return int(ss.generate_state(2, dtype=np.uint64)[0])


def make_random_rank2(seed: int, dim_a: int = 2) -> DensityMatrix:
    """Random rank-2 state on dA x 2, deterministic in the seed.

    The two eigenvectors are orthonormalized complex Gaussian vectors and the
    top eigenvalue is drawn uniformly from [0.05, 0.95].
    """
    if dim_a not in (2, 3, 4):
        raise OutOfDomain(f"dim_a={dim_a} not in {{2, 3, 4}}")
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.05, 0.95)
    n = dim_a * 2
    re = rng.standard_normal((2, n))
    im = rng.standard_normal((2, n))
    v1 = re[0] + 1j * im[0]
    v2 = re[1] + 1j * im[1]
    v1 = v1 / np.linalg.norm(v1)
    v2 = v2 - np.vdot(v1, v2) * v1
    v2 = v2 / np.linalg.norm(v2)
    m = lam * np.outer(v1, v1.conj()) + (1.0 - lam) * np.outer(v2, v2.conj())
    return DensityMatrix((dim_a, 2), m)


def random_unitary(seed, dim: int) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian, deterministic in seed.

    A sequence of seeds gives an (N, dim, dim) stack: each seed draws from its
    own stream, as a single call would, and one batched QR serves them all.
    """
    single = np.ndim(seed) == 0
    draws = np.stack([np.random.default_rng(s).standard_normal((2, dim, dim))
                      for s in ([seed] if single else seed)])
    q, r = np.linalg.qr(draws[:, 0] + 1j * draws[:, 1])
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (diagonal / np.abs(diagonal)).conj()[:, None, :]
    return u[0] if single else u


def reduced(rho: DensityMatrix, side: str) -> np.ndarray:
    """Reduced density matrix of subsystem "A" or "B"."""
    return partial_trace(rho.matrix, rho.dims, keep=side)


def stack_matrices(rho):
    """(matrices, dims, single) for one DensityMatrix or a sequence of them with
    equal dims; one state is a stack of one."""
    single = isinstance(rho, DensityMatrix)
    states = [rho] if single else list(rho)
    dims = {state.dims for state in states}
    if len(dims) != 1:
        raise DimensionMismatch(f"a batch needs one shared dims, got {sorted(dims)}")
    return np.stack([state.matrix for state in states]), dims.pop(), single


def purify(rho) -> Purification:
    """Attach an ancilla C of dimension rank(rho) (eigenvalues above 1e-10)
    carrying the eigenbasis index. A sequence of states with equal dims gives
    one row per state; C takes the batch's largest rank, extra levels weigh 0."""
    matrices, (d_a, d_b), single = stack_matrices(rho)
    values, vectors = np.linalg.eigh(matrices)
    values, vectors = values[:, ::-1], vectors[:, :, ::-1]
    kept = values > RANK_TOL
    d_c = int(kept.sum(axis=1).max())
    lam = np.where(kept[:, :d_c], values[:, :d_c], 0.0)
    vecs = vectors[:, :, :d_c]
    psi = (vecs * np.sqrt(lam)[:, None, :]).reshape(len(matrices), -1)
    psi = psi / np.linalg.norm(psi, axis=1, keepdims=True)
    if single:
        psi, lam, vecs = psi[0], lam[0], vecs[0]
    return Purification(
        state_vector=psi,
        dims=(d_a, d_b, d_c),
        eigenvalues=lam,
        eigenvectors=vecs,
    )


def traced_over_c(pur: Purification) -> np.ndarray:
    """Tr_C |psi><psi|, which must reproduce the purified state (or stack)."""
    d_a, d_b, d_c = pur.dims
    t = pur.state_vector.reshape(*pur.state_vector.shape[:-1], d_a * d_b, d_c)
    return t @ np.swapaxes(t, -1, -2).conj()


def traced_over_b(pur: Purification) -> np.ndarray:
    """Tr_B |psi><psi| as (dA*dC) x (dA*dC) matrices with index a*dC + c."""
    d_a, d_b, d_c = pur.dims
    lead = pur.state_vector.shape[:-1]
    t = pur.state_vector.reshape(*lead, d_a, d_b, d_c)
    rho_ac = np.einsum("...abc,...dbe->...acde", t, t.conj())
    return rho_ac.reshape(*lead, d_a * d_c, d_a * d_c)


def make_family(spec: FamilySpec) -> DensityMatrix:
    """Build the density matrix a FamilySpec describes."""
    p = spec.parameters
    if spec.name == "bell_diagonal":
        return make_bell_diagonal(p["c1"], p["c2"], p["c3"])
    if spec.name == "horodecki":
        return make_horodecki(p["p"])
    if spec.name == "example1":
        return make_example1(p["x"])
    if spec.name == "rho2":
        return make_rho2(p["x"], p["theta"], p["eta"])
    if spec.name == "random_rank2":
        return make_random_rank2(int(p["seed"]), int(p.get("da", 2)))
    raise OutOfDomain(f"unknown family {spec.name!r}")


def state_to_json_dict(rho: DensityMatrix) -> dict:
    """Wire format: {"dims": [dA, dB], "matrix": [[[re, im], ...], ...]}."""
    matrix = [
        [[float(cell.real), float(cell.imag)] for cell in row] for row in rho.matrix
    ]
    return {"dims": [rho.dim_a, rho.dim_b], "matrix": matrix}


def state_from_json_dict(obj) -> DensityMatrix:
    """Parse and validate the wire format, with a distinct message per defect."""
    if not isinstance(obj, dict):
        raise StateFormatError("state document must be a JSON object")
    try:
        dims = obj["dims"]
        rows = obj["matrix"]
    except (KeyError, TypeError) as exc:
        raise StateFormatError(f"missing field: {exc}") from exc
    if (
        not isinstance(dims, (list, tuple))
        or len(dims) != 2
        or not all(isinstance(d, int) and d >= 1 for d in dims)
    ):
        raise StateFormatError(f"dims must be two positive integers, got {dims!r}")
    try:
        m = np.array(
            [[complex(cell[0], cell[1]) for cell in row] for row in rows],
            dtype=complex,
        )
    except (TypeError, IndexError, ValueError) as exc:
        raise StateFormatError(f"matrix entries must be [re, im] pairs: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StateFormatError(f"matrix is not square: shape {m.shape}")
    if m.shape[0] != dims[0] * dims[1]:
        raise StateFormatError(
            f"matrix size {m.shape[0]} does not equal dims product {dims[0] * dims[1]}"
        )
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    if herm_dev > _JSON_TOL:
        raise StateFormatError(
            f"matrix is not Hermitian: deviation {herm_dev:.3e} exceeds 1e-08"
        )
    trace = complex(np.trace(m))
    if abs(trace - 1.0) > _JSON_TOL:
        raise StateFormatError(f"matrix trace is not 1: got {trace}")
    canonical = (m + m.conj().T) / 2.0
    canonical = canonical / float(np.trace(canonical).real)
    return DensityMatrix((dims[0], dims[1]), canonical)


def dump_state(rho: DensityMatrix, indent: Optional[int] = 2) -> str:
    """Serialize with shortest round-trip floats so reparsing is bit-exact."""
    return json.dumps(state_to_json_dict(rho), indent=indent)


def load_state(text: str) -> DensityMatrix:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"invalid JSON: {exc}") from exc
    return state_from_json_dict(obj)
