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

from .errors import (DimensionMismatch, NotFinite, NotHermitian, NotPositive, OutOfDomain,
                     StateFormatError)
from .linalg import HERMITIAN_TOL, PAULI_X, PAULI_Y, PAULI_Z, partial_trace, tensor

RANK_TOL = 1e-10
DENSITY_TOL = 1e-10  # how far a density matrix's trace and spectrum may stray
_JSON_TOL = 1e-8


@dataclass(frozen=True)
class DensityMatrix:
    """A bipartite density matrix with an explicit (dA, dB) split, or an
    (N, n, n) stack of them with one split.

    The input is validated in one pass (finite entries, Hermiticity within
    HERMITIAN_TOL, trace and smallest eigenvalue within DENSITY_TOL; in a
    stack an error names its first offending member), then symmetrized and
    rescaled to unit trace. Indexing and slicing give members without
    validating them again; one state indexes as a stack of one.
    """

    dims: tuple
    matrix: np.ndarray

    def __post_init__(self):
        d_a, d_b = int(self.dims[0]), int(self.dims[1])
        m = np.asarray(self.matrix, dtype=complex)
        if min(d_a, d_b) < 1 or m.ndim not in (2, 3) or m.shape[-2:] != (d_a * d_b,) * 2:
            raise DimensionMismatch(f"matrix shape {m.shape} does not match dims ({d_a}, {d_b})")
        if m.size == 0:
            raise DimensionMismatch("a stack of states must not be empty")
        stack = m.reshape(-1, d_a * d_b, d_a * d_b)
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            stack = np.where(finite[:, None, None], stack, 0.0)
        adjoint = stack.conj().swapaxes(1, 2)
        herm_dev = np.max(np.abs(stack - adjoint), axis=(1, 2))
        trace = np.trace(stack, axis1=1, axis2=2)
        bad_trace = np.abs(trace - 1.0) > DENSITY_TOL
        canonical = (stack + adjoint) / 2.0
        scale = np.trace(canonical, axis1=1, axis2=2).real
        scale[bad_trace] = 1.0
        canonical /= scale[:, None, None]
        smallest = np.linalg.eigvalsh(canonical)[:, 0]
        checks = (~finite, herm_dev > HERMITIAN_TOL, bad_trace, smallest < -DENSITY_TOL)
        failing = checks[0] | checks[1] | checks[2] | checks[3]
        if failing.any():
            i = int(np.argmax(failing))
            error = [
                NotFinite("matrix has a NaN or infinite entry"),
                NotHermitian(f"matrix deviates from Hermiticity by {herm_dev[i]:.3e}"),
                ValueError(f"matrix trace {complex(trace[i])} is not 1 within {DENSITY_TOL}"),
                NotPositive(f"smallest eigenvalue {smallest[i]:.3e} is negative"),
            ][next(k for k, check in enumerate(checks) if check[i])]
            raise type(error)(f"state {i}: {error}") if m.ndim == 3 else error
        canonical = canonical.reshape(m.shape)
        canonical.flags.writeable = False
        object.__setattr__(self, "dims", (d_a, d_b))
        object.__setattr__(self, "matrix", canonical)

    def __len__(self) -> int:
        return 1 if self.matrix.ndim == 2 else len(self.matrix)

    def __getitem__(self, index) -> DensityMatrix:
        matrix = self.matrix.reshape(-1, *self.matrix.shape[-2:])[index]
        if matrix.ndim not in (2, 3):
            raise IndexError(f"index {index!r} does not select states")
        matrix.flags.writeable = False
        member = object.__new__(DensityMatrix)
        object.__setattr__(member, "dims", self.dims)
        object.__setattr__(member, "matrix", matrix)
        return member

    @property
    def dim_a(self) -> int:
        return self.dims[0]

    @property
    def dim_b(self) -> int:
        return self.dims[1]


def one_state(rho: DensityMatrix, user: str) -> DensityMatrix:
    """``rho`` if it is one state; DimensionMismatch naming ``user`` for a stack."""
    if rho.matrix.ndim != 2:
        raise DimensionMismatch(f"{user} takes one state, got a stack of {len(rho)}")
    return rho


@dataclass(frozen=True)
class Purification:
    """Pure |psi>_ABC with Tr_C recovering the source state (a row per state).

    The C dimension equals the numerical rank of the source, so rank-1 inputs
    get a trivial one-dimensional C and rank-2 inputs get a qubit C.
    """

    state_vector: np.ndarray
    dims: tuple
    eigenvalues: np.ndarray


def make_bell_diagonal(c1: float, c2: float, c3: float) -> DensityMatrix:
    """State (I + c1 XX + c2 YY + c3 ZZ)/4, valid when all Bell weights are >= 0."""
    weights = (
        (1 + c1 - c2 + c3) / 4.0,
        (1 - c1 + c2 + c3) / 4.0,
        (1 + c1 + c2 - c3) / 4.0,
        (1 - c1 - c2 - c3) / 4.0,
    )
    smallest = min(weights)
    if smallest < -DENSITY_TOL:
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


def _in_domain(name: str, value, high: float, interval: str) -> np.ndarray:
    """``value`` as a float array; OutOfDomain naming its first entry outside [0, high]."""
    v = np.asarray(value, dtype=float)
    outside = ~((v >= 0.0) & (v <= high))
    if outside.any():
        raise OutOfDomain(f"{name}={v[outside].flat[0]} outside {interval}")
    return v


def make_horodecki(p) -> DensityMatrix:
    """Mixture p |psi+><psi+| + (1-p) |00><00| with |psi+> = (|01>+|10>)/sqrt2.

    An array of weights gives a stack, one state per weight.
    """
    p = _in_domain("p", p, 1.0, "[0, 1]")
    m = np.zeros((*p.shape, 4, 4), dtype=complex)
    m[..., 0, 0] = 1.0 - p
    m[..., 1, 1] = m[..., 2, 2] = m[..., 1, 2] = m[..., 2, 1] = p / 2.0
    return DensityMatrix((2, 2), m)


def make_example1(x) -> DensityMatrix:
    """Two-qubit family with spectrum {(2-x)/6, (2-x)/6, (2+x)/6, x/6} on x in [0, 2].

    An array of x gives a stack, one state per value.
    """
    x = _in_domain("x", x, 2.0, "[0, 2]")
    m = np.zeros((*x.shape, 4, 4), dtype=complex)
    m[..., 0, 0] = m[..., 3, 3] = (2.0 - x) / 6.0
    m[..., 1, 1] = m[..., 2, 2] = (1.0 + x) / 6.0
    m[..., 1, 2] = m[..., 2, 1] = 1.0 / 6.0
    return DensityMatrix((2, 2), m)


def rho2_domain(x, theta: float, eta: float) -> np.ndarray:
    """The rho2 weights ``x`` as a float array, after checking x and both angles."""
    x = _in_domain("x", x, 1.0, "[0, 1]")
    for name, angle in (("theta", theta), ("eta", eta)):
        _in_domain(name, angle, 2.0 * math.pi, "[0, 2*pi]")
    return x


def make_rho2(x, theta: float, eta: float) -> DensityMatrix:
    """Rank-<=2 mixture of sin(theta)|00>+cos(theta)|11> and sin(eta)|01>+cos(eta)|10>.

    An array of weights x gives a stack, one state per weight.
    """
    x = rho2_domain(x, theta, eta)[..., None, None]
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


def make_random_rank2(seed, dim_a: int = 2) -> DensityMatrix:
    """Random rank-2 state on dA x 2, deterministic in the seed.

    The two eigenvectors are orthonormalized complex Gaussian vectors and the
    top eigenvalue is drawn uniformly from [0.05, 0.95]. A sequence of seeds
    gives a stack: each seed draws from its own stream, as a single call
    would, and the stack is validated once.
    """
    if dim_a not in (2, 3, 4):
        raise OutOfDomain(f"dim_a={dim_a} not in {{2, 3, 4}}")
    single, n = np.ndim(seed) == 0, dim_a * 2
    matrices = []
    for s in [seed] if single else seed:
        rng = np.random.default_rng(s)
        lam = rng.uniform(0.05, 0.95)
        re = rng.standard_normal((2, n))
        im = rng.standard_normal((2, n))
        v1 = re[0] + 1j * im[0]
        v2 = re[1] + 1j * im[1]
        v1 = v1 / np.linalg.norm(v1)
        v2 = v2 - np.vdot(v1, v2) * v1
        v2 = v2 / np.linalg.norm(v2)
        matrices.append(lam * np.outer(v1, v1.conj()) + (1.0 - lam) * np.outer(v2, v2.conj()))
    m = np.array(matrices).reshape(-1, n, n)
    return DensityMatrix((dim_a, 2), m[0] if single else m)


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


def purify(rho: DensityMatrix) -> Purification:
    """Attach an ancilla C of dimension rank(rho) (eigenvalues above RANK_TOL)
    carrying the eigenbasis index. A stack gives one row per state; C takes
    the stack's largest rank, and extra levels weigh 0."""
    matrices, (d_a, d_b) = rho[:].matrix, rho.dims
    values, vectors = np.linalg.eigh(matrices)
    values, vectors = values[:, ::-1], vectors[:, :, ::-1]
    kept = values > RANK_TOL
    d_c = int(kept.sum(axis=1).max())
    lam = np.where(kept[:, :d_c], values[:, :d_c], 0.0)
    psi = (vectors[:, :, :d_c] * np.sqrt(lam)[:, None, :]).reshape(len(matrices), -1)
    psi = psi / np.linalg.norm(psi, axis=1, keepdims=True)
    if rho.matrix.ndim == 2:
        psi, lam = psi[0], lam[0]
    return Purification(state_vector=psi, dims=(d_a, d_b, d_c), eigenvalues=lam)


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


def state_to_json_dict(rho: DensityMatrix) -> dict:
    """Wire format: {"dims": [dA, dB], "matrix": [[[re, im], ...], ...]}."""
    matrix = [
        [[float(cell.real), float(cell.imag)] for cell in row]
        for row in one_state(rho, "the JSON wire format").matrix
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
    if not np.isfinite(m).all():
        raise StateFormatError("matrix entries must be finite, got NaN or Infinity")
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
