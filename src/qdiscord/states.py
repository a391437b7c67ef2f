"""Bipartite density matrices: named families, random rank-2 states and their
local-unitary twins drawn from counter-based Philox streams, and the JSON wire
format.

Basis ordering is computational throughout, with the bipartite index a*dB + b.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (DimensionMismatch, NotFinite, NotHermitian, NotPositive, OutOfDomain,
                     StateFormatError)
from .linalg import PAULI_X, PAULI_Y, PAULI_Z

HERMITIAN_TOL = 1e-10  # largest |m - m^dagger| entry a density matrix may have
DENSITY_TOL = 1e-10  # how far a density matrix's trace and spectrum may stray
MARGINAL_RANK_TOL = 1e-10  # rho_B is rank-1 when its smaller eigenvalue is at most this
# No entry of a density matrix exceeds 1 in modulus. Input entries beyond this
# are refused before any arithmetic, so that no sum, difference or spectrum
# of the checks can overflow; anything up to it is checked as usual.
ENTRY_LIMIT = 1e150
_JSON_TOL = 1e-8
_EMPTY_STACK = "a stack of states must not be empty"


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A bipartite density matrix with an explicit (dA, dB) split, or an
    (N, n, n) stack of them with one split.

    The input is validated in one pass (finite entries of modulus at most
    ENTRY_LIMIT, Hermiticity within HERMITIAN_TOL, trace and smallest
    eigenvalue within DENSITY_TOL; in a stack an error names its first
    offending member), then symmetrized and rescaled to unit trace, its real
    and imaginary parts apart, so that a zero part keeps its sign.
    ``spectrum`` keeps the ascending eigenvalues that validation computed,
    shaped (n,) or (N, n), read-only and bit for bit
    ``np.linalg.eigvalsh(matrix)``. Indexing and slicing give members,
    with their rows of ``spectrum``, without validating them again; one state
    indexes as a stack of one. An empty selection raises the constructor's
    DimensionMismatch, and an index on more than the member axis, such as
    ``stack[0, 1]`` or ``stack[:, 0]``, raises IndexError. A state equals
    only itself and hashes by identity.
    """

    dims: tuple
    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        try:
            d_a, d_b = map(operator.index, self.dims)
        except (TypeError, ValueError):
            raise DimensionMismatch(f"dims must be two integers, got {self.dims!r}") from None
        m = np.asarray(self.matrix, dtype=complex)
        if min(d_a, d_b) < 1:
            raise DimensionMismatch(f"dims must be two positive integers, got {self.dims!r}")
        n = d_a * d_b
        if m.ndim not in (2, 3) or m.shape[-2:] != (n, n):
            raise DimensionMismatch(f"matrix shape {m.shape} does not match dims ({d_a}, {d_b}), "
                                    f"which need {(n, n)} or (N, {n}, {n})")
        if m.size == 0:
            raise DimensionMismatch(_EMPTY_STACK)
        stack = m.reshape(-1, n, n)
        in_range = (np.abs(stack) <= ENTRY_LIMIT).all(axis=(1, 2))  # False at NaN too
        all_in_range = in_range.all()
        if not all_in_range:
            stack = np.where(in_range[:, None, None], stack, 0.0)
        adjoint = stack.conj().swapaxes(1, 2)
        herm_dev = np.abs(stack - adjoint).max(axis=(1, 2))
        trace = stack.trace(axis1=1, axis2=2)
        bad_trace = np.abs(trace - 1.0) > DENSITY_TOL
        canonical = np.add(stack, adjoint, order="C")
        # The canonical diagonal is the real part of the input's, so its
        # trace is trace.real, bit for bit. Complex division by a real
        # multiplies by its reciprocal but can flip a zero part's sign; the
        # parts times 0.5/trace give the same bits (for normal parts) and
        # keep the sign.
        scale = 0.5 / np.where(bad_trace, 1.0, trace.real)
        parts = canonical.view(float)
        parts *= scale[:, None, None]
        spectrum = np.linalg.eigvalsh(canonical)
        smallest = spectrum[:, 0]
        checks = (~in_range, herm_dev > HERMITIAN_TOL, bad_trace, smallest < -DENSITY_TOL)
        failing = checks[1] | checks[2] | checks[3]
        if not all_in_range:
            failing |= checks[0]
        if failing.any():
            i = int(np.argmax(failing))
            finite = np.isfinite(m.reshape(-1, n, n)[i]).all()
            error = [
                NotFinite("matrix has a NaN or infinite entry" if not finite else
                          f"matrix has an entry of modulus above {ENTRY_LIMIT:g}"),
                NotHermitian(f"matrix deviates from Hermiticity by {herm_dev[i]:.3e}"),
                ValueError(f"matrix trace {complex(trace[i])} is not 1 within {DENSITY_TOL}"),
                NotPositive(f"smallest eigenvalue {smallest[i]:.3e} is negative"),
            ][next(k for k, check in enumerate(checks) if check[i])]
            raise type(error)(f"state {i}: {error}") if m.ndim == 3 else error
        _keep(self, (d_a, d_b), canonical.reshape(m.shape), spectrum.reshape(m.shape[:-1]))

    def __len__(self) -> int:
        return 1 if self.matrix.ndim == 2 else len(self.matrix)

    def __getitem__(self, index) -> DensityMatrix:
        n = self.matrix.shape[-1]
        matrix = self.matrix.reshape(-1, n, n)[index]
        # An index on more than the member axis, such as stack[:, 0], could
        # give an (n, n) array that is no state.
        if (matrix.ndim not in (2, 3) or isinstance(index, tuple) and len(index) > 1
                or np.ndim(index) > 1):
            raise IndexError(f"index {index!r} does not select states")
        if matrix.size == 0:
            raise DimensionMismatch(_EMPTY_STACK)
        rho = object.__new__(DensityMatrix)
        _keep(rho, self.dims, matrix, self.spectrum.reshape(-1, n)[index])
        return rho

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The matrix or stack, so numpy reads a state as an array, not a sequence."""
        return np.array(self.matrix, dtype=dtype, copy=copy)

    @property
    def dim_a(self) -> int:
        return self.dims[0]

    @property
    def dim_b(self) -> int:
        return self.dims[1]


def _keep(rho: DensityMatrix, dims: tuple, matrix: np.ndarray, spectrum: np.ndarray):
    """Set the fields of ``rho`` to validated values; both arrays become read-only."""
    matrix.flags.writeable = spectrum.flags.writeable = False
    object.__setattr__(rho, "dims", dims)
    object.__setattr__(rho, "matrix", matrix)
    object.__setattr__(rho, "spectrum", spectrum)


def _stack_of(rho) -> DensityMatrix:
    """The entry and the one dims rule of every function that takes a
    DensityMatrix: ``rho`` as a stack, one state as a stack of one; TypeError
    for anything else, DimensionMismatch unless B is a qubit."""
    if not isinstance(rho, DensityMatrix):
        raise TypeError(f"expected a DensityMatrix, got {type(rho).__name__}")
    if rho.dim_b != 2:
        raise DimensionMismatch(f"dims must be (dA, 2), side B a qubit, got dims {rho.dims}")
    return rho[:]


def _unstack(rho: DensityMatrix, values, errors=MappingProxyType({})):
    """The exit paired with ``_stack_of``: ``values``, one per member, for a stack;
    for one state its value as a Python scalar, or its error raised if ``errors``,
    a mapping from the index of each failing member to its error, holds one."""
    if rho.matrix.ndim == 2 and 0 in errors:
        raise errors[0]
    return np.asarray(values).item() if rho.matrix.ndim == 2 else values


def make_bell_diagonal(c1: float, c2: float, c3: float) -> DensityMatrix:
    """State (I + c1 XX + c2 YY + c3 ZZ)/4, valid when all Bell weights are >= 0."""
    for name, c in (("c1", c1), ("c2", c2), ("c3", c3)):
        if not math.isfinite(c):
            raise OutOfDomain(f"{name}={c} is not a finite number")
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
        + c1 * np.kron(PAULI_X, PAULI_X)
        + c2 * np.kron(PAULI_Y, PAULI_Y)
        + c3 * np.kron(PAULI_Z, PAULI_Z)
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


def philox_key(key: int) -> int:
    """``key`` as a Philox key: an integer in [0, 2**128) and not a boolean."""
    if isinstance(key, (bool, np.bool_)):
        raise OutOfDomain(f"seed={key!r} is a boolean, not an integer key")
    key = operator.index(key)
    if not 0 <= key < 2**128:
        raise OutOfDomain(f"seed={key} outside [0, 2**128)")
    return key


def philox(key: int) -> np.random.Philox:
    """A fresh Philox4x64 bit generator keyed by ``philox_key(key)``. Its
    counter starts at 0, and each counter step gives four 64-bit outputs, one
    double each as ``random()`` reads them, so ``advance(m)`` skips exactly
    4m doubles."""
    return np.random.Philox(key=philox_key(key))


def box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals from uniforms in [0, 1), last axis of even length:
    each adjacent pair (u0, u1) gives r cos(2 pi u1) and r sin(2 pi u1), with
    r = sqrt(-2 log(1 - u0)), so u0 = 0 stays finite and normal k reads
    uniforms k and k ^ 1 only. Unlike ``standard_normal``, whose ziggurat
    takes a varying number of outputs, every normal has a fixed place in
    its stream."""
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0::2]))
    angle = 2.0 * np.pi * u[..., 1::2]
    normals = np.empty(u.shape)
    np.multiply(r, np.cos(angle), out=normals[..., 0::2])
    np.multiply(r, np.sin(angle), out=normals[..., 1::2])
    return normals


def _trial_width(dim_a: int) -> int:
    """Doubles per trial block: the eigenvalue uniform, then the uniforms of
    8 dA normals for the state, 2 dA^2 for U_A and 8 for U_B, padded to a
    whole number of Philox counter steps (36 at dA = 2)."""
    return -(-(9 + 8 * dim_a + 2 * dim_a**2) // 4) * 4


def _trial_blocks(key: int, trials: range, dim_a: int) -> np.ndarray:
    """The (len(trials), width) uniforms of trials ``range(start, stop)``:
    trial t owns row t of the key's one Philox stream read as
    ``random((N, width))``, reached by advancing t * width / 4 steps."""
    if isinstance(dim_a, bool) or not (isinstance(dim_a, numbers.Integral) and dim_a >= 1):
        raise OutOfDomain(f"dim_a={dim_a!r} is not a positive integer")
    if not isinstance(trials, range) or trials.start < 0 or trials.step != 1:
        raise OutOfDomain(f"trials={trials} is not a range(start, stop) of trial indices")
    width = _trial_width(int(dim_a))  # a numpy integer would overflow in Philox.advance
    bits = philox(key)
    bits.advance(trials.start * width // 4)
    return np.random.Generator(bits).random((len(trials), width))


def _norms(v: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of a complex stack, summed as ``np.linalg.norm``
    sums one vector (real, then imaginary dot products), so the bits match."""
    re, im = v.real[..., None, :], v.imag[..., None, :]
    return np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]


def _rank2_states(blocks: np.ndarray, dim_a: int) -> DensityMatrix:
    """The rank-2 states of trial blocks: top eigenvalue 0.05 + 0.9 u from
    column 0, eigenvectors the orthonormalized complex Gaussian vectors of
    the next 8 dA columns' normals (real parts, then imaginary parts)."""
    n = 2 * dim_a
    lam = 0.05 + 0.9 * blocks[:, 0, None, None]
    draws = box_muller(blocks[:, 1:1 + 4 * n]).reshape(-1, 2, 2, n)
    v = draws[:, 0] + 1j * draws[:, 1]
    v1 = v[:, 0] / _norms(v[:, 0])[:, None]
    overlap = (v1.conj()[:, None, :] @ v[:, 1, :, None])[:, 0]
    v2 = v[:, 1] - overlap * v1
    v2 = v2 / _norms(v2)[:, None]
    m = (lam * (v1[:, :, None] * v1.conj()[:, None, :])
         + (1.0 - lam) * (v2[:, :, None] * v2.conj()[:, None, :]))
    return DensityMatrix((dim_a, 2), m)


def _haar_unitaries(draws: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from (N, 2, d, d) normals (real parts, then
    imaginary parts): Q of the QR of the complex Gaussians Z, its columns
    rephased so that R has a positive diagonal (without that step Q is not
    Haar-distributed; Mezzadri, Notices AMS 54, 592, 2007). At d = 2 that Q
    is in closed form: q0 = z0/|z0|, and q1 = (c/|c|) (-conj(beta), conj(alpha))
    with (alpha, beta) = q0 and c = alpha z1[1] - beta z1[0], the part of z1
    orthogonal to q0. Other d take a batched QR."""
    z = draws[:, 0] + 1j * draws[:, 1]
    if z.shape[-1] != 2:
        q, r = np.linalg.qr(z)
        diagonal = np.diagonal(r, axis1=-2, axis2=-1)
        return q * (diagonal / np.abs(diagonal)).conj()[:, None, :]
    q = np.empty_like(z)
    q[:, :, 0] = z[:, :, 0] / np.hypot(np.abs(z[:, 0, 0]), np.abs(z[:, 1, 0]))[:, None]
    alpha, beta = q[:, 0, 0], q[:, 1, 0]
    c = alpha * z[:, 1, 1] - beta * z[:, 0, 1]
    phase = c / np.abs(c)
    q[:, 0, 1] = -phase * beta.conj()
    q[:, 1, 1] = phase * alpha.conj()
    return q


def random_trials(seed: int, trials: range, dim_a: int = 2):
    """(states, twins) of the random trials ``range(start, stop)`` of ``seed``:
    two validated stacks, twin t the local-unitary image
    ``(U_A x U_B) rho_t (U_A x U_B)^dagger`` of state t.

    Trial t owns a fixed block of the one counter-based Philox stream keyed
    by ``seed`` (see ``_trial_blocks``): a uniform for the top eigenvalue,
    normals for the state's two eigenvectors, then normals for the dA x dA
    U_A and the 2 x 2 U_B of its twin, normals made by ``box_muller``. So a
    trial reads the same numbers whichever range it is drawn in, and one
    stream serves the whole range. The unitaries are drawn for the whole
    range at once (``_haar_unitaries``: 2x2 in closed form, a batched QR at
    other dA), and they never leave this function.
    ``make_random_rank2(seed, dim_a)`` is the state of trial 0.
    """
    blocks = _trial_blocks(seed, trials, dim_a)
    states = _rank2_states(blocks, dim_a)
    k, n_a, n = 1 + 8 * dim_a, 2 * dim_a**2, 2 * dim_a
    normals = box_muller(blocks[:, k:k + n_a + 8])
    u_a = _haar_unitaries(normals[:, :n_a].reshape(-1, 2, dim_a, dim_a))
    u_b = _haar_unitaries(normals[:, n_a:].reshape(-1, 2, 2, 2))
    u = (u_a[:, :, None, :, None] * u_b[:, None, :, None, :]).reshape(-1, n, n)  # np.kron per trial
    return states, DensityMatrix(states.dims, u @ states.matrix @ u.conj().swapaxes(1, 2))


def make_random_rank2(seed: int, dim_a: int = 2) -> DensityMatrix:
    """Random rank-2 state on dA x 2, deterministic in the seed: the state of
    trial 0 of ``random_trials(seed, range(1), dim_a)``.

    The two eigenvectors are orthonormalized complex Gaussian vectors and the
    top eigenvalue is drawn uniformly from [0.05, 0.95]. For many states,
    draw a range of trials of one seed with ``random_trials``.
    """
    return _rank2_states(_trial_blocks(seed, range(1), dim_a), dim_a)[0]


def dump_state(rho: DensityMatrix) -> str:
    """The wire format {"dims": [dA, dB], "matrix": [[[re, im], ...], ...]} of
    one state, with shortest round-trip floats so reparsing is bit-exact,
    signed zeros included: ``load_state`` gives the state back bit for bit
    when its diagonal sums to exactly 1, and rescales by that sum otherwise. A
    stack raises DimensionMismatch. The text is ``json.dumps(..., indent=2)``
    of those nested lists, byte for byte, built one row at a time so the
    lists of every entry never exist."""
    if rho.matrix.ndim != 2:
        raise DimensionMismatch(
            f"the JSON wire format takes one state, got a stack of {len(rho)}")
    rows = ",\n".join(
        "    [\n" + ",\n".join(f"      [\n        {re!r},\n        {im!r}\n      ]"
                             for re, im in zip(row.real.tolist(), row.imag.tolist())) + "\n    ]"
        for row in rho.matrix)
    return f'{{\n  "dims": [\n    {rho.dim_a},\n    {rho.dim_b}\n  ],\n  "matrix": [\n{rows}\n  ]\n}}'


def load_state(text: str) -> DensityMatrix:
    """Parse and validate the wire format, with a distinct message per defect."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise StateFormatError(f"state document is nested too deeply: {exc}") from exc
    if not isinstance(obj, dict):
        raise StateFormatError("state document must be a JSON object")
    try:
        dims = obj["dims"]
        rows = obj["matrix"]
    except KeyError as exc:
        raise StateFormatError(f"missing field: {exc}") from exc
    if (
        not isinstance(dims, (list, tuple))
        or len(dims) != 2
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)
    ):
        raise StateFormatError(f"dims must be two positive integers, got {dims!r}")
    try:
        if any(isinstance(part, bool) for row in rows for cell in row for part in cell[:2]):
            raise TypeError("true and false are not numbers")
        # Unpacking each entry rejects one of any length but 2.
        m = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise StateFormatError(f"matrix entries must be [re, im] pairs: {exc}") from exc
    if not (np.abs(m) <= ENTRY_LIMIT).all():
        if not np.isfinite(m).all():
            raise StateFormatError("matrix entries must be finite, got NaN or Infinity")
        raise StateFormatError(f"matrix entries must be at most {ENTRY_LIMIT:g} in modulus")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StateFormatError(f"matrix is not square: shape {m.shape}")
    if m.shape[0] != dims[0] * dims[1]:
        raise StateFormatError(
            f"matrix size {m.shape[0]} does not equal dims product {dims[0] * dims[1]}"
        )
    adjoint = m.conj().T
    herm_dev = float(np.abs(m - adjoint).max())
    if herm_dev > _JSON_TOL:
        raise StateFormatError(
            f"matrix is not Hermitian: deviation {herm_dev:.3e} exceeds {_JSON_TOL:g}"
        )
    trace = complex(m.trace())
    if abs(trace - 1.0) > _JSON_TOL:
        raise StateFormatError(f"matrix trace is not 1: got {trace}")
    canonical = np.add(m, adjoint, order="C")
    parts = canonical.view(float)  # halved and rescaled at once, as DensityMatrix scales
    parts *= 1.0 / canonical.trace().real
    return DensityMatrix((dims[0], dims[1]), canonical)
