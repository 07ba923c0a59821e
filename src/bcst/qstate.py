"""Dense state-vector engine for small qubit registers.

Conventions used everywhere in this package: the basis label |q1 q2 ... qN>
maps to the integer index whose most significant bit is q1, so kets read left
to right and qubit positions are 0-based from the left.  States and density
matrices are immutable values; every operation returns a new object.  A
StateVector may also hold a batch of states over one register, one row per
trial; the state kernels keep that leading trial axis, so a run of T trials
is one array pass and a single state is the case without the axis.  All
approximate comparisons share a single tolerance, TOLERANCE, overridable
through the BCST_TOLERANCE environment variable.  It is read on first use, so
a malformed value fails the first check that needs it (and the CLI up front)
rather than `import bcst`.  Checks are written as `not deviation <= tol`, so
a NaN anywhere fails them.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MAX_QUBITS = 12


def clip(text: str, *, quote: bool = True) -> str:
    """repr(text), or text itself unless `quote`, cut after 40 characters of
    text with its length noted, so that an error quoting user input stays
    one short line."""
    shown = repr(text) if quote else text
    if len(shown) <= 40 + 2 * quote:
        return shown
    return f"{shown[:40 + quote]}... ({len(text)} characters)"


@functools.cache
def _tolerance() -> float:
    """BCST_TOLERANCE (default 1e-12); ValueError unless finite and positive."""
    text = os.environ.get("BCST_TOLERANCE", "1e-12")
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(
            f"BCST_TOLERANCE must be a finite positive number, got {text!r}"
        )
    return value


def __getattr__(name: str):
    if name == "TOLERANCE":
        return _tolerance()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _row_sqnorms(x: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a batch."""
    return np.einsum("ti,ti->t", x.conj(), x).real


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over an ordered qubit register.

    `amplitudes` has shape (2^N,) for one state or (T, 2^N) for a batch of
    T states, row t being trial t; anything else of size 2^N is flattened.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(
                f"register size {self.num_qubits} outside [1, {MAX_QUBITS}]"
            )
        d = 1 << self.num_qubits
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.ndim == 2 and amps.shape[1] == d:
            deviation = np.max(np.abs(_row_sqnorms(amps) - 1.0))
        else:
            amps = amps.reshape(-1)
            if amps.size != d:
                raise ValueError(f"expected {d} amplitudes, got {amps.size}")
            deviation = abs(np.vdot(amps, amps).real - 1.0)
        if not deviation <= _tolerance():
            raise ValueError("amplitudes are not normalized")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[-1]

    @property
    def batch(self) -> int | None:
        """Number of trials in a batch, None for a single state."""
        return self.amplitudes.shape[0] if self.amplitudes.ndim == 2 else None


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace operator on a qubit register."""

    num_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=np.complex128)
        d = 1 << self.num_qubits
        if m.shape != (d, d):
            raise ValueError(f"expected {d}x{d} matrix, got {m.shape}")
        if not np.max(np.abs(m - m.conj().T)) <= _tolerance():
            raise ValueError("matrix is not Hermitian")
        if not abs(np.trace(m).real - 1.0) <= _tolerance():
            raise ValueError("trace is not 1")
        object.__setattr__(self, "entries", _frozen(m))


def _check_targets(num_qubits: int, targets: Sequence[int]) -> tuple[int, ...]:
    t = tuple(int(q) for q in targets)
    if len(t) == 0:
        raise ValueError("empty target list")
    if len(set(t)) != len(t):
        raise ValueError(f"duplicate qubit positions in {t}")
    for q in t:
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit {q} outside register of {num_qubits}")
    return t


def ket(bits: str) -> StateVector:
    """Computational basis state from a bit string, e.g. ket("01")."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"not a bit string: {bits!r}")
    amps = np.zeros(1 << len(bits), dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return StateVector(len(bits), amps)


def from_amplitudes(amplitudes, *, atol: float | None = None) -> StateVector:
    """Wrap raw amplitudes, renormalizing when within atol of unit norm."""
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    n = amps.size
    if n < 2 or n & (n - 1):
        raise ValueError(f"amplitude count {n} is not a power of two")
    # finite amplitudes can still square past the double range; the norm is
    # then inf, which the check below rejects without numpy's warning
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(amps))
    if atol is not None:
        if not abs(norm - 1.0) <= atol:
            raise ValueError(f"norm {norm} further than {atol} from 1")
        amps = amps / norm
    return StateVector(n.bit_length() - 1, amps)


def tensor(*states: StateVector) -> StateVector:
    """Tensor product; the first argument supplies the leftmost qubits.

    Batches multiply row by row, and a single state joins every row."""
    if not states:
        raise ValueError("tensor of nothing")
    amps = states[0].amplitudes
    for s in states[1:]:
        b = s.amplitudes
        lead = amps.shape[:-1] or b.shape[:-1]
        amps = (amps[..., :, None] * b[..., None, :]).reshape(lead + (-1,))
    return StateVector(sum(s.num_qubits for s in states), amps)


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b> of two single states."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("register size mismatch")
    if a.batch is not None or b.batch is not None:
        raise ValueError("inner product of batches is not defined")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def apply_unitary(state: StateVector, u, targets: Sequence[int]) -> StateVector:
    """Apply a unitary to the listed qubits, first target = leftmost bit of u.

    A (T, d, d) stack of unitaries applies u[t] to row t of a batch."""
    t = _check_targets(state.num_qubits, targets)
    k = len(t)
    u = np.asarray(u, dtype=np.complex128)
    if u.shape[-2:] != (1 << k, 1 << k) or u.ndim > 3:
        raise ValueError(f"operator shape {u.shape} does not act on {k} qubits")
    if not np.max(np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(1 << k))) <= 1e-10:
        raise ValueError("operator is not unitary")
    mat, _ = _project_matrix(state, t)
    return StateVector(state.num_qubits, _unproject(u @ mat, t))


def permute_qubits(state: StateVector, order: Sequence[int]) -> StateVector:
    """Reorder the register so new position k holds old qubit order[k]."""
    t = _check_targets(state.num_qubits, order)
    if len(t) != state.num_qubits:
        raise ValueError("order must list every qubit exactly once")
    psi = state.amplitudes.reshape([2] * state.num_qubits).transpose(t)
    return StateVector(state.num_qubits, psi.reshape(-1))


@functools.lru_cache(maxsize=256)
def _axis_order(
    n: int, targets: tuple[int, ...], lead: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis order moving the targets to the front (the rest keep their
    order) and its inverse, which puts every qubit back; `lead` leading
    (trial) axes stay in place."""
    order = targets + tuple(q for q in range(n) if q not in targets)
    inverse = tuple(order.index(q) for q in range(n))
    keep = tuple(range(lead))
    return (keep + tuple(lead + q for q in order),
            keep + tuple(lead + q for q in inverse))


def _project_matrix(state: StateVector, targets: tuple[int, ...]):
    """Amplitudes as a (target block) x (rest block) matrix, one per row of a
    batch, plus the rest count."""
    n, k = state.num_qubits, len(targets)
    lead = state.amplitudes.shape[:-1]
    order, _ = _axis_order(n, targets, len(lead))
    psi = state.amplitudes.reshape(lead + (2,) * n).transpose(order)
    return psi.reshape(lead + (1 << k, -1)), n - k


def _unproject(mat: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """Inverse of _project_matrix: amplitudes in register order."""
    lead = mat.shape[:-2]
    n = (mat.shape[-2] * mat.shape[-1]).bit_length() - 1
    _, inverse = _axis_order(n, targets, len(lead))
    return mat.reshape(lead + (2,) * n).transpose(inverse).reshape(lead + (-1,))


def split_factor(
    state: StateVector, targets: Sequence[int], element: StateVector
) -> tuple[float | np.ndarray, StateVector | None]:
    """Project the target qubits onto element; (probability, normalized
    residual state over the remaining qubits in increasing position order),
    or (probability, None) when the probability is numerically zero.

    On a batch the weights are an array and a batch element projects row t
    onto its own row t; the residual is None if any row has no weight."""
    t = _check_targets(state.num_qubits, targets)
    if element.num_qubits != len(t):
        raise ValueError("element size does not match target count")
    if len(t) >= state.num_qubits:
        raise ValueError("no qubits would remain")
    mat, rest = _project_matrix(state, t)
    elem = element.amplitudes.conj()
    resid = elem @ mat if elem.ndim == 1 else (elem[:, None, :] @ mat)[:, 0, :]
    if resid.ndim == 1:
        prob = float(np.vdot(resid, resid).real)
        scale = np.sqrt(prob)
    else:
        prob = _row_sqnorms(resid)
        scale = np.sqrt(prob)[:, None]
    if _least(prob) < 1e-15:
        return prob, None
    return prob, StateVector(rest, resid / scale)


def factor_out(
    state: StateVector, targets: Sequence[int], element: StateVector
) -> StateVector:
    """Strip a subsystem known to be exactly in `element` (weight must be 1)."""
    prob, resid = split_factor(state, targets, element)
    if resid is None or _least(prob) < 1.0 - 1e-9:
        raise ValueError(
            f"subsystem carries weight {_least(prob)}, cannot factor out"
        )
    return resid


def _least(prob) -> float:
    """The weight itself, or the least weight of a batch."""
    return prob if isinstance(prob, float) else float(prob.min())


def _generators(rng) -> tuple[tuple[np.random.Generator, ...], bool]:
    """(generators, whether a single one was given instead of a sequence)."""
    if isinstance(rng, np.random.Generator):
        return (rng,), True
    return tuple(rng), False


def validate_orthonormal(states) -> np.ndarray:
    """The states' amplitudes as rows; ValueError unless they are pairwise
    orthonormal within tolerance, naming the worst pair and its deviation."""
    states = list(states)
    if not states:
        raise ValueError("no states given")
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise ValueError("states live on different registers")
    b = np.stack([s.amplitudes for s in states])
    dev = np.abs(b.conj() @ b.T - np.eye(len(states)))
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    if not dev[i, j] <= _tolerance():
        raise ValueError(f"states are not orthonormal: pair ({i}, {j}) "
                         f"deviates by {dev[i, j]:.3g}")
    return b


@functools.lru_cache(maxsize=64)
def _basis_matrix(basis: tuple[StateVector, ...], k: int) -> np.ndarray:
    """Basis states as rows, checked once per basis to be a complete
    orthonormal basis of k qubits (states hash by identity, so a hit is the
    very same immutable states)."""
    b = validate_orthonormal(basis)
    if b.shape != (1 << k, 1 << k):
        raise ValueError(f"need {1 << k} states of {k} qubits, got shape {b.shape}")
    return _frozen(b)


def basis_element(basis: Sequence[StateVector], idx) -> StateVector:
    """basis[idx]; an index array gives a batch whose row t is basis[idx[t]]."""
    if np.ndim(idx) == 0:
        return basis[int(idx)]
    b = _basis_matrix(tuple(basis), basis[0].num_qubits)
    return StateVector(basis[0].num_qubits, b[np.asarray(idx)])


def measure_in_basis(
    state: StateVector,
    targets: Sequence[int],
    basis: Sequence[StateVector],
    rng,
):
    """Projective measurement of the targets in a complete orthonormal basis.

    Samples an outcome with Born probabilities from rng and collapses by
    projection plus renormalization (the basis is never silently extended).
    Returns (outcome index, outcome probability, collapsed state).

    Given a sequence of generators, one per trial, it measures every row of
    a batch (a single state once per generator), each outcome drawn from its
    own row's generator by one `random()` call, as `Generator.choice` does;
    indices and probabilities are then arrays and the state a batch.
    """
    t = _check_targets(state.num_qubits, targets)
    b = _basis_matrix(tuple(basis), len(t))
    rngs, single = _generators(rng)
    batch = state.batch
    if single and batch is not None:
        raise ValueError("a batch of states needs one generator per trial")
    if batch is not None and len(rngs) != batch:
        raise ValueError(f"{len(rngs)} generators for a batch of {batch} states")
    mat, _ = _project_matrix(state, t)
    resid = b.conj() @ mat  # row k = unnormalized residual for outcome k
    probs = np.einsum("...ij,...ij->...i", resid.conj(), resid).real
    if not single and batch is None:  # one state, measured once per generator
        resid = np.broadcast_to(resid, (len(rngs),) + resid.shape)
        probs = np.broadcast_to(probs, (len(rngs),) + probs.shape)
    total = probs.sum(axis=-1, keepdims=True)
    if not np.all((0.0 < total) & (total < np.inf)):
        raise ValueError("outcome probabilities do not sum to a positive number")
    cdf = (probs / total).cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    draws = np.array([g.random() for g in rngs]).reshape(cdf.shape[:-1] + (1,))
    idx = np.count_nonzero(cdf <= draws, axis=-1)  # searchsorted(.., "right")
    prob = np.take_along_axis(probs, idx[..., None], -1)[..., 0]
    r = np.take_along_axis(resid, idx[..., None, None], -2)[..., 0, :]
    r = r / np.sqrt(prob)[..., None]
    full = b[idx][..., :, None] * r[..., None, :]
    collapsed = StateVector(state.num_qubits, _unproject(full, t))
    if single:
        return int(idx), float(prob), collapsed
    return idx, prob, collapsed


def partial_trace(state: StateVector, keep: Sequence[int]) -> DensityMatrix:
    """Reduced density matrix over `keep`, ordered as listed."""
    t = _check_targets(state.num_qubits, keep)
    mat, _ = _project_matrix(state, t)
    return DensityMatrix(len(t), mat @ mat.conj().T)


def fidelity_up_to_phase(a: StateVector, b: StateVector) -> float:
    """|<a|b>| — insensitive to global phase, 1 iff equal up to phase."""
    return min(1.0, abs(inner(a, b)))


def trace_distance(r1: DensityMatrix, r2: DensityMatrix) -> float:
    """(1/2) * trace norm of the difference."""
    if r1.num_qubits != r2.num_qubits:
        raise ValueError("register size mismatch")
    return float(0.5 * np.linalg.svd(r1.entries - r2.entries, compute_uv=False).sum())


def purity(rho: DensityMatrix) -> float:
    """trace(rho^2); 1 for pure states, 1/d for the maximally mixed state."""
    return float(np.trace(rho.entries @ rho.entries).real)


def principal_state(rho: DensityMatrix) -> StateVector:
    """Extract the pure state from a (numerically) rank-one density matrix."""
    if purity(rho) < 1.0 - 1e-9:
        raise ValueError(f"not pure enough: purity {purity(rho)}")
    vals, vecs = np.linalg.eigh(rho.entries)
    return StateVector(rho.num_qubits, vecs[:, -1])


def random_state(num_qubits: int, rng) -> StateVector:
    """Haar-random pure state; a sequence of generators gives a batch with
    one row drawn from each."""
    d = 1 << num_qubits
    rngs, single = _generators(rng)
    # one draw of 2d per generator is its two draws of d, real parts first
    x = np.stack([g.standard_normal(2 * d) for g in rngs])
    v = x[:, :d] + 1j * x[:, d:]
    # np.linalg.norm's own sum for a complex vector, row by row; an einsum
    # rounds differently and would move the Haar draws in the last bit
    v /= np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))[:, None]
    return StateVector(num_qubits, v[0] if single else v)
