"""Teleportation and dialogue protocols over constructed channels.

Everything here is simulated end to end on the full register: the controller
measures and discloses, senders make pair measurements, receivers apply the
published Pauli corrections, and fidelities are read off the final state.
Correction bookkeeping uses iY = [[0, 1], [-1, 0]] so every entry stays real.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from . import qstate
from .bases import BellKind, ControllerBasis, bell, bell_basis, complete_basis
from .channel import (
    ChannelSpec,
    QubitLayout,
    build_bcst_channel_unchecked,
    build_qd_channel,
    charlie_collapse_targets,
)
from .qstate import StateVector


class ProtocolError(RuntimeError):
    pass


class PauliOp(Enum):
    I = "I"
    X = "X"
    IY = "iY"
    Z = "Z"

    @property
    def matrix(self) -> np.ndarray:
        return _PAULI_MATRICES[self]

    def __str__(self) -> str:
        return self.value


_PAULI_MATRICES = {
    PauliOp.I: np.eye(2),
    PauliOp.X: np.array([[0.0, 1.0], [1.0, 0.0]]),
    PauliOp.IY: np.array([[0.0, 1.0], [-1.0, 0.0]]),
    PauliOp.Z: np.array([[1.0, 0.0], [0.0, -1.0]]),
}


class Smo(NamedTuple):
    """Sender's measurement outcome, two classical bits."""

    b1: int
    b2: int

    @property
    def bits(self) -> str:
        return f"{self.b1}{self.b2}"


# Bell outcome index -> outcome bits.  The encoding is the unique one under
# which a shared psi+ reduces to the standard teleportation corrections
# (00 -> I, 01 -> X, 10 -> Z, 11 -> iY): the first bit flags a phase flip,
# the second a bit flip.
_SMO_BY_BELL_INDEX = {0: Smo(0, 0), 1: Smo(1, 0), 2: Smo(0, 1), 3: Smo(1, 1)}
_BELL_INDEX_BY_SMO = {smo: idx for idx, smo in _SMO_BY_BELL_INDEX.items()}

# Receiver's correction, keyed by the Bell state shared with the sender and
# the sender's outcome.  Each row and column is a permutation of the Paulis.
CORRECTION_TABLE: dict[tuple[BellKind, Smo], PauliOp] = {}
for _kind, _row in {
    BellKind.PSI_PLUS: ("I", "X", "Z", "iY"),
    BellKind.PSI_MINUS: ("Z", "iY", "I", "X"),
    BellKind.PHI_PLUS: ("X", "I", "iY", "Z"),
    BellKind.PHI_MINUS: ("iY", "Z", "X", "I"),
}.items():
    for _smo, _name in zip((Smo(0, 0), Smo(0, 1), Smo(1, 0), Smo(1, 1)), _row):
        CORRECTION_TABLE[(_kind, _smo)] = PauliOp(_name)


def correction(shared: BellKind, smo: Smo | tuple[int, int]) -> PauliOp:
    """Pauli the receiver applies, given the shared pair and sender outcome."""
    return CORRECTION_TABLE[(shared, Smo(*smo))]


def bell_measure(
    state: StateVector, q_a: int, q_b: int, rng: np.random.Generator
) -> tuple[Smo, StateVector]:
    """Measure qubits (q_a, q_b) in the Bell basis; outcome bits plus collapse."""
    idx, _, collapsed = qstate.measure_in_basis(
        state, (q_a, q_b), bell_basis().elements, rng
    )
    return _SMO_BY_BELL_INDEX[idx], collapsed


def teleport(
    shared: BellKind, input_state: StateVector, rng: np.random.Generator
) -> tuple[StateVector, Smo]:
    """One-qubit teleportation over a shared Bell pair.

    Register order: input qubit, sender half, receiver half.  Returns the
    receiver's corrected qubit and the sender's outcome.
    """
    if input_state.num_qubits != 1:
        raise ValueError("teleport carries a single qubit")
    full = qstate.tensor(input_state, bell(shared))
    smo, collapsed = bell_measure(full, 0, 1, rng)
    corrected = qstate.apply_unitary(collapsed, correction(shared, smo).matrix, (2,))
    outcome_state = bell_basis().elements[_BELL_INDEX_BY_SMO[smo]]
    return qstate.factor_out(corrected, (0, 1), outcome_state), smo


def derive_correction_table(
    rng: np.random.Generator, samples: int = 20, tol: float = 1e-10
) -> dict[tuple[BellKind, Smo], PauliOp]:
    """Recover the correction table purely by simulation.

    For every shared pair and post-selected sender outcome, exactly one Pauli
    must restore all sample inputs with fidelity 1 - tol; anything else is an
    error.  Used to audit CORRECTION_TABLE rather than trust it.
    """
    inputs = [qstate.random_state(1, rng) for _ in range(samples)]
    bb = bell_basis().elements
    derived: dict[tuple[BellKind, Smo], PauliOp] = {}
    for kind in BellKind:
        for idx, smo in _SMO_BY_BELL_INDEX.items():
            survivors = []
            for op in PauliOp:
                ok = True
                for chi in inputs:
                    full = qstate.tensor(chi, bell(kind))
                    prob, collapsed = qstate.project_onto(full, (0, 1), bb[idx])
                    if collapsed is None:
                        raise ProtocolError("outcome projection vanished")
                    out = qstate.factor_out(collapsed, (0, 1), bb[idx])
                    out = qstate.apply_unitary(out, op.matrix, (0,))
                    if qstate.fidelity_up_to_phase(out, chi) < 1.0 - tol:
                        ok = False
                        break
                if ok:
                    survivors.append(op)
            if len(survivors) != 1:
                raise ProtocolError(
                    f"{len(survivors)} corrections work for {kind.symbol}/{smo.bits}"
                )
            derived[(kind, smo)] = survivors[0]
    return derived


class _Prepared(NamedTuple):
    """Per-spec work every trial shares."""

    state: StateVector
    layout: QubitLayout
    basis: tuple[StateVector, ...]  # keyed controller states first, completed


@functools.lru_cache(maxsize=1)
def _prepared(spec: ChannelSpec) -> _Prepared:
    """Assembled channel and completed controller basis of the last spec.

    A spec compares equal only to one holding the very same (immutable)
    basis states, so a hit can never serve another spec's channel.  bcst
    specs are assembled without the rule gate: rule-violating (one-sided
    control) specs still teleport fine once the disclosure happens.
    """
    if spec.kind == "bcst":
        state, layout = build_bcst_channel_unchecked(spec)
    else:
        state, layout = build_qd_channel(spec)
    subset = spec.controller_states()
    rest = tuple(
        spec.controller.elements[k]
        for k in range(len(spec.controller.elements))
        if k not in spec.subset
    )
    # subset + remaining family elements is already complete and orthonormal
    return _Prepared(state, layout, complete_basis(subset + rest))


def charlie_disclose(
    channel_state: StateVector,
    spec: ChannelSpec,
    layout: QubitLayout,
    rng: np.random.Generator,
) -> tuple[int, StateVector]:
    """Controller measures its qubits in the keyed basis and announces m.

    Returns (m, pair state with the controller factored out).  For a sound
    channel the outcome always lands inside the keyed subset; anything else
    means the state was not built from this spec.
    """
    targets = charlie_collapse_targets(spec, layout)
    basis = _prepared(spec).basis
    idx, _, collapsed = qstate.measure_in_basis(channel_state, targets, basis, rng)
    if idx >= spec.n:
        raise ProtocolError(f"collapse outcome {idx} outside the keyed subset")
    return idx, qstate.factor_out(collapsed, targets, basis[idx])


@dataclass(frozen=True)
class BcstTranscript:
    """Replayable record of one two-way teleportation run."""

    seed: int | None
    charlie_outcome: int
    smo_alice: Smo
    smo_bob: Smo
    correction_bob: PauliOp
    correction_alice: PauliOp
    fidelity_bob: float
    fidelity_alice: float

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "charlie_outcome": self.charlie_outcome,
            "smo_alice": self.smo_alice.bits,
            "smo_bob": self.smo_bob.bits,
            "correction_bob": str(self.correction_bob),
            "correction_alice": str(self.correction_alice),
            "fidelity_bob": self.fidelity_bob,
            "fidelity_alice": self.fidelity_alice,
        }


def run_bcst(
    spec: ChannelSpec,
    alice_in: StateVector,
    bob_in: StateVector,
    *,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> tuple[StateVector, StateVector, BcstTranscript]:
    """Both teleportation directions end to end on the full register.

    Alice sends alice_in to Bob over the first pair, Bob sends bob_in to
    Alice over the second, after the controller's disclosure.  Returns
    (bob_received, alice_received, transcript).
    """
    if spec.kind != "bcst":
        raise ProtocolError("two-way teleportation needs a bcst channel spec")
    if spec.pair_basis.name != "bell" or spec.pair_basis.p != 2:
        raise ProtocolError(
            "transmission is defined for Bell pairs only; this spec uses "
            f"{spec.pair_basis.name!r}"
        )
    if alice_in.num_qubits != 1 or bob_in.num_qubits != 1:
        raise ValueError("teleported payloads are single qubits")
    if rng is None:
        rng = np.random.default_rng(seed)

    channel_state, layout, _ = _prepared(spec)
    full = qstate.tensor(channel_state, alice_in, bob_in)
    # the payloads follow the channel register, so the channel layout still
    # locates the controller; afterwards the register is
    # [A1, B1, A2, B2, in_a, in_b]
    m, full = charlie_disclose(full, spec, layout, rng)
    i_m, j_m = spec.selection[m]
    shared_ab = BellKind(i_m - 1)
    shared_ba = BellKind(j_m - 1)

    smo_a, full = bell_measure(full, 4, 0, rng)
    corr_b = correction(shared_ab, smo_a)
    full = qstate.apply_unitary(full, corr_b.matrix, (1,))

    smo_b, full = bell_measure(full, 5, 3, rng)
    corr_a = correction(shared_ba, smo_b)
    full = qstate.apply_unitary(full, corr_a.matrix, (2,))

    bob_received = qstate.principal_state(qstate.partial_trace(full, (1,)))
    alice_received = qstate.principal_state(qstate.partial_trace(full, (2,)))
    transcript = BcstTranscript(
        seed=seed,
        charlie_outcome=m,
        smo_alice=smo_a,
        smo_bob=smo_b,
        correction_bob=corr_b,
        correction_alice=corr_a,
        fidelity_bob=qstate.fidelity_up_to_phase(bob_received, alice_in),
        fidelity_alice=qstate.fidelity_up_to_phase(alice_received, bob_in),
    )
    return bob_received, alice_received, transcript


@dataclass(frozen=True)
class ControlReport:
    """Whether the controller's disclosure is necessary, per direction."""

    controlled: tuple[bool, bool]
    pair_purities: tuple[float, float]
    conditionals_vary: tuple[bool, bool]
    mixture_trace_distance: float

    @property
    def sides(self) -> str:
        return {
            (True, True): "both",
            (True, False): "first-only",
            (False, True): "second-only",
            (False, False): "none",
        }[self.controlled]


def verify_control(spec: ChannelSpec, *, purity_tol: float = 1e-9) -> ControlReport:
    """Check that without disclosure each direction's pair is undetermined.

    A direction counts as controlled when its pre-disclosure reduced state is
    mixed (purity < 1 - purity_tol) and the disclosed conditional pair states
    actually differ across outcomes.  Also audits that the pre-disclosure
    joint pair state equals the uniform mixture of the term projectors.
    """
    if spec.kind != "bcst":
        raise ProtocolError("control verification applies to bcst channel specs")
    state, layout, _ = _prepared(spec)
    ctrl = charlie_collapse_targets(spec, layout)
    group1, group2 = layout.pair_groups()

    purities = (
        qstate.purity(qstate.partial_trace(state, group1)),
        qstate.purity(qstate.partial_trace(state, group2)),
    )

    # disclosed conditional pair states, one per keyed controller state
    conditionals: list[tuple[StateVector, StateVector]] = []
    p = spec.pair_basis.p
    for a_m in spec.controller_states():
        prob, resid = qstate.split_factor(state, ctrl, a_m)
        if resid is None:
            raise ProtocolError("a keyed controller state carries no weight")
        first = qstate.principal_state(qstate.partial_trace(resid, tuple(range(p))))
        second = qstate.principal_state(
            qstate.partial_trace(resid, tuple(range(p, 2 * p)))
        )
        conditionals.append((first, second))

    def varies(states: list[StateVector]) -> bool:
        return any(
            qstate.fidelity_up_to_phase(states[0], s) < 1.0 - purity_tol
            for s in states[1:]
        )

    vary = (
        varies([c[0] for c in conditionals]),
        varies([c[1] for c in conditionals]),
    )
    controlled = tuple(
        purities[d] < 1.0 - purity_tol and vary[d] for d in range(2)
    )

    # pre-disclosure pair state must be the uniform mixture over terms
    rho = qstate.partial_trace(state, group1 + group2)
    elems = spec.pair_basis.elements
    mix = np.zeros_like(rho.entries)
    for m in range(spec.n):
        i, j = spec.selection[m]
        v = np.kron(elems[i - 1].amplitudes, elems[j - 1].amplitudes)
        mix = mix + np.outer(v, v.conj()) / spec.n
    dist = qstate.trace_distance(rho, qstate.DensityMatrix(2 * p, mix))

    return ControlReport(
        controlled=controlled,  # type: ignore[arg-type]
        pair_purities=purities,
        conditionals_vary=vary,
        mixture_trace_distance=dist,
    )


@dataclass(frozen=True)
class ClosureReport:
    closed: bool
    table: dict[tuple[PauliOp, PauliOp], tuple[PauliOp, complex]]
    outside: tuple[tuple[PauliOp, PauliOp], ...]


def pauli_closure_check(ops: Sequence[PauliOp]) -> ClosureReport:
    """Multiplication table of the given Paulis, products reduced to the
    canonical {I, X, iY, Z} up to a unit phase; closed iff nothing escapes."""
    ops = tuple(ops)
    table = {}
    outside = []
    for a in ops:
        for b in ops:
            prod = a.matrix @ b.matrix
            for canon in PauliOp:
                m = canon.matrix
                # phase = ratio on the first nonzero entry of canon
                idx = np.flatnonzero(np.abs(m.ravel()) > 0.5)[0]
                phase = prod.ravel()[idx] / m.ravel()[idx]
                if np.allclose(prod, phase * m) and abs(abs(phase) - 1.0) < 1e-12:
                    table[(a, b)] = (canon, complex(phase))
                    if canon not in ops:
                        outside.append((a, b))
                    break
            else:
                raise ProtocolError(f"product {a}{b} is not proportional to a Pauli")
    return ClosureReport(closed=not outside, table=table, outside=tuple(outside))


# dialogue encoding: two bits per party, applied to the first pair qubit
QD_ENCODING: dict[tuple[int, int], PauliOp] = {
    (0, 0): PauliOp.I,
    (0, 1): PauliOp.X,
    (1, 0): PauliOp.IY,
    (1, 1): PauliOp.Z,
}


def _decode(
    initial: StateVector,
    final_idx: int,
    known: PauliOp,
    known_first: bool,
) -> tuple[int, int]:
    """Find the unknown encoding given the initial pair, the final Bell
    outcome, one's own operation, and who applied first."""
    target = bell_basis().elements[final_idx]
    for bits, op in QD_ENCODING.items():
        first, second = (known, op) if known_first else (op, known)
        candidate = qstate.apply_unitary(initial, first.matrix, (0,))
        candidate = qstate.apply_unitary(candidate, second.matrix, (0,))
        if qstate.fidelity_up_to_phase(candidate, target) > 1.0 - 1e-9:
            return bits
    raise ProtocolError("no encoding reproduces the announced outcome")


def qd_round(
    spec: ChannelSpec,
    alice_bits: tuple[int, int],
    bob_bits: tuple[int, int],
    rng: np.random.Generator,
) -> tuple[tuple[int, int], tuple[int, int], int]:
    """One controlled-dialogue round: disclosure, both encodings, decoding.

    Bob encodes first, then Alice, both on the first pair qubit; the final
    Bell measurement outcome plus knowledge of the disclosed initial state
    and one's own operation determines the other party's bits exactly.
    Returns (alice_bits as decoded by Bob, bob_bits as decoded by Alice, m).
    """
    if spec.kind != "qd":
        raise ProtocolError("dialogue needs a qd channel spec")
    if spec.pair_basis.name != "bell" or spec.pair_basis.p != 2:
        raise ProtocolError("the encoding set is defined for Bell pairs only")
    alice_bits = (int(alice_bits[0]), int(alice_bits[1]))
    bob_bits = (int(bob_bits[0]), int(bob_bits[1]))
    for b in (*alice_bits, *bob_bits):
        if b not in (0, 1):
            raise ValueError("message bits must be 0 or 1")

    state, layout, _ = _prepared(spec)
    m, pair = charlie_disclose(state, spec, layout, rng)
    initial = bell(BellKind(spec.selection[m] - 1))

    u_b = QD_ENCODING[bob_bits]
    u_a = QD_ENCODING[alice_bits]
    encoded = qstate.apply_unitary(pair, u_b.matrix, (0,))
    encoded = qstate.apply_unitary(encoded, u_a.matrix, (0,))
    final_idx, prob, _ = qstate.measure_in_basis(
        encoded, (0, 1), bell_basis().elements, rng
    )
    if prob < 1.0 - 1e-9:
        raise ProtocolError("encoded pair was not a Bell state")

    decoded_bob = _decode(initial, final_idx, known=u_a, known_first=False)
    decoded_alice = _decode(initial, final_idx, known=u_b, known_first=True)
    return decoded_alice, decoded_bob, m
