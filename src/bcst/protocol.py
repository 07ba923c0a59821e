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
from .bases import BellKind, bell, bell_basis, complete_basis
from .channel import ChannelSpec, QubitLayout, build_bcst_channel_unchecked
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
_PAULIS = tuple(PauliOp)
_PAULI_STACK = np.stack([op.matrix for op in _PAULIS])


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


def bell_measure(state: StateVector, q_a: int, q_b: int, rng):
    """Measure qubits (q_a, q_b) in the Bell basis.

    Returns (outcome bits, Born probability, collapsed state); with one
    generator per trial, the bits are a tuple and the probabilities an array
    over the trials (see `qstate.measure_in_basis`).
    """
    idx, prob, collapsed = qstate.measure_in_basis(
        state, (q_a, q_b), bell_basis().elements, rng
    )
    if np.ndim(idx) == 0:
        return _SMO_BY_BELL_INDEX[idx], prob, collapsed
    return tuple(_SMO_BY_BELL_INDEX[k] for k in idx.tolist()), prob, collapsed


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
                    _, out = qstate.split_factor(full, (0, 1), bb[idx])
                    if out is None:
                        raise ProtocolError("outcome projection vanished")
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
    basis states, so a hit can never serve another spec's channel.  Specs
    are assembled without the rule gate: rule-violating (one-sided control)
    specs still teleport fine once the disclosure happens.
    """
    state, layout = build_bcst_channel_unchecked(spec)
    subset = spec.controller_states()
    rest = tuple(
        spec.controller.elements[k]
        for k in range(len(spec.controller.elements))
        if k not in spec.subset
    )
    # subset + remaining family elements is already complete and orthonormal
    return _Prepared(state, layout, complete_basis(subset + rest))


def charlie_disclose(spec: ChannelSpec, rng):
    """Controller measures its qubits of spec's channel in the keyed basis
    and announces m.

    Returns (m, its Born probability, pair state with the controller
    factored out); with one generator per trial, m and the probability are
    arrays over the trials.  The keyed subset holds all of the channel's
    weight, so an outcome outside it means the sampling went wrong.
    """
    state, layout, basis = _prepared(spec)
    targets = layout.controller_positions
    idx, prob, collapsed = qstate.measure_in_basis(state, targets, basis, rng)
    if np.max(idx) >= spec.n:
        raise ProtocolError(
            f"collapse outcome {np.max(idx)} outside the keyed subset"
        )
    element = qstate.basis_element(basis, idx)
    return idx, prob, qstate.factor_out(collapsed, targets, element)


@dataclass(frozen=True)
class BcstTranscript:
    """Replayable record of one two-way teleportation run, with the Born
    probability of each of its three measurement outcomes."""

    charlie_outcome: int
    smo_alice: Smo
    smo_bob: Smo
    correction_bob: PauliOp
    correction_alice: PauliOp
    fidelity_bob: float
    fidelity_alice: float
    prob_charlie: float
    prob_alice: float
    prob_bob: float

    def to_dict(self) -> dict:
        return {
            "charlie_outcome": self.charlie_outcome,
            "smo_alice": self.smo_alice.bits,
            "smo_bob": self.smo_bob.bits,
            "correction_bob": str(self.correction_bob),
            "correction_alice": str(self.correction_alice),
            "fidelity_bob": self.fidelity_bob,
            "fidelity_alice": self.fidelity_alice,
            "prob_charlie": self.prob_charlie,
            "prob_alice": self.prob_alice,
            "prob_bob": self.prob_bob,
        }


def require_bell_pairs(spec: ChannelSpec, kind: str) -> None:
    """Raise ProtocolError unless spec is a `kind` spec over Bell pairs, the
    only pairs the correction and dialogue tables are defined for."""
    if spec.kind != kind:
        raise ProtocolError(f"this protocol needs a {kind} spec, not {spec.kind}")
    if spec.pair_basis.name != "bell" or spec.pair_basis.p != 2:
        raise ProtocolError(
            "transmission is defined for Bell pairs only; this spec uses "
            f"{spec.pair_basis.name!r}"
        )


def run_bcst(
    spec: ChannelSpec,
    alice_in: StateVector,
    bob_in: StateVector,
    *,
    rng,
):
    """Both teleportation directions end to end on the full register.

    Alice sends alice_in to Bob over the first pair, Bob sends bob_in to
    Alice over the second, after the controller's disclosure.  Returns
    (bob_received, alice_received, transcript).

    Given a sequence of generators instead of one, it runs one trial per
    generator in a single array pass: each payload is a single state or a
    batch with a row per trial, the received states are batches and the
    transcript is a tuple with one entry per trial.  Trial t draws only from
    its own generator, in the order disclosure, Alice's outcome, Bob's, so
    its record does not depend on the other trials.  One trial is the batch
    of one.
    """
    require_bell_pairs(spec, "bcst")
    if alice_in.num_qubits != 1 or bob_in.num_qubits != 1:
        raise ValueError("teleported payloads are single qubits")
    single = isinstance(rng, np.random.Generator)
    rngs = (rng,) if single else rng
    for payload in (alice_in, bob_in):
        if payload.batch not in (None, len(rngs)):
            raise ValueError(
                f"{len(rngs)} generators for a batch of {payload.batch} payloads"
            )

    # the disclosure acts on the controller alone, so it runs on the channel
    # (one projection shared by every trial) before the payloads join;
    # afterwards the register is [A1, B1, A2, B2, in_a, in_b]
    m, p_m, pairs = charlie_disclose(spec, rngs)
    full = qstate.tensor(pairs, alice_in, bob_in)
    # the shared Bell kinds (1-based in the selection) of each trial's cell
    kinds = np.array(spec.selection)[m] - 1
    # CORRECTION_TABLE as positions in _PAULIS, [shared kind, Bell outcome];
    # read at every pass, so the corrections follow the table as it stands
    table = np.array([[_PAULIS.index(correction(kind, _SMO_BY_BELL_INDEX[k]))
                       for k in range(4)] for kind in BellKind])

    smo_a, p_a, full = bell_measure(full, 4, 0, rngs)
    k_a = [_BELL_INDEX_BY_SMO[s] for s in smo_a]
    c_b = table[kinds[:, 0], k_a]
    full = qstate.apply_unitary(full, _PAULI_STACK[c_b], (1,))

    smo_b, p_b, full = bell_measure(full, 5, 3, rngs)
    k_b = [_BELL_INDEX_BY_SMO[s] for s in smo_b]
    c_a = table[kinds[:, 1], k_b]
    full = qstate.apply_unitary(full, _PAULI_STACK[c_a], (2,))

    # read-out: strip both measured pairs, leaving [B1, A2], the product of
    # Bob's and Alice's received qubits; projecting one of them onto the
    # payload sent to it leaves the other, with weight = fidelity squared
    bb = bell_basis().elements
    measured = qstate.tensor(qstate.basis_element(bb, k_a),
                             qstate.basis_element(bb, k_b))
    received = qstate.factor_out(full, (4, 0, 5, 3), measured)
    w_ab, alice_received = qstate.split_factor(received, (0,), alice_in)
    w_ba, bob_received = qstate.split_factor(received, (1,), bob_in)
    if alice_received is None or bob_received is None:
        raise ProtocolError("a received qubit is orthogonal to its payload")
    f_ab = np.minimum(1.0, np.sqrt(w_ab)).tolist()
    f_ba = np.minimum(1.0, np.sqrt(w_ba)).tolist()

    # one record per trial, its fields in BcstTranscript's order
    transcripts = tuple(BcstTranscript(*fields) for fields in zip(
        m.tolist(), smo_a, smo_b,
        [_PAULIS[c] for c in c_b.tolist()], [_PAULIS[c] for c in c_a.tolist()],
        f_ab, f_ba, p_m.tolist(), p_a.tolist(), p_b.tolist(),
    ))
    if single:
        return (StateVector(1, bob_received.amplitudes[0]),
                StateVector(1, alice_received.amplitudes[0]), transcripts[0])
    return bob_received, alice_received, transcripts


@dataclass(frozen=True)
class ControlReport:
    """Whether the controller's disclosure is necessary, per direction."""

    controlled: tuple[bool, bool]
    pair_purities: tuple[float, float]
    mixture_trace_distance: float

    @property
    def sides(self) -> str:
        return {
            (True, True): "both",
            (True, False): "first-only",
            (False, True): "second-only",
            (False, False): "none",
        }[self.controlled]


def verify_control(spec: ChannelSpec) -> ControlReport:
    """Check that without disclosure each direction's pair is undetermined.

    A direction counts as controlled when its pre-disclosure reduced state is
    mixed (purity < 1 - 1e-9) and the disclosed conditional pair states
    actually differ across outcomes.  Also audits that the pre-disclosure
    joint pair state equals the uniform mixture of the term projectors.
    """
    if spec.kind != "bcst":
        raise ProtocolError("control verification applies to bcst channel specs")
    state, layout, _ = _prepared(spec)
    ctrl = layout.controller_positions
    groups = layout.pair_groups()
    purities = tuple(qstate.purity(qstate.partial_trace(state, g)) for g in groups)

    # disclosed conditional pair states, one per keyed controller state and
    # slot; the controller comes last, so the pairs keep their positions
    conditionals = []
    for a_m in spec.controller_states():
        _, resid = qstate.split_factor(state, ctrl, a_m)
        if resid is None:
            raise ProtocolError("a keyed controller state carries no weight")
        conditionals.append([qstate.principal_state(qstate.partial_trace(resid, g))
                             for g in groups])

    vary = tuple(
        any(qstate.fidelity_up_to_phase(states[0], s) < 1.0 - 1e-9
            for s in states[1:])
        for states in zip(*conditionals)
    )
    controlled = tuple(pur < 1.0 - 1e-9 and v for pur, v in zip(purities, vary))

    # pre-disclosure pair state must be the uniform mixture over terms
    pairs = sum(groups, ())
    rho = qstate.partial_trace(state, pairs)
    mix = sum(np.outer(v, v.conj()) / spec.n for v in spec.pair_vectors())
    dist = qstate.trace_distance(rho, qstate.DensityMatrix(len(pairs), mix))

    return ControlReport(
        controlled=controlled,  # type: ignore[arg-type]
        pair_purities=purities,
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


@functools.cache
def _decode_table() -> dict[tuple[BellKind, int, PauliOp, bool], tuple[int, int]]:
    """The other party's bits, keyed by (initial Bell pair, final Bell
    outcome index, one's own operation, whether it was applied first).

    Derived once from how each Pauli on the first qubit permutes the Bell
    basis (up to phase), found by simulation; a decode is a lookup.
    """
    bb = bell_basis().elements
    moved = {}
    for k, element in enumerate(bb):
        for op in PauliOp:
            out = qstate.apply_unitary(element, op.matrix, (0,))
            moved[k, op] = next(
                i for i, e in enumerate(bb)
                if qstate.fidelity_up_to_phase(out, e) > 1.0 - 1e-9
            )
    table = {}
    for kind in BellKind:
        for bits, op in QD_ENCODING.items():
            for known in PauliOp:
                table[kind, moved[moved[kind, known], op], known, True] = bits
                table[kind, moved[moved[kind, op], known], known, False] = bits
    return table


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
    require_bell_pairs(spec, "qd")
    alice_bits = (int(alice_bits[0]), int(alice_bits[1]))
    bob_bits = (int(bob_bits[0]), int(bob_bits[1]))
    for b in (*alice_bits, *bob_bits):
        if b not in (0, 1):
            raise ValueError("message bits must be 0 or 1")

    m, _, pair = charlie_disclose(spec, rng)
    (i,) = spec.selection[m]
    initial = BellKind(i - 1)

    u_b = QD_ENCODING[bob_bits]
    u_a = QD_ENCODING[alice_bits]
    encoded = qstate.apply_unitary(pair, u_b.matrix, (0,))
    encoded = qstate.apply_unitary(encoded, u_a.matrix, (0,))
    # a Pauli maps a Bell pair onto another, so this outcome is certain
    final_idx, _, _ = qstate.measure_in_basis(
        encoded, (0, 1), bell_basis().elements, rng
    )

    decoded_bob = _decode_table()[initial, final_idx, u_a, False]
    decoded_alice = _decode_table()[initial, final_idx, u_b, True]
    return decoded_alice, decoded_bob, m
