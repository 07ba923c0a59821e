"""Protocol layer: corrections, disclosure, two-way teleportation, dialogue."""
import itertools

import numpy as np
import pytest

from bcst.bases import BellKind, bell, bell_basis, controller_basis, ghz_basis, validate_orthonormal
from bcst.channel import bcst_spec, build_bcst_channel, build_bcst_channel_unchecked, qd_spec
from bcst.catalog import entry
from bcst.cli import main
from bcst.specdoc import serialize_spec
from bcst import protocol
from bcst.protocol import (
    CORRECTION_TABLE,
    PauliOp,
    ProtocolError,
    Smo,
    bell_measure,
    charlie_disclose,
    correction,
    derive_correction_table,
    pauli_closure_check,
    qd_round,
    run_bcst,
    verify_control,
)
from bcst import qstate
from bcst.qstate import (
    apply_unitary,
    fidelity_up_to_phase,
    from_amplitudes,
    ket,
    partial_trace,
    principal_state,
    random_state,
    tensor,
)

from helpers import random_spec

HAD1 = controller_basis("hadamard-product", 1)
COMP1 = controller_basis("computational", 1)

# the full published correction table, written out literally so any
# regression in CORRECTION_TABLE is caught against an independent copy
EXPECTED_TABLE = {
    (BellKind.PSI_PLUS, (0, 0)): PauliOp.I,
    (BellKind.PSI_PLUS, (0, 1)): PauliOp.X,
    (BellKind.PSI_PLUS, (1, 0)): PauliOp.Z,
    (BellKind.PSI_PLUS, (1, 1)): PauliOp.IY,
    (BellKind.PSI_MINUS, (0, 0)): PauliOp.Z,
    (BellKind.PSI_MINUS, (0, 1)): PauliOp.IY,
    (BellKind.PSI_MINUS, (1, 0)): PauliOp.I,
    (BellKind.PSI_MINUS, (1, 1)): PauliOp.X,
    (BellKind.PHI_PLUS, (0, 0)): PauliOp.X,
    (BellKind.PHI_PLUS, (0, 1)): PauliOp.I,
    (BellKind.PHI_PLUS, (1, 0)): PauliOp.IY,
    (BellKind.PHI_PLUS, (1, 1)): PauliOp.Z,
    (BellKind.PHI_MINUS, (0, 0)): PauliOp.IY,
    (BellKind.PHI_MINUS, (0, 1)): PauliOp.Z,
    (BellKind.PHI_MINUS, (1, 0)): PauliOp.X,
    (BellKind.PHI_MINUS, (1, 1)): PauliOp.I,
}


def seeded(seed=0):
    return np.random.default_rng(seed)


# ---- pauli algebra -----------------------------------------------------------

def test_pauli_matrices():
    np.testing.assert_array_equal(PauliOp.I.matrix, np.eye(2))
    np.testing.assert_array_equal(PauliOp.X.matrix, [[0, 1], [1, 0]])
    np.testing.assert_array_equal(PauliOp.IY.matrix, [[0, 1], [-1, 0]])
    np.testing.assert_array_equal(PauliOp.Z.matrix, [[1, 0], [0, -1]])
    for op in PauliOp:
        np.testing.assert_allclose(op.matrix @ op.matrix.conj().T, np.eye(2),
                                   atol=1e-15)


def test_closure_of_the_full_set():
    report = pauli_closure_check(tuple(PauliOp))
    assert report.closed
    canon, phase = report.table[(PauliOp.Z, PauliOp.X)]
    assert canon == PauliOp.IY and abs(abs(phase) - 1.0) < 1e-12


def test_closure_of_subsets():
    assert pauli_closure_check([PauliOp.I, PauliOp.X]).closed
    report = pauli_closure_check([PauliOp.X, PauliOp.Z])
    assert not report.closed
    assert (PauliOp.X, PauliOp.Z) in report.outside


# ---- correction table ---------------------------------------------------------

def test_correction_published_entries():
    assert correction(BellKind.PSI_PLUS, (0, 0)) == PauliOp.I
    assert correction(BellKind.PHI_PLUS, (0, 1)) == PauliOp.I
    assert correction(BellKind.PSI_MINUS, (1, 1)) == PauliOp.X


def test_correction_table_matches_literal_copy():
    assert len(CORRECTION_TABLE) == 16
    for (kind, smo), op in CORRECTION_TABLE.items():
        assert EXPECTED_TABLE[(kind, (smo.b1, smo.b2))] == op


def test_correction_table_is_a_latin_square():
    for kind in BellKind:
        row = {CORRECTION_TABLE[(kind, Smo(*s))] for s in itertools.product((0, 1), repeat=2)}
        assert row == set(PauliOp)
    for s in itertools.product((0, 1), repeat=2):
        col = {CORRECTION_TABLE[(kind, Smo(*s))] for kind in BellKind}
        assert col == set(PauliOp)


def test_derived_table_equals_shipped_table():
    derived = derive_correction_table(seeded(404), samples=8)
    assert derived == CORRECTION_TABLE


# ---- bell measurement and teleportation ----------------------------------------

def test_bell_measure_eigenstates():
    smo, _, _ = bell_measure(bell(BellKind.PSI_PLUS), 0, 1, seeded(1))
    assert smo == Smo(0, 0)
    smo, _, _ = bell_measure(bell(BellKind.PHI_MINUS), 0, 1, seeded(1))
    assert smo == Smo(1, 1)


def test_bell_measure_uniform_on_product_input():
    # |0> x psi+ meets every Bell projector with weight 1/4
    state = tensor(ket("0"), bell(BellKind.PSI_PLUS))
    for elem in bell_basis().elements:
        prob, _ = qstate.split_factor(state, (0, 1), elem)
        assert prob == pytest.approx(0.25, abs=1e-12)


def test_wrong_correction_breaks_teleportation():
    # post-select smo 01 on the shared-psi+ channel and apply I instead of X
    chi = from_amplitudes([1, 1j], atol=2)
    full = tensor(chi, bell(BellKind.PSI_PLUS))
    phi_plus = bell_basis().elements[2]  # the smo-01 outcome
    _, out = qstate.split_factor(full, (0, 1), phi_plus)
    assert fidelity_up_to_phase(out, chi) < 1.0 - 1e-3
    fixed = apply_unitary(out, PauliOp.X.matrix, (0,))
    assert fidelity_up_to_phase(fixed, chi) >= 1.0 - 1e-12


# ---- disclosure ------------------------------------------------------------------

def test_disclosure_on_the_two_term_channel():
    spec = entry("zha5").spec
    grid = lambda i, j: np.kron(bell_basis().elements[i - 1].amplitudes,
                                bell_basis().elements[j - 1].amplitudes)
    seen = set()
    for seed in range(12):
        m, _, pair = charlie_disclose(spec, seeded(seed))
        assert m in (0, 1)
        i, j = spec.selection[m]
        overlap = abs(np.vdot(grid(i, j), pair.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)
        seen.add(m)
    assert seen == {0, 1}


def test_disclosure_probabilities_are_uniform():
    rng = seeded(31)
    for _ in range(10):
        spec = random_spec(rng)
        state, layout = build_bcst_channel(spec)
        for a_m in spec.controller_states():
            prob, _ = qstate.split_factor(
                state, layout.controller_positions, a_m)
            assert prob == pytest.approx(1.0 / spec.n, abs=1e-12)


def test_disclosure_of_the_ghz_keyed_channel():
    # outcome m=1 must collapse onto psi- phi- (up to phase)
    spec = entry("seven").spec
    target = np.kron(bell(BellKind.PSI_MINUS).amplitudes,
                     bell(BellKind.PHI_MINUS).amplitudes)
    hits = 0
    for seed in range(24):
        m, _, pair = charlie_disclose(spec, seeded(seed))
        if m == 1:
            hits += 1
            assert abs(np.vdot(target, pair.amplitudes)) == pytest.approx(
                1.0, abs=1e-12)
    assert hits > 0


# ---- two-way teleportation --------------------------------------------------------

def test_run_bcst_basis_payloads():
    bob_out, alice_out, tr = run_bcst(entry("zha5").spec, ket("0"), ket("1"), rng=seeded(0))
    assert fidelity_up_to_phase(bob_out, ket("0")) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_up_to_phase(alice_out, ket("1")) == pytest.approx(1.0, abs=1e-12)
    assert tr.fidelity_bob >= 1.0 - 1e-10 and tr.fidelity_alice >= 1.0 - 1e-10


def test_run_bcst_random_payloads_across_seeds():
    spec = entry("six3").spec
    for seed in range(15):
        rng = seeded(seed)
        a, b = random_state(1, rng), random_state(1, rng)
        _, _, tr = run_bcst(spec, a, b, rng=rng)
        assert tr.fidelity_bob >= 1.0 - 1e-10
        assert tr.fidelity_alice >= 1.0 - 1e-10


def test_run_bcst_one_sided_channel_still_works():
    # disclosure makes the teleportation go through even when the controller
    # only gates one direction
    spec = entry("li5").spec
    rng = seeded(8)
    a, b = random_state(1, rng), random_state(1, rng)
    _, _, tr = run_bcst(spec, a, b, rng=rng)
    assert min(tr.fidelity_bob, tr.fidelity_alice) >= 1.0 - 1e-10


def test_run_bcst_transcript_is_replayable():
    spec = entry("zha_ii5").spec
    a = from_amplitudes([0.6, 0.8])
    b = from_amplitudes([1, -1j], atol=2)
    t1 = run_bcst(spec, a, b, rng=seeded(99))[2]
    t2 = run_bcst(spec, a, b, rng=seeded(99))[2]
    assert t1.to_dict() == t2.to_dict()


def test_run_bcst_rejects_wrong_specs():
    with pytest.raises(ProtocolError):
        run_bcst(qd_spec([1, 2], COMP1), ket("0"), ket("0"), rng=seeded(0))
    ghz_pairs = bcst_spec([(1, 1), (2, 2)], COMP1, pair_basis=ghz_basis())
    with pytest.raises(ProtocolError, match="Bell"):
        run_bcst(ghz_pairs, ket("0"), ket("0"), rng=seeded(0))
    with pytest.raises(ValueError):
        run_bcst(entry("zha5").spec, ket("00"), ket("0"), rng=seeded(0))


# ---- control verification -----------------------------------------------------------

def test_control_two_sided():
    report = verify_control(entry("zha5").spec)
    assert report.sides == "both"
    assert report.mixture_trace_distance <= 1e-12
    assert all(p < 0.75 for p in report.pair_purities)


def test_control_one_sided_rows():
    li = verify_control(entry("li5").spec)
    assert li.sides == "first-only"
    assert li.pair_purities[1] == pytest.approx(1.0, abs=1e-12)
    cq = verify_control(entry("cqsdc5").spec)
    assert cq.sides == "second-only"
    assert cq.pair_purities[0] == pytest.approx(1.0, abs=1e-12)


def test_one_sided_channel_factored_pair_is_psi_plus():
    spec = entry("li5").spec
    state, layout = build_bcst_channel_unchecked(spec)
    _, g2 = layout.pair_groups()
    factored = principal_state(partial_trace(state, g2))
    assert fidelity_up_to_phase(factored, bell(BellKind.PSI_PLUS)) == pytest.approx(
        1.0, abs=1e-12)


def test_forced_same_row_is_uncontrolled_on_first_direction():
    spec = bcst_spec([(2, 1), (2, 3)], HAD1)
    report = verify_control(spec)
    assert report.controlled[0] is False
    assert report.controlled[1] is True
    assert report.pair_purities[0] == pytest.approx(1.0, abs=1e-12)


def test_verify_control_rejects_qd_specs():
    with pytest.raises(ProtocolError):
        verify_control(qd_spec([1, 2], COMP1))


# ---- quantum dialogue ------------------------------------------------------------------

QD = qd_spec([1, 2], COMP1)


def test_encoding_composition_lands_on_a_bell_state():
    # X then Z on the first qubit of psi+ gives phi- (the iY image)
    state = apply_unitary(bell(BellKind.PSI_PLUS), PauliOp.X.matrix, (0,))
    state = apply_unitary(state, PauliOp.Z.matrix, (0,))
    assert fidelity_up_to_phase(state, bell(BellKind.PHI_MINUS)) == pytest.approx(
        1.0, abs=1e-12)


def test_qd_identity_round():
    decoded_alice, decoded_bob, m = qd_round(QD, (0, 0), (0, 0), seeded(3))
    assert decoded_alice == (0, 0) and decoded_bob == (0, 0)
    assert m in (0, 1)


def test_qd_all_sixteen_combinations_decode_exactly():
    for a_bits in itertools.product((0, 1), repeat=2):
        for b_bits in itertools.product((0, 1), repeat=2):
            decoded_alice, decoded_bob, _ = qd_round(QD, a_bits, b_bits, seeded(7))
            assert decoded_alice == a_bits
            assert decoded_bob == b_bits


def test_qd_round_decodes_on_a_repeated_index():
    # both terms hold psi+, so the disclosure adds nothing, yet every round
    # decodes: the rule gate, not the spec, refuses such a channel
    spec = qd_spec([1, 1], COMP1)
    for a_bits in itertools.product((0, 1), repeat=2):
        for b_bits in itertools.product((0, 1), repeat=2):
            decoded_alice, decoded_bob, _ = qd_round(spec, a_bits, b_bits, seeded(7))
            assert (decoded_alice, decoded_bob) == (a_bits, b_bits)


def test_qd_random_rounds():
    rng = seeded(2024)
    for _ in range(100):
        a_bits = tuple(int(x) for x in rng.integers(0, 2, size=2))
        b_bits = tuple(int(x) for x in rng.integers(0, 2, size=2))
        decoded_alice, decoded_bob, m = qd_round(QD, a_bits, b_bits, rng)
        assert decoded_alice == a_bits and decoded_bob == b_bits


def reference_decode(initial, final_idx, known, known_first):
    """Brute-force decode: try all four encodings on the initial pair."""
    target = bell_basis().elements[final_idx]
    for bits, op in protocol.QD_ENCODING.items():
        first, second = (known, op) if known_first else (op, known)
        candidate = qstate.apply_unitary(initial, first.matrix, (0,))
        candidate = qstate.apply_unitary(candidate, second.matrix, (0,))
        if qstate.fidelity_up_to_phase(candidate, target) > 1.0 - 1e-9:
            return bits
    raise ProtocolError("no encoding reproduces the announced outcome")


def test_decode_table_equals_the_brute_force_search():
    table = protocol._decode_table()
    expected = {
        (kind, final_idx, known, known_first):
            reference_decode(bell(kind), final_idx, known, known_first)
        for kind in BellKind
        for final_idx in range(4)
        for known in PauliOp
        for known_first in (True, False)
    }
    assert table == expected
    assert protocol._decode_table() is table  # derived once


def test_qd_encoded_family_is_orthonormal():
    # encoding any Bell state with the four operations yields a full basis
    for kind in BellKind:
        family = [apply_unitary(bell(kind), op.matrix, (0,)) for op in PauliOp]
        validate_orthonormal(family)  # four orthonormal states on 2 qubits


def test_qd_rejects_wrong_specs():
    with pytest.raises(ProtocolError):
        qd_round(entry("zha5").spec, (0, 0), (0, 0), seeded(0))
    ghz_qd = qd_spec([1, 2], COMP1, pair_basis=ghz_basis())
    with pytest.raises(ProtocolError, match="Bell"):
        qd_round(ghz_qd, (0, 0), (0, 0), seeded(0))
    with pytest.raises(ValueError):
        qd_round(QD, (0, 2), (0, 0), seeded(0))


# ---- per-spec memo ---------------------------------------------------------------------

def count_calls(monkeypatch, name):
    """Replace bcst.protocol.<name> by a wrapper that records each call."""
    calls = []
    original = getattr(protocol, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(protocol, name, wrapper)
    return calls


def test_simulate_assembles_the_channel_once(tmp_path, capsys, monkeypatch):
    builds = count_calls(monkeypatch, "build_bcst_channel_unchecked")
    spec_file = tmp_path / "seven.json"
    spec_file.write_text(serialize_spec(entry("seven").spec))
    assert main(["simulate", str(spec_file), "--trials", "12", "--seed", "3"]) == 0
    assert "trials: 12" in capsys.readouterr().out
    assert len(builds) == 1


def test_bell_basis_is_shared():
    assert bell_basis() is bell_basis()


def test_memo_serves_each_spec_its_own_channel():
    a, b = entry("six1").spec, entry("seven").spec
    payloads = (from_amplitudes([0.6, 0.8]), from_amplitudes([0.8, -0.6j]))

    def transcript(spec):
        return run_bcst(spec, *payloads, rng=seeded(5))[2].to_dict()

    fresh = {}
    for spec in (a, b):
        protocol._prepared.cache_clear()  # as in a new process
        fresh[spec] = transcript(spec)
    assert fresh[a] != fresh[b]
    assert [transcript(s) for s in (a, b, a)] == [fresh[a], fresh[b], fresh[a]]


def test_run_bcst_discloses_through_charlie_disclose(monkeypatch):
    disclosures = count_calls(monkeypatch, "charlie_disclose")
    _, _, tr = run_bcst(entry("seven").spec, ket("0"), ket("1"), rng=seeded(4))
    assert len(disclosures) == 1
    assert tr.charlie_outcome < entry("seven").spec.n


def test_dialogue_memo_builds_the_channel_once(monkeypatch):
    # every kind goes through the one builder, once per spec
    protocol._prepared.cache_clear()
    builds = count_calls(monkeypatch, "build_bcst_channel_unchecked")
    for seed in range(3):
        decoded_alice, decoded_bob, _ = qd_round(QD, (0, 1), (1, 0), seeded(seed))
        assert decoded_alice == (0, 1) and decoded_bob == (1, 0)
    assert builds == [(QD,)]
