"""Batched trial engine: run_bcst over one generator per trial, checked
against the per-trial engine it replaced, plus the CLI's chunked passes."""
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcst import cli, protocol, qstate
from bcst.bases import BellKind, bell_basis, controller_basis
from bcst.catalog import catalog_entries, entry
from bcst.cli import SIMULATE_CHUNK, main
from bcst.protocol import _SMO_BY_BELL_INDEX, ProtocolError, correction, run_bcst
from bcst.qstate import (
    StateVector,
    fidelity_up_to_phase,
    from_amplitudes,
    measure_in_basis,
    random_state,
)
from bcst.specdoc import serialize_spec

from helpers import random_spec

CATALOG_IDS = [e.id for e in catalog_entries()]
TRIAL_COUNTS = (1, 31, 32, 33, 65)


# ---- the per-trial engine, as it was before batching -----------------------

def reference_bell_measure(state, q_a, q_b, rng):
    """Measure qubits (q_a, q_b) in the Bell basis; outcome bits plus collapse."""
    idx, _, collapsed = qstate.measure_in_basis(
        state, (q_a, q_b), bell_basis().elements, rng
    )
    return _SMO_BY_BELL_INDEX[idx], collapsed


def reference_charlie_disclose(channel_state, spec, layout, rng):
    targets = layout.controller_positions
    basis = protocol._prepared(spec).basis
    idx, _, collapsed = qstate.measure_in_basis(channel_state, targets, basis, rng)
    if idx >= spec.n:
        raise ProtocolError(f"collapse outcome {idx} outside the keyed subset")
    return idx, qstate.factor_out(collapsed, targets, basis[idx])


def reference_run_bcst(spec, alice_in, bob_in, *, rng):
    """One trial end to end; the transcript comes back as a dict."""
    channel_state, layout, _ = protocol._prepared(spec)
    full = qstate.tensor(channel_state, alice_in, bob_in)
    m, full = reference_charlie_disclose(full, spec, layout, rng)
    i_m, j_m = spec.selection[m]
    shared_ab = BellKind(i_m - 1)
    shared_ba = BellKind(j_m - 1)

    smo_a, full = reference_bell_measure(full, 4, 0, rng)
    corr_b = correction(shared_ab, smo_a)
    full = qstate.apply_unitary(full, corr_b.matrix, (1,))

    smo_b, full = reference_bell_measure(full, 5, 3, rng)
    corr_a = correction(shared_ba, smo_b)
    full = qstate.apply_unitary(full, corr_a.matrix, (2,))

    bob_received = qstate.principal_state(qstate.partial_trace(full, (1,)))
    alice_received = qstate.principal_state(qstate.partial_trace(full, (2,)))
    transcript = dict(
        charlie_outcome=m,
        smo_alice=smo_a,
        smo_bob=smo_b,
        correction_bob=corr_b,
        correction_alice=corr_a,
        fidelity_bob=qstate.fidelity_up_to_phase(bob_received, alice_in),
        fidelity_alice=qstate.fidelity_up_to_phase(alice_received, bob_in),
    )
    return bob_received, alice_received, transcript


# ---- batched run_bcst against the reference ---------------------------------

DISCRETE = ("charlie_outcome", "smo_alice", "smo_bob",
            "correction_bob", "correction_alice")
FIXED = (from_amplitudes([0.6, 0.8j]), from_amplitudes([0.8, -0.6]))


def assert_matches_reference(spec, trials, fixed, seed):
    children = np.random.SeedSequence(seed).spawn(trials)
    rngs = [np.random.default_rng(c) for c in children]
    if fixed:
        alice_in, bob_in = FIXED
    else:
        alice_in, bob_in = random_state(1, rngs), random_state(1, rngs)
    bob_rx, alice_rx, transcripts = run_bcst(spec, alice_in, bob_in, rng=rngs)
    assert len(transcripts) == bob_rx.batch == alice_rx.batch == trials

    for t, child in enumerate(children):
        rng = np.random.default_rng(child)
        a, b = FIXED if fixed else (random_state(1, rng), random_state(1, rng))
        ref_bob, ref_alice, ref = reference_run_bcst(spec, a, b, rng=rng)
        got = transcripts[t]
        assert {k: getattr(got, k) for k in DISCRETE} == {k: ref[k] for k in DISCRETE}
        assert abs(got.fidelity_bob - ref["fidelity_bob"]) <= 1e-14
        assert abs(got.fidelity_alice - ref["fidelity_alice"]) <= 1e-14
        assert fidelity_up_to_phase(
            StateVector(1, bob_rx.amplitudes[t]), ref_bob) >= 1.0 - 1e-12
        assert fidelity_up_to_phase(
            StateVector(1, alice_rx.amplitudes[t]), ref_alice) >= 1.0 - 1e-12

    # one generator instead of a sequence: the batch of one, unwrapped
    rng = np.random.default_rng(children[0])
    a, b = FIXED if fixed else (random_state(1, rng), random_state(1, rng))
    bob_one, _, one = run_bcst(spec, a, b, rng=rng)
    assert bob_one.batch is None
    assert one == transcripts[0]


@pytest.mark.parametrize("entry_id", CATALOG_IDS)
def test_catalog_batches_match_the_per_trial_reference(entry_id):
    spec = entry(entry_id).spec
    for k, trials in enumerate(TRIAL_COUNTS):
        for fixed in (False, True):
            assert_matches_reference(spec, trials, fixed, seed=100 * k + fixed)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(TRIAL_COUNTS), st.booleans())
def test_random_spec_batches_match_the_per_trial_reference(seed, trials, fixed):
    spec = random_spec(np.random.default_rng(seed))
    assert_matches_reference(spec, trials, fixed, seed)


def test_batch_needs_one_generator_per_trial():
    rngs = [np.random.default_rng(k) for k in range(3)]
    batch = random_state(1, rngs)
    with pytest.raises(ValueError, match="2 generators for a batch of 3"):
        run_bcst(entry("zha5").spec, batch, batch, rng=rngs[:2])
    with pytest.raises(ValueError, match="one generator per trial"):
        measure_in_basis(batch, (0,), controller_basis("computational", 1).elements,
                         rngs[0])


@pytest.mark.parametrize("entry_id", CATALOG_IDS)
def test_transcripts_keep_the_born_probabilities(entry_id):
    spec = entry(entry_id).spec
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(3).spawn(40)]
    _, _, transcripts = run_bcst(spec, random_state(1, rngs), random_state(1, rngs),
                                 rng=rngs)
    for tr in transcripts:
        assert tr.prob_charlie == pytest.approx(1.0 / spec.n, abs=1e-12)
        assert tr.prob_alice == pytest.approx(0.25, abs=1e-12)
        assert tr.prob_bob == pytest.approx(0.25, abs=1e-12)
        record = tr.to_dict()
        assert (record["prob_charlie"], record["prob_alice"], record["prob_bob"]) == (
            tr.prob_charlie, tr.prob_alice, tr.prob_bob)


# ---- seeded draws, as they were drawn before batching -------------------------

def reference_random_state(num_qubits, rng):
    """One Haar row: two draws of d and np.linalg.norm."""
    d = 1 << num_qubits
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("num_qubits", range(1, 7))
def test_random_state_draws_the_reference_rows_bit_for_bit(num_qubits):
    children = np.random.SeedSequence(num_qubits).spawn(2000)
    batch = random_state(num_qubits, [np.random.default_rng(c) for c in children])
    want = np.stack([reference_random_state(num_qubits, np.random.default_rng(c))
                     for c in children])
    assert np.array_equal(batch.amplitudes, want)
    for c, row in zip(children, want):
        assert np.array_equal(random_state(num_qubits, np.random.default_rng(c)).amplitudes,
                              row)


def test_pcg64_generator_draws_the_default_rng_stream():
    for c in np.random.SeedSequence(3).spawn(500):
        built, default = np.random.Generator(np.random.PCG64(c)), np.random.default_rng(c)
        assert built.bit_generator.state == default.bit_generator.state
        assert np.array_equal(built.standard_normal(8), default.standard_normal(8))
        assert built.random() == default.random()


# ---- measurement bases ------------------------------------------------------

def test_measure_in_basis_checks_each_basis_once():
    qstate._basis_matrix.cache_clear()
    state = random_state(4, np.random.default_rng(1))
    bell = bell_basis().elements
    ctrl = controller_basis("hadamard-product", 2).elements
    for seed in range(5):
        rng = np.random.default_rng(seed)
        measure_in_basis(state, (0, 1), bell, rng)
        measure_in_basis(state, (3, 2), list(ctrl), rng)
    assert qstate._basis_matrix.cache_info().misses == 2

    skewed = [StateVector(1, np.array([1.0, 0.0])),
              StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))]
    for _ in range(2):  # a rejection is never remembered as a pass
        with pytest.raises(ValueError, match="not orthonormal"):
            measure_in_basis(state, (0,), skewed, np.random.default_rng(0))


def test_simulate_checks_its_two_bases_once(tmp_path, capsys):
    spec_file = tmp_path / "seven.json"
    spec_file.write_text(serialize_spec(entry("seven").spec))
    protocol._prepared.cache_clear()
    qstate._basis_matrix.cache_clear()
    assert main(["simulate", str(spec_file), "--trials", "100"]) == 0
    capsys.readouterr()
    assert qstate._basis_matrix.cache_info().misses == 2  # Bell and controller


# ---- the CLI's chunked passes ------------------------------------------------

TRIAL_LINE = re.compile(r"trial (\d+): (.*) f_ab=(\S+) f_ba=(\S+)$")


def trial_lines(capsys, spec_file, *extra):
    assert main(["simulate", str(spec_file), "--seed", "11", *extra]) == 0
    return [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("trial ")]


def test_chunk_size_is_the_documented_constant():
    assert SIMULATE_CHUNK == 256


def test_simulate_lines_do_not_move_at_the_pass_boundary(tmp_path, capsys):
    spec_file = tmp_path / "seven.json"
    spec_file.write_text(serialize_spec(entry("seven").spec))
    runs = [trial_lines(capsys, spec_file, "--trials", str(t))
            for t in (255, 256, 257, 600)]
    assert [len(r) for r in runs] == [255, 256, 257, 600]
    for shorter, longer in zip(runs, runs[1:]):
        assert longer[:len(shorter)] == shorter


def test_simulate_trials_do_not_depend_on_the_run_length(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "SIMULATE_CHUNK", 32)
    spec_file = tmp_path / "seven.json"
    spec_file.write_text(serialize_spec(entry("seven").spec))
    short = trial_lines(capsys, spec_file, "--trials", "25")
    longer = trial_lines(capsys, spec_file, "--trials", "40")
    longest = trial_lines(capsys, spec_file, "--trials", "70")
    assert len(short) == 25 and len(longer) == 40 and len(longest) == 70
    assert longer[:25] == short
    assert longest[:40] == longer  # rows 32..39 sit in the second pass


@pytest.mark.parametrize("entry_id", ["six4b", "seven"])
def test_simulate_lines_match_the_reference_across_chunks(
        tmp_path, capsys, monkeypatch, entry_id):
    monkeypatch.setattr(cli, "SIMULATE_CHUNK", 32)  # rows 32..64 in later passes
    spec = entry(entry_id).spec
    spec_file = tmp_path / f"{entry_id}.json"
    spec_file.write_text(serialize_spec(spec))
    lines = trial_lines(capsys, spec_file, "--trials", "65")
    children = np.random.SeedSequence(11).spawn(65)
    for t, (line, child) in enumerate(zip(lines, children)):
        rng = np.random.default_rng(child)
        a, b = random_state(1, rng), random_state(1, rng)
        _, _, ref = reference_run_bcst(spec, a, b, rng=rng)
        num, fields, f_ab, f_ba = TRIAL_LINE.match(line).groups()
        assert int(num) == t
        assert fields == (
            f"m={ref['charlie_outcome']} smo_a={ref['smo_alice'].bits} "
            f"smo_b={ref['smo_bob'].bits} corr_b={ref['correction_bob']} "
            f"corr_a={ref['correction_alice']}")
        assert abs(float(f_ab) - ref["fidelity_bob"]) <= 1e-14
        assert abs(float(f_ba) - ref["fidelity_alice"]) <= 1e-14


@pytest.mark.parametrize("payloads, message", [
    ((), "fidelity floor violated"),  # Haar payloads arrive rotated
    (("--alice-state", "1,0,0,0", "--bob-state", "1,0,0,0"),
     "orthogonal to its payload"),  # X or iY turns |0> into |1>
])
def test_wrong_corrections_fail_the_run_with_one_line(
        tmp_path, capsys, monkeypatch, payloads, message):
    monkeypatch.setattr(protocol, "CORRECTION_TABLE",
                        dict.fromkeys(protocol.CORRECTION_TABLE, protocol.PauliOp.I))
    spec_file = tmp_path / "seven.json"
    spec_file.write_text(serialize_spec(entry("seven").spec))
    code = main(["simulate", str(spec_file), "--trials", "40", *payloads])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and message in err


def test_simulate_memory_stays_chunked(tmp_path, capsys):
    # 1000 seven-channel trials in one array peak at ~10 MB of numpy
    # allocations; in passes of 256 they peak at ~2.7 MB
    spec_file = tmp_path / "seven.json"
    spec_file.write_text(serialize_spec(entry("seven").spec))
    assert main(["simulate", str(spec_file), "--trials", "3"]) == 0  # warm caches
    tracemalloc.start()
    try:
        code = main(["simulate", str(spec_file), "--trials", "1000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 6e6
