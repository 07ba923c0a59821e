"""Published channel catalog and the spec recognizer."""
import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcst import qstate
from bcst.bases import (
    GhzLabel,
    bell_basis,
    controller_basis,
    custom_controller_basis,
    ghz,
    ghz_basis,
)
from bcst.catalog import (
    _snap_phase,
    candidate_bases,
    catalog_entries,
    entry,
    literal_state,
    recognize,
    reconstruct,
)
from bcst.channel import (
    ChannelSpec,
    apply_layout,
    bcst_layout,
    bcst_spec,
    build_bcst_channel,
    build_bcst_channel_unchecked,
    validate_selection,
)
from bcst.protocol import verify_control
from bcst.qstate import StateVector, fidelity_up_to_phase, ket, random_state
from bcst.specdoc import serialize_spec

from helpers import FAMILIES_BY_L, random_spec, spec_key

ALL_IDS = ("zha5", "zha_ii5", "li5", "cqsdc5", "six1", "six3", "six4a",
           "six4b", "seven")


def test_catalog_has_the_nine_published_channels():
    entries = catalog_entries()
    assert tuple(e.id for e in entries) == ALL_IDS
    assert [e.qubit_count for e in entries] == [5, 5, 5, 5, 6, 6, 6, 6, 7]


def test_entry_lookup():
    assert entry("six3").id == "six3"
    with pytest.raises(KeyError):
        entry("nosuch")


def test_first_entry_fields():
    e = entry("zha5")
    assert e.spec.selection == ((1, 1), (2, 2))
    assert e.spec.controller.name == "hadamard-product"
    assert e.spec.phases == (1 + 0j, 1 + 0j)
    assert e.control_sides == "both"
    assert e.rule_violation is None


def test_second_entry_carries_a_minus_phase():
    e = entry("zha_ii5")
    assert e.spec.selection == ((1, 1), (2, 4))
    assert e.spec.controller.name == "computational"
    assert e.spec.phases == (1 + 0j, -1 + 0j)


def test_ghz_keyed_entry_fields():
    e = entry("seven")
    assert e.spec.selection == ((1, 1), (2, 4), (3, 3), (4, 2))
    assert e.spec.controller.name == "ghz"
    # keying order ghz0+, ghz2+, ghz3+, ghz1+
    assert e.spec.subset == (0, 4, 6, 2)
    assert e.spec.phases == (1 + 0j, -1 + 0j, -1 + 0j, -1 + 0j)
    keyed = e.spec.controller_states()
    assert fidelity_up_to_phase(keyed[1], ghz(GhzLabel(2, 1))) == pytest.approx(1.0)


@pytest.mark.parametrize("entry_id", ALL_IDS)
def test_reconstruction_matches_literal_expansion(entry_id):
    e = entry(entry_id)
    fid = fidelity_up_to_phase(reconstruct(e), literal_state(entry_id))
    assert fid >= 1.0 - 1e-12


def test_rule_violation_flags():
    assert entry("li5").rule_violation.rule == 1
    assert entry("cqsdc5").rule_violation.rule == 1
    assert entry("six4b").rule_violation.rule == 2
    for eid in ("zha5", "zha_ii5", "six1", "six3", "six4a", "seven"):
        assert entry(eid).rule_violation is None
        assert validate_selection(entry(eid).spec.selection, 4) is None


def test_checked_builder_refuses_flagged_entries():
    from bcst.channel import SelectionRuleError
    for eid in ("li5", "cqsdc5", "six4b"):
        with pytest.raises(SelectionRuleError):
            build_bcst_channel(entry(eid).spec)


@pytest.mark.parametrize("entry_id", ALL_IDS)
def test_control_sides_match_catalog(entry_id):
    e = entry(entry_id)
    assert verify_control(e.spec).sides == e.control_sides


def test_duplicated_cell_variant_equals_its_two_term_twin():
    # the four-term variant with repeated cells is algebraically the same
    # state as the plain two-term channel
    fid = fidelity_up_to_phase(literal_state("six4b"), literal_state("six1"))
    assert fid == pytest.approx(1.0, abs=1e-12)


# ---- recognition -----------------------------------------------------------------

@functools.cache
def all_families(l: int) -> tuple:
    """Every z/x axis-product family on l qubits, all-z and all-x first, plus
    GHZ at l = 3: the candidate list recognize() once scanned in full."""
    axes = ["z" * l, "x" * l]
    axes += [a for a in map("".join, itertools.product("zx", repeat=l)) if a not in axes]
    out = tuple(controller_basis(f"axes:{a}", l) for a in axes)
    return out + (controller_basis("ghz", 3),) if l == 3 else out


@pytest.mark.parametrize("l", sorted(FAMILIES_BY_L))
def test_helper_families_are_recognizer_candidates(l):
    for family in FAMILIES_BY_L[l]:
        for element in controller_basis(family, l).elements:
            assert family in {b.name for b in candidate_bases(element.amplitudes)}


def test_candidate_bases_cover_the_axis_products():
    # every element of every axis product with l <= 5 gets its own family
    # alone, then GHZ at l = 3; each GHZ element gets GHZ among its candidates
    for l in range(1, 6):
        for family in all_families(l):
            for element in family.elements:
                names = [b.name for b in candidate_bases(element.amplitudes)]
                if family.name == "ghz":
                    assert "ghz" in names
                else:
                    assert names == [family.name] + (["ghz"] if l == 3 else [])


def test_recognize_builds_one_family_for_a_large_controller():
    # an l = 8 controller: one 256-element family is built, not all 2^8
    spec = bcst_spec([(1, 1), (2, 3)], controller_basis("computational", 8))
    state, _ = build_bcst_channel(spec)
    tracemalloc.start()
    try:
        recovered = recognize(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec_key(recovered) == spec_key(spec)
    assert peak < 32 << 20


def test_recognize_prefers_the_decomposing_family():
    state = reconstruct(entry("zha5"))
    cands = [controller_basis("computational", 1),
             controller_basis("hadamard-product", 1)]
    spec = recognize(state, candidates=cands)
    assert spec is not None
    assert spec.controller.name == "hadamard-product"
    assert spec.selection == ((1, 1), (2, 2))


def test_recognize_rejects_random_states():
    assert recognize(random_state(5, np.random.default_rng(13))) is None


def test_recognize_rejects_wrong_layout():
    from bcst.channel import QubitLayout
    state = reconstruct(entry("zha5"))
    wrong = QubitLayout(("C1", "A1", "B1", "A2", "B2"))
    assert recognize(state, wrong) is None


@pytest.mark.parametrize("entry_id", ["zha5", "six3", "seven"])
def test_recognize_reads_every_role_order_by_name(entry_id):
    # 120, 720 and 5040 role orders: each names its qubits truthfully, so
    # each gives back the canonical register's spec
    e = entry(entry_id)
    state, layout = reconstruct(e), bcst_layout(2, e.spec.controller.l)
    canonical = recognize(state)
    assert spec_key(canonical) == spec_key(e.spec)
    want = serialize_spec(canonical)
    for roles in itertools.permutations(layout.roles):
        moved, moved_layout = apply_layout(state, layout, roles)
        got = recognize(moved, moved_layout)
        assert got is not None, roles
        assert serialize_spec(got) == want, roles


@pytest.mark.parametrize("entry_id", [i for i in ALL_IDS if i != "six4b"])
def test_recognize_round_trips_the_catalog(entry_id):
    e = entry(entry_id)
    spec = recognize(reconstruct(e), bcst_layout(2, e.spec.controller.l))
    assert spec is not None
    assert spec_key(spec) == spec_key(e.spec)


def test_recognize_reduces_the_duplicated_cell_variant():
    # six4b decomposes to the two-term spec of the state it duplicates
    spec = recognize(reconstruct(entry("six4b")), bcst_layout(2, 2))
    assert spec is not None
    assert spec_key(spec) == spec_key(entry("six1").spec)


def test_recognized_specs_rebuild_the_input():
    for eid in ALL_IDS:
        e = entry(eid)
        state = reconstruct(e)
        spec = recognize(state, bcst_layout(2, e.spec.controller.l))
        rebuilt, _ = build_bcst_channel_unchecked(spec)
        assert fidelity_up_to_phase(rebuilt, state) >= 1.0 - 1e-12


def test_recognize_round_trips_random_specs():
    rng = np.random.default_rng(60)
    for _ in range(60):
        spec = random_spec(rng)
        state, layout = build_bcst_channel(spec)
        recovered = recognize(state, layout)
        assert recovered is not None
        assert spec_key(recovered) == spec_key(spec)
        rebuilt, _ = build_bcst_channel_unchecked(recovered)
        assert fidelity_up_to_phase(rebuilt, state) >= 1.0 - 1e-12


def test_recognize_checks_projection_uniformity(split_factor_calls):
    # a state with non-uniform weights over grid products is refused by the
    # weight check, before any dense projection
    b = bell_basis().elements
    lop = np.kron(np.kron(b[0].amplitudes, b[0].amplitudes), [1, 0])
    rop = np.kron(np.kron(b[1].amplitudes, b[1].amplitudes), [0, 1])
    skewed = np.sqrt(0.9) * lop + np.sqrt(0.1) * rop
    assert recognize(StateVector(5, skewed)) is None
    assert split_factor_calls == []


def test_family_must_contain_every_row():
    # six1's rows are |00> and |11>; a basis holding |00> but not |11> comes
    # first and must be passed over for the computational basis
    state = reconstruct(entry("six1"))
    mixed = StateVector(2, np.array([0, 0, 1, 1]) / np.sqrt(2))
    partial = custom_controller_basis([ket("00"), ket("01"), mixed])
    spec = recognize(state, candidates=[partial, controller_basis("computational", 2)])
    assert spec is not None
    assert spec_key(spec) == spec_key(entry("six1").spec)


# ---- the recognizer against the candidate-search reference ------------------------

def reference_recognize(state, layout=None, candidates=None, pair_basis=None, *,
                        uniform_tol=1e-9):
    """The recognizer as it was before the cell-coefficient matrix: project the
    controller onto every element of every candidate basis, require uniform
    weights and single grid products, and keep the fewest-term decomposition."""
    pb = pair_basis if pair_basis is not None else bell_basis()
    p = pb.p
    l = state.num_qubits - 2 * p
    if l < 1:
        return None
    if layout is None:
        layout = bcst_layout(p, l)
    if len(layout.roles) != state.num_qubits:
        raise ValueError("layout does not match the register size")
    ctrl_pos = layout.controller_positions
    if len(ctrl_pos) != l:
        return None
    group1, group2 = layout.pair_groups()
    remaining = [q for q in range(state.num_qubits) if q not in ctrl_pos]
    desired = list(group1 + group2)
    perm = tuple(remaining.index(q) for q in desired)
    if candidates is None:
        candidates = all_families(l)
    grid = [
        (i, j, np.kron(pb.elements[i - 1].amplitudes, pb.elements[j - 1].amplitudes))
        for i in range(1, pb.size + 1)
        for j in range(1, pb.size + 1)
    ]
    best = None
    for cand in candidates:
        if cand.l != l:
            continue
        found = []
        probs = []
        ok = True
        for idx, a in enumerate(cand.elements):
            prob, resid = qstate.split_factor(state, ctrl_pos, a)
            if resid is None:
                continue
            resid = qstate.permute_qubits(resid, perm)
            match = None
            for i, j, v in grid:
                overlap = complex(np.vdot(v, resid.amplitudes))
                if abs(overlap) >= 1.0 - uniform_tol:
                    match = (i, j, overlap)
                    break
            if match is None:
                ok = False
                break
            found.append((idx, (match[0], match[1]), match[2]))
            probs.append(prob)
        if not ok or len(found) < 2:
            continue
        n = len(found)
        if any(abs(pr - 1.0 / n) > uniform_tol for pr in probs):
            continue
        if abs(sum(probs) - 1.0) > uniform_tol:
            continue
        spec = ChannelSpec(
            kind="bcst",
            pair_basis=pb,
            selection=tuple(cell for _, cell, _ in found),
            phases=tuple(_snap_phase(ph) for _, _, ph in found),
            controller=cand,
            subset=tuple(idx for idx, _, _ in found),
        )
        rebuilt, _ = build_bcst_channel_unchecked(spec)
        if qstate.fidelity_up_to_phase(rebuilt, state) < 1.0 - uniform_tol:
            continue
        if best is None or spec.n < best.n:
            best = spec
    return best


def assert_agrees_with_reference(state, layout, pair_basis):
    """Same serialized spec as the reference when the reference's cells are
    distinct; None when it needed repeated cells or found nothing."""
    ref = reference_recognize(state, layout, pair_basis=pair_basis)
    new = recognize(state, layout, pair_basis=pair_basis)
    if ref is not None and len(set(ref.selection)) == ref.n:
        assert new is not None
        assert serialize_spec(new) == serialize_spec(ref)
    else:
        assert new is None


@st.composite
def drawn_specs(draw):
    """Rule-valid spec on Bell pairs (l = 1..3) or GHZ pairs (l <= 3), keyed
    to any axis-product family (or GHZ at l = 3), with phases from {+-1, +-i}."""
    pb = draw(st.sampled_from([bell_basis(), ghz_basis()]))
    l = draw(st.integers(1, 3))
    n = draw(st.integers(2, 1 << l))
    cell = st.tuples(st.integers(1, pb.size), st.integers(1, pb.size))
    cells = draw(st.lists(cell, min_size=n, max_size=n, unique=True)
                 .filter(lambda c: validate_selection(c, pb.size) is None))
    controller = draw(st.sampled_from(all_families(l)))
    subset = draw(st.permutations(range(1 << l)))[:n]
    phases = draw(st.lists(st.sampled_from([1, -1, 1j, -1j]), min_size=n, max_size=n))
    return bcst_spec(cells, controller, subset, phases, pb)


@settings(max_examples=80, deadline=None)
@given(drawn_specs(), st.randoms(use_true_random=False))
def test_recognize_matches_the_reference(spec, random):
    state, layout = build_bcst_channel(spec)
    recovered = recognize(state, layout, pair_basis=spec.pair_basis)
    assert recovered is not None
    assert spec_key(recovered) == spec_key(spec)
    assert_agrees_with_reference(state, layout, spec.pair_basis)
    # layouts are read by role name, so a permuted register gives back the
    # very spec the canonical register gives
    roles = list(layout.roles)
    random.shuffle(roles)
    moved, moved_layout = apply_layout(state, layout, roles)
    moved_spec = recognize(moved, moved_layout, pair_basis=spec.pair_basis)
    assert serialize_spec(moved_spec) == serialize_spec(recovered)


def test_repeated_cell_decomposition_is_no_longer_recognized():
    # cell (1,1) keyed to |0>|+i>, cell (2,3) keyed to |1>|+i>: the rows match
    # no single family element, but the computational basis splits the state
    # into four terms on repeated cells
    b = bell_basis().elements
    plus_i = np.array([1, 1j]) / np.sqrt(2)
    amps = (np.kron(np.kron(b[0].amplitudes, b[0].amplitudes), np.kron([1, 0], plus_i))
            + np.kron(np.kron(b[1].amplitudes, b[2].amplitudes), np.kron([0, 1], plus_i)))
    state = StateVector(6, amps / np.sqrt(2))
    ref = reference_recognize(state)
    assert ref.controller.name == "computational"
    assert ref.selection == ((1, 1), (1, 1), (2, 3), (2, 3))
    assert recognize(state) is None


@pytest.fixture
def split_factor_calls(monkeypatch):
    calls = []
    original = qstate.split_factor

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(qstate, "split_factor", counted)
    return calls


@pytest.mark.parametrize("num_qubits", [5, 6, 7])
def test_haar_states_fail_before_any_split(split_factor_calls, num_qubits):
    rng = np.random.default_rng(num_qubits)
    for _ in range(5):
        assert recognize(random_state(num_qubits, rng)) is None
    assert split_factor_calls == []


def test_split_factor_runs_once_per_term(split_factor_calls):
    spec = recognize(reconstruct(entry("seven")))
    assert spec.n == 4
    assert len(split_factor_calls) == 4
