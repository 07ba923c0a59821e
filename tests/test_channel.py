"""Pair-matrix selection rules and channel assembly."""
import itertools

import numpy as np
import pytest

from bcst.bases import bell_basis, controller_basis
from bcst.census import enumerate_selections
from bcst.channel import (
    ChannelSpec,
    QubitLayout,
    SelectionRuleError,
    apply_layout,
    bcst_layout,
    bcst_spec,
    build_bcst_channel,
    build_bcst_channel_unchecked,
    canonical_layout,
    qd_spec,
    validate_selection,
)
from bcst import qstate
from bcst.qstate import partial_trace, purity, split_factor

from helpers import random_spec

BELL = bell_basis().elements
HAD1 = controller_basis("hadamard-product", 1)
COMP1 = controller_basis("computational", 1)
COMP2 = controller_basis("computational", 2)


def grid_product(i, j):
    return np.kron(BELL[i - 1].amplitudes, BELL[j - 1].amplitudes)


# ---- selection rules ---------------------------------------------------------

def test_rule1_same_row_and_same_column():
    v = validate_selection([(2, 1), (2, 3), (2, 4)], 4)
    assert v is not None and v.rule == 1
    assert "Rule 1" in str(v)
    v = validate_selection([(1, 3), (2, 3)], 4)
    assert v is not None and v.rule == 1


def test_rule2_duplicate_cell():
    v = validate_selection([(1, 1), (2, 2), (1, 1)], 4)
    assert v is not None and v.rule == 2
    assert "Rule 2" in str(v)


def test_partial_row_concentration_is_allowed():
    # two entries per row is fine; only total concentration trips Rule 1
    assert validate_selection([(1, 1), (1, 2), (3, 3), (3, 4)], 4) is None
    assert validate_selection([(1, 1), (2, 2)], 4) is None


def test_selection_malformed_inputs_raise():
    with pytest.raises(ValueError):
        validate_selection([(1, 1)], 4)
    with pytest.raises(ValueError):
        validate_selection([(0, 1), (2, 2)], 4)
    with pytest.raises(ValueError):
        validate_selection([(1, 5), (2, 2)], 4)


# ---- spec validation ----------------------------------------------------------

def test_spec_validation_catches_structural_problems():
    # a spec checks its structure when it is constructed
    bcst_spec([(1, 1), (2, 2)], HAD1)  # no error

    with pytest.raises(ValueError, match="unit modulus"):
        bcst_spec([(1, 1), (2, 2)], HAD1, phases=[1.0, 0.5])
    with pytest.raises(ValueError, match="unit modulus"):
        bcst_spec([(1, 1), (2, 2)], HAD1, phases=[1.0, float("nan")])
    with pytest.raises(ValueError, match="distinct"):
        bcst_spec([(1, 1), (2, 2)], HAD1, subset=[0, 0])
    with pytest.raises(ValueError, match="out of range"):
        bcst_spec([(1, 1), (2, 2)], HAD1, subset=[0, 2])
    with pytest.raises(ValueError, match="align"):
        bcst_spec([(1, 1), (2, 2)], HAD1, phases=[1.0])
    with pytest.raises(ValueError, match="at least 2"):
        bcst_spec([(1, 1)], HAD1)
    with pytest.raises(ValueError, match="index 5 outside"):
        bcst_spec([(1, 5), (2, 2)], HAD1)
    with pytest.raises(ValueError, match="does not hold 2 indices"):
        bcst_spec([(1, 1, 1), (2, 2, 2)], HAD1)
    with pytest.raises(ValueError, match="unknown channel kind"):
        ChannelSpec("cjbrsp", bell_basis(), ((1, 1), (2, 2)), (1, 1), HAD1, (0, 1))


def test_rule_violations_surface_as_selection_rule_error():
    spec = bcst_spec([(3, 1), (3, 2)], HAD1)
    with pytest.raises(SelectionRuleError) as err:
        build_bcst_channel(spec)
    assert err.value.violation.rule == 1
    # the spec itself is structurally sound, so the ungated builder runs
    state, _ = build_bcst_channel_unchecked(spec)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12


# ---- layouts -------------------------------------------------------------------

def test_bcst_layout_roles():
    lay = bcst_layout(2, 1)
    assert lay.roles == ("A1", "B1", "A2", "B2", "C1")
    assert lay.controller_positions == (4,)
    assert lay.pair_groups() == ((0, 1), (2, 3))
    assert canonical_layout(2, 1, 2).roles == ("A1", "B1", "C1", "C2")
    assert canonical_layout(3, 2, 1).roles == (
        "P1_1", "P1_2", "P1_3", "P2_1", "P2_2", "P2_3", "C1")


def test_pair_groups_hold_one_position_tuple_per_slot():
    assert canonical_layout(2, 1, 1).pair_groups() == ((0, 1),)
    assert canonical_layout(3, 2, 1).pair_groups() == ((0, 1, 2), (3, 4, 5))
    assert QubitLayout(("A2", "B2", "A1", "B1", "C1")).pair_groups() == ((2, 3), (0, 1))
    # the slot is read from the role name, not from the role's position
    assert QubitLayout(("B2", "C1", "A1", "B1", "A2")).pair_groups() == ((2, 3), (4, 0))
    assert QubitLayout(("P2_2", "P1_1", "C1", "P2_1", "P1_2")).pair_groups() == (
        (1, 4), (3, 0))


@pytest.mark.parametrize("l,expected", [(1, (4,)), (2, (4, 5)), (3, (4, 5, 6))])
def test_controller_positions(l, expected):
    family = "ghz" if l == 3 else "computational"
    n = 2 if l == 1 else 4
    sel = [(1, 1), (2, 2), (3, 3), (4, 4)][:n]
    spec = bcst_spec(sel, controller_basis(family, l), subset=range(n))
    _, layout = build_bcst_channel(spec)
    assert layout.controller_positions == expected


def test_apply_layout_roundtrip():
    spec = bcst_spec([(1, 1), (2, 2)], HAD1)
    state, layout = build_bcst_channel(spec)
    reordered, new_layout = apply_layout(state, layout, ("C1", "A1", "B1", "A2", "B2"))
    assert new_layout.controller_positions == (0,)
    back, _ = apply_layout(reordered, new_layout, layout.roles)
    np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-15)
    with pytest.raises(ValueError):
        apply_layout(state, layout, ("A1", "B1", "A2", "B2", "C9"))


# ---- assembly ------------------------------------------------------------------

def test_two_term_channel_amplitudes():
    # (psi+ psi+ |+> + psi- psi- |->)/sqrt(2) has four 1/2 amplitudes:
    # the |+>/|-> controller interferes the cross terms away
    spec = bcst_spec([(1, 1), (2, 2)], HAD1)
    state, _ = build_bcst_channel(spec)
    expected = np.zeros(32)
    expected[[0b00000, 0b00111, 0b11001, 0b11110]] = 0.5
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)


def test_channel_matches_direct_sum():
    rng = np.random.default_rng(21)
    for _ in range(25):
        spec = random_spec(rng)
        state, _ = build_bcst_channel(spec)
        direct = sum(
            spec.phases[m]
            * np.kron(grid_product(i, j), spec.controller_states()[m].amplitudes)
            for m, (i, j) in enumerate(spec.selection)
        ) / np.sqrt(spec.n)
        np.testing.assert_allclose(state.amplitudes, direct, atol=1e-14)


def test_every_enumerated_selection_builds_a_sound_channel():
    # bridging invariant: each generated selection yields a normalized
    # channel whose controller states key exactly their grid product
    count = 0
    for sel in enumerate_selections(4, 4, 2):
        spec = bcst_spec(sel, HAD1)
        state, layout = build_bcst_channel(spec)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12
        ctrl = layout.controller_positions
        for m, (i, j) in enumerate(spec.selection):
            prob, resid = split_factor(state, ctrl, spec.controller_states()[m])
            assert prob == pytest.approx(1.0 / spec.n, abs=1e-12)
            assert abs(abs(np.vdot(grid_product(i, j), resid.amplitudes)) - 1.0) <= 1e-12
        count += 1
    assert count == 144


def test_disclosure_decomposability_random_specs():
    rng = np.random.default_rng(77)
    for _ in range(30):
        spec = random_spec(rng)
        state, layout = build_bcst_channel(spec)
        ctrl = layout.controller_positions
        for m, (i, j) in enumerate(spec.selection):
            prob, resid = split_factor(state, ctrl, spec.controller_states()[m])
            assert prob == pytest.approx(1.0 / spec.n, abs=1e-12)
            overlap = abs(np.vdot(grid_product(i, j), resid.amplitudes))
            assert overlap == pytest.approx(1.0, abs=1e-12)


def test_pre_disclosure_pair_state_is_uniform_mixture():
    rng = np.random.default_rng(5150)
    for _ in range(20):
        spec = random_spec(rng, n=int(rng.choice([2, 4])))
        state, layout = build_bcst_channel(spec)
        g1, g2 = layout.pair_groups()
        rho = partial_trace(state, g1 + g2)
        mix = np.zeros((16, 16), dtype=complex)
        for m, (i, j) in enumerate(spec.selection):
            v = grid_product(i, j)
            mix += np.outer(v, v.conj()) / spec.n
        dist = qstate.trace_distance(rho, qstate.DensityMatrix(4, mix))
        assert dist <= 1e-12


@pytest.mark.parametrize("selection,pure_group", [
    ([(2, 1), (2, 3)], 0),   # all one row: first pair factors out
    ([(1, 3), (4, 3)], 1),   # all one column: second pair factors out
])
def test_rule1_violations_leave_a_separable_pair(selection, pure_group):
    spec = bcst_spec(selection, HAD1)
    assert validate_selection(selection, 4) is not None
    state, layout = build_bcst_channel_unchecked(spec)
    groups = layout.pair_groups()
    assert purity(partial_trace(state, groups[pure_group])) == pytest.approx(
        1.0, abs=1e-12)
    assert purity(partial_trace(state, groups[1 - pure_group])) < 1.0 - 1e-6


def test_five_qubit_two_term_family_embeds():
    # every two-cell selection whose cells differ in both coordinates is a
    # valid spec, and the builder reproduces the directly-written state
    checked = 0
    for (i, j), (k, l) in itertools.product(
        itertools.product(range(1, 5), repeat=2), repeat=2
    ):
        if i == k or j == l:
            continue
        sel = [(i, j), (k, l)]
        assert validate_selection(sel, 4) is None
        spec = bcst_spec(sel, COMP1)
        state, _ = build_bcst_channel(spec)
        direct = (np.kron(grid_product(i, j), [1, 0])
                  + np.kron(grid_product(k, l), [0, 1])) / np.sqrt(2)
        assert abs(abs(np.vdot(direct, state.amplitudes)) - 1.0) <= 1e-12
        checked += 1
    assert checked == 144


# ---- dialogue channels ----------------------------------------------------------

def test_qd_channel_two_terms():
    spec = qd_spec([1, 2], COMP1)
    assert spec.selection == ((1,), (2,))
    state, layout = build_bcst_channel(spec)
    assert layout.roles == ("A1", "B1", "C1")
    direct = (np.kron(BELL[0].amplitudes, [1, 0])
              + np.kron(BELL[1].amplitudes, [0, 1])) / np.sqrt(2)
    np.testing.assert_allclose(state.amplitudes, direct, atol=1e-15)


def test_qd_channel_four_terms_normalized():
    state, _ = build_bcst_channel(qd_spec([1, 2, 3, 4], COMP2))
    assert state.num_qubits == 4
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12


def test_qd_duplicate_index_rejected():
    # a repeated index is a rule violation, found only by the rule gate
    for spec, rule, message in (
        (qd_spec([1, 1], COMP1), 1, "Rule 1: all terms hold pair index 1"),
        (qd_spec([2, 3, 2, 4], COMP2), 2, "Rule 2: duplicate pair index 2"),
    ):
        with pytest.raises(SelectionRuleError) as err:
            build_bcst_channel(spec)
        assert err.value.violation.rule == rule
        assert str(err.value) == message
        build_bcst_channel_unchecked(spec)


def test_three_terms_cannot_key_one_controller_qubit():
    with pytest.raises(ValueError):
        qd_spec([1, 2, 3], COMP1, subset=[0, 1, 2])
