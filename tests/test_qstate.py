"""Tests for the dense state-vector core."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcst.bases import bell_basis
from bcst.qstate import (
    DensityMatrix,
    StateVector,
    apply_unitary,
    factor_out,
    fidelity_up_to_phase,
    from_amplitudes,
    ket,
    measure_in_basis,
    partial_trace,
    permute_qubits,
    principal_state,
    purity,
    random_state,
    split_factor,
    tensor,
    trace_distance,
)

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]])


def seeded(seed=0):
    return np.random.default_rng(seed)


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---- construction -----------------------------------------------------------

def test_ket_msb_first():
    # leftmost bit is the most significant index bit
    np.testing.assert_allclose(ket("01").amplitudes, [0, 1, 0, 0])
    np.testing.assert_allclose(ket("10").amplitudes, [0, 0, 1, 0])
    np.testing.assert_allclose(ket("110").amplitudes,
                               np.eye(8)[0b110])


def test_ket_rejects_garbage():
    with pytest.raises(ValueError):
        ket("")
    with pytest.raises(ValueError):
        ket("012")


def test_statevector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))


@pytest.mark.parametrize("amps", [[np.nan, 0], [1, np.nan], [np.nan + 1j, 0],
                                  [np.inf, 0]])
def test_statevector_rejects_nan_amplitudes(amps):
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, np.array(amps, dtype=complex))


def test_statevector_is_read_only():
    s = ket("0")
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_max_register_size():
    amps = np.zeros(1 << 13)
    amps[0] = 1.0
    with pytest.raises(ValueError):
        StateVector(13, amps)


def test_from_amplitudes_renormalizes_within_atol():
    s = from_amplitudes([1.0 + 1e-10, 0.0], atol=1e-9)
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        from_amplitudes([1.0, 1.0], atol=1e-9)
    with pytest.raises(ValueError):
        from_amplitudes([1.0, 0.0, 0.0])  # not a power of two


@pytest.mark.parametrize("amps", [[np.nan, 0], [1, complex(0, np.nan)], [np.inf, 0]])
def test_from_amplitudes_rejects_a_nan_norm(amps):
    # abs(nan - 1) > atol is False, so the check must be written as not <=
    with pytest.raises(ValueError, match="from 1"):
        from_amplitudes(amps, atol=1e-9)


def test_tensor_order():
    # first argument supplies the leftmost (most significant) qubits
    s = tensor(ket("1"), ket("0"))
    np.testing.assert_allclose(s.amplitudes, ket("10").amplitudes)


# ---- unitaries and permutations ---------------------------------------------

def test_apply_unitary_single_qubit():
    flipped = apply_unitary(ket("00"), X, (0,))
    np.testing.assert_allclose(flipped.amplitudes, ket("10").amplitudes)
    plus = apply_unitary(ket("0"), H, (0,))
    np.testing.assert_allclose(plus.amplitudes, [1, 1] / np.sqrt(2))


def test_apply_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        apply_unitary(ket("0"), [[1, 0], [0, 2]], (0,))
    with pytest.raises(ValueError, match="not unitary"):
        apply_unitary(ket("0"), [[np.nan, 0], [0, 1]], (0,))
    with pytest.raises(ValueError):
        apply_unitary(ket("00"), X, (0, 1))  # shape mismatch
    with pytest.raises(ValueError):
        apply_unitary(ket("00"), X, (2,))  # out of range


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 2))
def test_apply_unitary_preserves_norm(seed, n, k):
    # spec invariant: norm never drifts by more than 1e-12
    rng = seeded(seed)
    k = min(k, n)
    state = random_state(n, rng)
    targets = tuple(int(t) for t in rng.choice(n, size=k, replace=False))
    out = apply_unitary(state, random_unitary(1 << k, rng), targets)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12


def test_permute_qubits_roundtrip():
    rng = seeded(3)
    s = random_state(4, rng)
    order = (2, 0, 3, 1)
    inv = tuple(np.argsort(order))
    back = permute_qubits(permute_qubits(s, order), inv)
    assert fidelity_up_to_phase(back, s) == pytest.approx(1.0, abs=1e-15)


def test_permute_qubits_on_kets():
    s = permute_qubits(ket("100"), (1, 2, 0))
    np.testing.assert_allclose(s.amplitudes, ket("001").amplitudes)


# ---- projection and measurement ---------------------------------------------

def test_split_factor_zero_probability_returns_none():
    prob, resid = split_factor(ket("00"), (0,), ket("1"))
    assert prob == pytest.approx(0.0, abs=1e-15)
    assert resid is None


def test_factor_out_requires_full_weight():
    state = tensor(ket("0"), bell_basis().elements[2])
    resid = factor_out(state, (1, 2), bell_basis().elements[2])
    assert fidelity_up_to_phase(resid, ket("0")) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        factor_out(state, (1, 2), bell_basis().elements[0])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_measurement_probabilities_sum_to_one(seed):
    rng = seeded(seed)
    state = random_state(3, rng)
    total = 0.0
    for elem in bell_basis().elements:
        prob, _ = split_factor(state, (0, 1), elem)
        total += prob
    assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_collapse_is_consistent(seed):
    # re-measuring the same targets in the same basis repeats the outcome
    rng = seeded(seed)
    state = random_state(3, rng)
    basis = bell_basis().elements
    idx, _, collapsed = measure_in_basis(state, (1, 2), basis, rng)
    idx2, prob2, _ = measure_in_basis(collapsed, (1, 2), basis, rng)
    assert idx2 == idx
    assert prob2 == pytest.approx(1.0, abs=1e-12)


def test_measure_requires_complete_orthonormal_basis():
    rng = seeded(0)
    state = random_state(2, rng)
    with pytest.raises(ValueError):
        measure_in_basis(state, (0, 1), bell_basis().elements[:3], rng)
    skewed = [from_amplitudes([1, 0]), from_amplitudes([1, 1e-3], atol=1e-2)]
    with pytest.raises(ValueError):
        measure_in_basis(state, (0,), skewed, rng)


def test_measure_names_what_is_wrong_with_a_basis():
    rng = seeded(0)
    state = random_state(2, rng)
    with pytest.raises(ValueError, match=r"^states are not orthonormal: pair \(0, 1\) "
                       r"deviates by 1$"):
        measure_in_basis(state, (0,), [ket("0"), ket("0")], rng)
    with pytest.raises(ValueError, match=r"^need 2 states of 1 qubits, got shape \(2, 4\)$"):
        measure_in_basis(state, (0,), [ket("00"), ket("01")], rng)


def test_measure_is_seed_deterministic():
    state = random_state(3, seeded(5))
    a = measure_in_basis(state, (0, 1), bell_basis().elements, seeded(42))
    b = measure_in_basis(state, (0, 1), bell_basis().elements, seeded(42))
    assert a[0] == b[0]
    np.testing.assert_array_equal(a[2].amplitudes, b[2].amplitudes)


def _moveaxis_project(amps, n, targets):
    """Reference (target block) x (rest block) matrix via np.moveaxis."""
    psi = np.moveaxis(amps.reshape([2] * n), targets, range(len(targets)))
    return psi.reshape(1 << len(targets), -1)


def _moveaxis_unproject(mat, n, targets):
    psi = np.moveaxis(mat.reshape([2] * n), range(len(targets)), targets)
    return psi.reshape(-1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 3))
def test_kernels_match_the_moveaxis_reference_bit_for_bit(seed, n, k):
    # the one-transpose kernels only move data, so every entry is exact
    rng = seeded(seed)
    k = min(k, n)
    state = random_state(n, rng)
    t = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
    amps = state.amplitudes

    u = random_unitary(1 << k, rng)
    expected = _moveaxis_unproject(u @ _moveaxis_project(amps, n, t), n, t)
    np.testing.assert_array_equal(apply_unitary(state, u, t).amplitudes, expected)

    basis = [StateVector(k, col) for col in random_unitary(1 << k, rng).T]
    idx, prob, collapsed = measure_in_basis(state, t, basis, seeded(seed))
    b = np.stack([e.amplitudes for e in basis])
    resid = (b.conj() @ _moveaxis_project(amps, n, t))[idx]
    expected = _moveaxis_unproject(np.outer(b[idx], resid / np.sqrt(prob)), n, t)
    np.testing.assert_array_equal(collapsed.amplitudes, expected)

    other = random_state(2, rng)
    np.testing.assert_array_equal(
        tensor(state, other).amplitudes, np.kron(amps, other.amplitudes))


# ---- density matrices --------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2), st.integers(1, 2))
def test_partial_trace_of_product_state(seed, na, nb):
    # spec invariant: tracing out b from a (x) b returns a's pure density
    rng = seeded(seed)
    a, b = random_state(na, rng), random_state(nb, rng)
    rho = partial_trace(tensor(a, b), tuple(range(na)))
    pure_a = DensityMatrix(na, np.outer(a.amplitudes, a.amplitudes.conj()))
    assert trace_distance(rho, pure_a) <= 1e-12


def test_partial_trace_of_entangled_half_is_mixed():
    rho = partial_trace(bell_basis().elements[0], (0,))
    assert purity(rho) == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-12)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[0.5, 0.5], [0.0, 0.5]]))  # not hermitian
    with pytest.raises(ValueError):
        DensityMatrix(1, np.eye(2))  # trace 2


@pytest.mark.parametrize("entries, message", [
    ([[np.nan, 0], [0, 1]], "Hermitian"),
    ([[0.5, np.nan], [np.nan, 0.5]], "Hermitian"),
    ([[0.5, 0], [0, 0.5 + complex(0, np.nan)]], "Hermitian"),
])
def test_density_matrix_rejects_nan_entries(entries, message):
    with pytest.raises(ValueError, match=message):
        DensityMatrix(1, np.array(entries, dtype=complex))


def test_density_matrix_trace_check_rejects_nan(monkeypatch):
    # with the Hermitian check passed, a NaN trace must still fail
    monkeypatch.setattr(np, "trace", lambda m: complex(np.nan))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(1, np.eye(2) / 2)


def test_trace_distance_extremes():
    z = DensityMatrix(1, np.outer([1, 0], [1, 0]))
    o = DensityMatrix(1, np.outer([0, 1], [0, 1]))
    assert trace_distance(z, z) == pytest.approx(0.0, abs=1e-15)
    assert trace_distance(z, o) == pytest.approx(1.0, abs=1e-12)


def test_principal_state_recovers_pure_component():
    s = random_state(2, seeded(9))
    a = s.amplitudes
    back = principal_state(DensityMatrix(2, np.outer(a, a.conj())))
    assert fidelity_up_to_phase(back, s) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        principal_state(partial_trace(bell_basis().elements[0], (0,)))


# ---- fidelity ----------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 2 * np.pi))
def test_fidelity_symmetric_and_phase_blind(seed, theta):
    rng = seeded(seed)
    a, b = random_state(2, rng), random_state(2, rng)
    assert fidelity_up_to_phase(a, b) == pytest.approx(
        fidelity_up_to_phase(b, a), abs=1e-12)
    rotated = StateVector(2, np.exp(1j * theta) * b.amplitudes)
    assert fidelity_up_to_phase(a, rotated) == pytest.approx(
        fidelity_up_to_phase(a, b), abs=1e-12)


def test_random_state_is_normalized_and_seeded():
    s1 = random_state(3, seeded(123))
    s2 = random_state(3, seeded(123))
    np.testing.assert_array_equal(s1.amplitudes, s2.amplitudes)
    assert abs(np.linalg.norm(s1.amplitudes) - 1.0) < 1e-12
