import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcst.bases import (
    GHZ_BASIS_LABELS,
    BellKind,
    ControllerBasis,
    GhzLabel,
    bell,
    bell_basis,
    complete_basis,
    controller_basis,
    custom_controller_basis,
    ghz,
    ghz_basis,
    product_axis_basis,
    validate_orthonormal,
)
from bcst.qstate import (
    StateVector,
    fidelity_up_to_phase,
    from_amplitudes,
    inner,
    ket,
    partial_trace,
    purity,
    tensor,
)

S2 = np.sqrt(2)


def test_bell_amplitudes():
    np.testing.assert_allclose(bell(BellKind.PSI_PLUS).amplitudes, [1, 0, 0, 1] / S2)
    np.testing.assert_allclose(bell(BellKind.PSI_MINUS).amplitudes, [1, 0, 0, -1] / S2)
    np.testing.assert_allclose(bell(BellKind.PHI_PLUS).amplitudes, [0, 1, 1, 0] / S2)
    np.testing.assert_allclose(bell(BellKind.PHI_MINUS).amplitudes, [0, 1, -1, 0] / S2)


def test_bell_index_order_and_symbols():
    # fixed assignment: psi+/psi-/phi+/phi- at indices 0..3
    assert [k.symbol for k in BellKind] == ["psi+", "psi-", "phi+", "phi-"]
    assert BellKind.PSI_PLUS == 0 and BellKind.PHI_MINUS == 3


def test_ghz_general_pattern():
    # (|b> + sign*|complement>)/sqrt(2) for any 3-bit b
    s = ghz(GhzLabel(2, -1))
    expected = (ket("010").amplitudes - ket("101").amplitudes) / S2
    np.testing.assert_allclose(s.amplitudes, expected)
    assert GhzLabel(2, -1).symbol == "ghz2-"


@settings(max_examples=32, deadline=None)
@given(st.integers(0, 7), st.sampled_from([1, -1]))
def test_ghz_alias_is_global_phase(x, sign):
    # spec invariant: x and 7-x label the same ray
    a, b = ghz(GhzLabel(x, sign)), ghz(GhzLabel(7 - x, sign))
    assert fidelity_up_to_phase(a, b) == pytest.approx(1.0, abs=1e-12)
    assert GhzLabel(x, sign).canonical().x <= 3


def test_ghz_canonical_set_is_orthogonal():
    for i, la in enumerate(GHZ_BASIS_LABELS):
        for j, lb in enumerate(GHZ_BASIS_LABELS):
            expected = 1.0 if i == j else 0.0
            assert abs(inner(ghz(la), ghz(lb))) == pytest.approx(expected, abs=1e-12)


def test_ghz_basis_follows_the_label_order():
    for label, element in zip(GHZ_BASIS_LABELS, ghz_basis().elements, strict=True):
        np.testing.assert_array_equal(element.amplitudes, ghz(label).amplitudes)


def test_ghz_label_validation():
    with pytest.raises(ValueError):
        GhzLabel(8, 1)
    with pytest.raises(ValueError):
        GhzLabel(0, 0)


@pytest.mark.parametrize("basis", [bell_basis(), ghz_basis()])
def test_builtin_bases_orthonormal_and_complete(basis):
    validate_orthonormal(basis.elements)
    assert basis.size == 1 << basis.p


@pytest.mark.parametrize("basis", [bell_basis(), ghz_basis()])
def test_builtin_bases_maximally_entangled(basis):
    # every single-qubit marginal of every element is maximally mixed
    for elem in basis.elements:
        for q in range(basis.p):
            assert purity(partial_trace(elem, (q,))) == pytest.approx(0.5, abs=1e-12)


def test_product_axis_basis_counter_ordering():
    # bit 0 of the counter picks |0> (z) or |+> (x); leftmost qubit is the
    # most significant counter bit
    zx = product_axis_basis("zx")
    plus = np.array([1, 1]) / S2
    minus = np.array([1, -1]) / S2
    np.testing.assert_allclose(zx.elements[0].amplitudes, np.kron([1, 0], plus))
    np.testing.assert_allclose(zx.elements[1].amplitudes, np.kron([1, 0], minus))
    np.testing.assert_allclose(zx.elements[2].amplitudes, np.kron([0, 1], plus))
    assert zx.name == "axes:zx"


def per_element_axis_basis(axes: str) -> list:
    """The axis-product elements one tensor product of single-qubit states at
    a time, as product_axis_basis built them before it batched the counter."""
    l = len(axes)
    elements = []
    for idx in range(1 << l):
        parts = []
        for pos, axis in enumerate(axes):
            bit = (idx >> (l - 1 - pos)) & 1
            if axis == "z":
                parts.append(ket("1" if bit else "0"))
            else:
                parts.append(StateVector(1, np.array([1, -1 if bit else 1]) * (1 / S2)))
        elements.append(tensor(*parts))
    return elements


def test_product_axis_basis_is_bit_identical_to_the_per_element_build():
    # same products in the same order, so every amplitude is the same double
    for l in range(1, 7):
        for axes in map("".join, itertools.product("zx", repeat=l)):
            got = product_axis_basis(axes).elements
            want = per_element_axis_basis(axes)
            assert [e.amplitudes.tobytes() for e in got] == [
                e.amplitudes.tobytes() for e in want], axes


def test_product_axis_basis_degenerate_names():
    assert product_axis_basis("zz").name == "computational"
    assert product_axis_basis("xx").name == "hadamard-product"
    np.testing.assert_allclose(product_axis_basis("z").elements[1].amplitudes, [0, 1])
    with pytest.raises(ValueError):
        product_axis_basis("zy")


def test_controller_basis_dispatch():
    assert controller_basis("computational", 2).l == 2
    assert len(controller_basis("ghz", 3).elements) == 8
    assert controller_basis("axes:xz", 2).name == "axes:xz"
    with pytest.raises(ValueError):
        controller_basis("ghz", 2)
    with pytest.raises(ValueError):
        controller_basis("axes:zx", 3)
    with pytest.raises(ValueError):
        controller_basis("bogus", 1)


def test_validate_orthonormal_flags_failures():
    # a duplicated state: the message names the worst pair and its deviation
    with pytest.raises(ValueError, match=r"^states are not orthonormal: "
                       r"pair \(0, 1\) deviates by 1$"):
        validate_orthonormal([ket("0"), ket("0")])
    with pytest.raises(ValueError, match=r"pair \(0, 1\) deviates by 0\.707$"):
        validate_orthonormal([ket("0"), from_amplitudes([1, 1], atol=1)])
    validate_orthonormal([ket("00"), ket("01")])  # a partial set raises nothing


def test_controller_basis_needs_a_complete_basis_of_l_qubits():
    for l, elements in [(2, (ket("00"), ket("01"))), (1, (ket("00"), ket("01")))]:
        with pytest.raises(ValueError, match=f"^2 elements do not form a complete basis "
                           f"on {l} qubits$"):
            ControllerBasis("two", l, elements)


def test_complete_basis_keeps_given_states_first():
    given_states = [bell(BellKind.PSI_PLUS), bell(BellKind.PHI_MINUS)]
    full = complete_basis(given_states)
    assert len(full) == 4
    assert full[0] is given_states[0] and full[1] is given_states[1]
    validate_orthonormal(full)
    with pytest.raises(ValueError):
        complete_basis([ket("0"), from_amplitudes([1, 1], atol=2) ])


def test_custom_controller_basis():
    cb = custom_controller_basis([ket("00"), ket("11")])
    assert cb.name == "custom" and len(cb.elements) == 4
    with pytest.raises(ValueError):
        custom_controller_basis([ket("0"), ket("0")])
