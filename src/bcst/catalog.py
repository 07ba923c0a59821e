"""Catalog of published controlled-teleportation channels, plus a recognizer.

Each entry carries the machine-readable spec that reproduces the channel as
printed in its source proposal.  Three entries are printed with structural
defects and are flagged rather than repaired: the Li and CQSDC five-qubit
channels hold one pair fixed (a Rule 1 violation, which is exactly why their
control is one-sided), and the second six-qubit four-term variant repeats
cells (Rule 2).  literal_state() expands every printed expression directly
from hand-written vectors, independent of the channel builder, so the two
paths can be compared.

recognize() runs the construction backwards.  In the cell-coefficient matrix
C (the amplitudes expanded over the pair-grid cells: one row per cell, one
column per controller amplitude) the nonzero rows are the selected cells and
each row is its term's phase times its controller state, so the terms are
read off C, and so is the controller family: the axis product whose z qubits
are the first row's certain bits, or GHZ at l = 3, must contain every row.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from . import qstate
from .bases import (
    ControllerBasis,
    EntangledBasis,
    bell_basis,
    controller_basis,
)
from .channel import (
    ChannelSpec,
    QubitLayout,
    RuleViolation,
    apply_layout,
    bcst_layout,
    bcst_spec,
    build_bcst_channel_unchecked,
    validate_selection,
)
from .qstate import StateVector


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    source_ref: str
    spec: ChannelSpec
    qubit_count: int
    control_sides: str  # "both" | "first-only" | "second-only"
    rule_violation: RuleViolation | None


def _entry(id, source_ref, selection, family, l, subset, phases, sides) -> CatalogEntry:
    spec = bcst_spec(
        selection,
        controller_basis(family, l),
        subset=subset,
        phases=phases,
    )
    return CatalogEntry(
        id=id,
        source_ref=source_ref,
        spec=spec,
        qubit_count=4 + l,
        control_sides=sides,
        rule_violation=validate_selection(selection, 4),
    )


@lru_cache(maxsize=1)
def catalog_entries() -> tuple[CatalogEntry, ...]:
    return (
        # (|psi+ psi+>|+> + |psi- psi->|->)/sqrt2
        _entry("zha5", "Zha et al., five-qubit two-way proposal",
               [(1, 1), (2, 2)], "hadamard-product", 1, (0, 1), (1, 1), "both"),
        # (|psi+ psi+>|0> - |psi- phi->|1>)/sqrt2
        _entry("zha_ii5", "Zha et al., second five-qubit proposal",
               [(1, 1), (2, 4)], "computational", 1, (0, 1), (1, -1), "both"),
        # (|psi+>|+> + |psi->|->)/sqrt2 on the first pair, |psi+> fixed second
        _entry("li5", "Li et al., five-qubit proposal (one-sided control)",
               [(1, 1), (2, 1)], "hadamard-product", 1, (0, 1), (1, 1), "first-only"),
        # |phi+> fixed first pair, (|psi+>|0> + |psi->|1>)/sqrt2 on the second
        _entry("cqsdc5", "controlled secure direct communication five-qubit channel",
               [(3, 1), (3, 2)], "computational", 1, (0, 1), (1, 1), "second-only"),
        # (|psi+ phi+>|00> + |phi+ psi+>|11>)/sqrt2
        _entry("six1", "six-qubit two-term channel",
               [(1, 3), (3, 1)], "computational", 2, (0, 3), (1, 1), "both"),
        # (|psi+ psi+>|0+> + |psi+ psi->|0-> + |phi+ phi+>|1+> - |phi+ phi->|1->)/2
        _entry("six3", "six-qubit four-term channel",
               [(1, 1), (1, 2), (3, 3), (3, 4)], "axes:zx", 2, (0, 1, 2, 3),
               (1, 1, 1, -1), "both"),
        # (|psi+ psi+>|++> + |psi+ phi->|+-> + |phi- psi+>|-+> + |phi- phi->|-->)/2
        _entry("six4a", "six-qubit four-term channel, product-of-|+-> keying",
               [(1, 1), (1, 4), (4, 1), (4, 4)], "hadamard-product", 2, (0, 1, 2, 3),
               (1, 1, 1, 1), "both"),
        # (|psi+ phi+>|0+> + |psi+ phi+>|0-> + |phi+ psi+>|1+> - |phi+ psi+>|1->)/2
        # printed with repeated cells; algebraically equal to six1
        _entry("six4b", "six-qubit four-term variant as printed (repeats cells)",
               [(1, 3), (1, 3), (3, 1), (3, 1)], "axes:zx", 2, (0, 1, 2, 3),
               (1, 1, 1, -1), "both"),
        # (|psi+ psi+>G0+ - |psi- phi->G2+ - |phi+ phi+>G3+ - |phi- psi->G1+)/2
        _entry("seven", "seven-qubit four-term channel, GHZ-keyed",
               [(1, 1), (2, 4), (3, 3), (4, 2)], "ghz", 3, (0, 4, 6, 2),
               (1, -1, -1, -1), "both"),
    )


class UnknownEntryError(KeyError, ValueError):
    """No catalog entry has this id: a failed lookup and a bad input."""

    __str__ = ValueError.__str__  # the message, not KeyError's repr of it


def entry(entry_id: str) -> CatalogEntry:
    for e in catalog_entries():
        if e.id == entry_id:
            return e
    raise UnknownEntryError(f"no catalog entry {qstate.clip(entry_id)}")


def reconstruct(e: CatalogEntry) -> StateVector:
    """Channel state from the entry's spec, as printed: the entry already
    records its rule verdict, so the rule gate is not consulted again."""
    state, _ = build_bcst_channel_unchecked(e.spec)
    return state


# ---------------------------------------------------------------------------
# literal expansions, hand-written from the printed channel expressions

_S2 = np.sqrt(2.0)
_PSI_P = np.array([1, 0, 0, 1]) / _S2
_PSI_M = np.array([1, 0, 0, -1]) / _S2
_PHI_P = np.array([0, 1, 1, 0]) / _S2
_PHI_M = np.array([0, 1, -1, 0]) / _S2
_K0 = np.array([1.0, 0.0])
_K1 = np.array([0.0, 1.0])
_PLUS = np.array([1, 1]) / _S2
_MINUS = np.array([1, -1]) / _S2
_G0P = np.array([1, 0, 0, 0, 0, 0, 0, 1]) / _S2  # |000>+|111>
_G1P = np.array([0, 1, 0, 0, 0, 0, 1, 0]) / _S2  # |001>+|110>
_G2P = np.array([0, 0, 1, 0, 0, 1, 0, 0]) / _S2  # |010>+|101>
_G3P = np.array([0, 0, 0, 1, 1, 0, 0, 0]) / _S2  # |011>+|100>

_LITERAL_TERMS: dict[str, list[tuple[float, tuple[np.ndarray, ...]]]] = {
    "zha5": [(1, (_PSI_P, _PSI_P, _PLUS)), (1, (_PSI_M, _PSI_M, _MINUS))],
    "zha_ii5": [(1, (_PSI_P, _PSI_P, _K0)), (-1, (_PSI_M, _PHI_M, _K1))],
    "li5": [(1, (_PSI_P, _PSI_P, _PLUS)), (1, (_PSI_M, _PSI_P, _MINUS))],
    "cqsdc5": [(1, (_PHI_P, _PSI_P, _K0)), (1, (_PHI_P, _PSI_M, _K1))],
    "six1": [(1, (_PSI_P, _PHI_P, _K0, _K0)), (1, (_PHI_P, _PSI_P, _K1, _K1))],
    "six3": [
        (1, (_PSI_P, _PSI_P, _K0, _PLUS)),
        (1, (_PSI_P, _PSI_M, _K0, _MINUS)),
        (1, (_PHI_P, _PHI_P, _K1, _PLUS)),
        (-1, (_PHI_P, _PHI_M, _K1, _MINUS)),
    ],
    "six4a": [
        (1, (_PSI_P, _PSI_P, _PLUS, _PLUS)),
        (1, (_PSI_P, _PHI_M, _PLUS, _MINUS)),
        (1, (_PHI_M, _PSI_P, _MINUS, _PLUS)),
        (1, (_PHI_M, _PHI_M, _MINUS, _MINUS)),
    ],
    "six4b": [
        (1, (_PSI_P, _PHI_P, _K0, _PLUS)),
        (1, (_PSI_P, _PHI_P, _K0, _MINUS)),
        (1, (_PHI_P, _PSI_P, _K1, _PLUS)),
        (-1, (_PHI_P, _PSI_P, _K1, _MINUS)),
    ],
    "seven": [
        (1, (_PSI_P, _PSI_P, _G0P)),
        (-1, (_PSI_M, _PHI_M, _G2P)),
        (-1, (_PHI_P, _PHI_P, _G3P)),
        (-1, (_PHI_M, _PSI_M, _G1P)),
    ],
}


def literal_state(entry_id: str) -> StateVector:
    """Printed channel expression expanded term by term, builder-free."""
    terms = _LITERAL_TERMS[entry_id]
    acc = None
    for sign, factors in terms:
        v = factors[0]
        for f in factors[1:]:
            v = np.kron(v, f)
        acc = sign * v if acc is None else acc + sign * v
    acc = acc / np.sqrt(len(terms))
    return StateVector(int(np.log2(acc.size)), acc)


# ---------------------------------------------------------------------------
# recognition: decompose an amplitude vector back into a channel spec

def candidate_bases(key: np.ndarray) -> Iterator[ControllerBasis]:
    """Default controller-basis candidates for a normalized l-qubit key, each
    built when the scan reaches it: the one z/x axis product that can hold
    the key (qubit q is z exactly when P(bit q = 1) is 0 or 1, not 1/2), then
    the GHZ basis when l = 3."""
    l = key.size.bit_length() - 1
    bits = (np.arange(key.size)[:, None] >> np.arange(l - 1, -1, -1)) & 1
    axes = "".join("z" if abs(prob - 0.5) > 0.25 else "x" for prob in np.abs(key) ** 2 @ bits)
    families = [f"axes:{axes}"] + (["ghz"] if l == 3 else [])
    return (controller_basis(name, l) for name in families)


def recognize(
    state: StateVector,
    layout: QubitLayout | None = None,
    candidates: Sequence[ControllerBasis] | None = None,
    pair_basis: EntangledBasis | None = None,
) -> ChannelSpec | None:
    """Recover the channel spec that produced `state`, or None.

    `layout` names each qubit's role (default: the canonical roles).  The
    register is first permuted into canonical order by role name, so a
    layout that is not a permutation of the canonical roles raises
    ValueError.

    Undoes the construction sum_m phase_m/sqrt(n) |e_i e_j>|a_m>: with the
    amplitudes in [first pair, second pair, controller] order as a (pair
    index x controller index) matrix M and B the pair-basis elements, the
    cell-coefficient matrix C = (B (x) B)^dagger M has row (i, j) equal to
    phase_m a_m / sqrt(n) for the term on cell (i, j) and zero elsewhere.
    B (x) B is a basis, so the nonzero rows are the only decomposition into
    distinct cells.  There must be at least 2, each of weight 1/n; the family
    is the first candidate (by default candidate_bases of the first row)
    whose elements contain every normalized row up to a phase, and the terms
    are ordered by controller index.  The chosen terms are then checked
    densely: split_factor per term (weight 1/n, residual a single grid
    product whose overlap gives the phase), and the rebuilt channel must
    reproduce the state.  A state that decomposes only with repeated cells
    (rows that no single family element matches) is not recognized.
    """
    tol = 1e-9  # how far a weight or an overlap may sit from its value
    pb = pair_basis if pair_basis is not None else bell_basis()
    p = pb.p
    l = state.num_qubits - 2 * p
    if l < 1:
        return None
    canonical = bcst_layout(p, l)
    state, _ = apply_layout(state, layout or canonical, canonical.roles)
    ctrl_pos = canonical.controller_positions

    b = np.stack([e.amplitudes for e in pb.elements])
    coeffs = np.kron(b, b).conj() @ state.amplitudes.reshape(-1, 1 << l)
    weights = np.einsum("ij,ij->i", coeffs.conj(), coeffs).real
    rows = np.flatnonzero(weights > tol)
    n = rows.size
    if n < 2 or not np.all(np.abs(weights[rows] - 1.0 / n) <= tol):
        return None
    keys = coeffs[rows] / np.sqrt(weights[rows])[:, None]

    for cand in candidate_bases(keys[0]) if candidates is None else candidates:
        if cand.l != l:
            continue
        elems = np.stack([a.amplitudes for a in cand.elements])
        overlaps = np.abs(elems.conj() @ keys.T)
        if np.all(overlaps.max(axis=0) >= 1.0 - tol):
            break
    else:
        return None
    index = overlaps.argmax(axis=0)

    terms = []
    for k in np.argsort(index, kind="stable"):
        prob, resid = qstate.split_factor(state, ctrl_pos, cand.elements[index[k]])
        if resid is None or not abs(prob - 1.0 / n) <= tol:
            return None
        i, j = divmod(int(rows[k]), pb.size)
        overlap = complex(np.vdot(np.kron(b[i], b[j]), resid.amplitudes))
        if not abs(overlap) >= 1.0 - tol:
            return None
        terms.append(((i + 1, j + 1), _snap_phase(overlap), int(index[k])))
    selection, phases, subset = zip(*terms)
    spec = ChannelSpec(kind="bcst", pair_basis=pb, selection=selection,
                       phases=phases, controller=cand, subset=subset)
    rebuilt, _ = build_bcst_channel_unchecked(spec)
    if not qstate.fidelity_up_to_phase(rebuilt, state) >= 1.0 - tol:
        return None
    return spec


def _snap_phase(ph: complex) -> complex:
    """Clean up unit phases that are numerically +-1 or +-i."""
    for exact in (1, -1, 1j, -1j):
        if abs(ph - exact) < 1e-9:
            return complex(exact)
    return ph / abs(ph)
