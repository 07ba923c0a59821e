"""Channel construction from ordered selections over the pair-product grid.

A channel for two-way controlled teleportation is built from an ordered
selection of n cells of the grid whose (i, j) cell holds the product
|e_i>|e_j> of entangled-basis elements (1-based indices), one unit phase per
term, and n orthonormal controller states:

    sum_m  phase_m / sqrt(n) * |e_{i_m}> |e_{j_m}> |a_m>

Two structural rules make the controller's consent necessary in both
teleportation directions: the selection must not sit entirely in one grid row
or entirely in one column (a constant factor would decouple that direction),
and no cell may repeat (collapse outcomes must pin down the term uniquely).
The dialogue variant uses single indices i_m instead of cells, all distinct.

Register layout for Bell pairs is [A1, B1, A2, B2, C1..Cl]: the first pair's
qubits go to Alice and Bob for the A->B direction, the second pair's for
B->A, and the controller keeps the rest.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import qstate
from .bases import ControllerBasis, EntangledBasis, bell_basis
from .qstate import StateVector

PairCell = tuple[int, int]


@dataclass(frozen=True)
class RuleViolation:
    rule: int
    message: str
    offenders: tuple[PairCell, ...]

    def __str__(self) -> str:
        return f"Rule {self.rule}: {self.message}"


class SelectionRuleError(ValueError):
    def __init__(self, violation: RuleViolation):
        super().__init__(str(violation))
        self.violation = violation


def validate_selection(
    selection: Sequence[PairCell], grid_size: int
) -> RuleViolation | None:
    """First violated structural rule, or None.

    Rule 1 trips only when ALL cells share a row or ALL share a column;
    partial concentration is allowed.  Rule 2 forbids duplicate cells.
    Malformed input (n < 2, out-of-range indices) raises instead.
    """
    cells = [(int(i), int(j)) for i, j in selection]
    if len(cells) < 2:
        raise ValueError("a selection needs at least 2 cells")
    if len(cells) > grid_size * grid_size:
        raise ValueError(
            f"{len(cells)} cells cannot be selected from a {grid_size}x{grid_size} grid"
        )
    for i, j in cells:
        if not (1 <= i <= grid_size and 1 <= j <= grid_size):
            raise ValueError(f"cell ({i}, {j}) outside the {grid_size}x{grid_size} grid")
    rows = {i for i, _ in cells}
    cols = {j for _, j in cells}
    if len(rows) == 1:
        return RuleViolation(1, f"all cells sit in row {next(iter(rows))}", tuple(cells))
    if len(cols) == 1:
        return RuleViolation(1, f"all cells sit in column {next(iter(cols))}", tuple(cells))
    seen: dict[PairCell, int] = {}
    for m, cell in enumerate(cells):
        if cell in seen:
            return RuleViolation(2, f"duplicate cell {cell}", (cell,))
        seen[cell] = m
    return None


@dataclass(frozen=True)
class QubitLayout:
    """Role name per register position; controller roles start with 'C'."""

    roles: tuple[str, ...]

    @property
    def controller_positions(self) -> tuple[int, ...]:
        return tuple(k for k, r in enumerate(self.roles) if r.startswith("C"))

    def pair_groups(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Positions of the first and second pair's qubits, in role order."""
        non_ctrl = [r for r in self.roles if not r.startswith("C")]
        p = len(non_ctrl) // 2
        return (
            tuple(self.roles.index(r) for r in non_ctrl[:p]),
            tuple(self.roles.index(r) for r in non_ctrl[p:]),
        )


def _pair_roles(p: int, which: int) -> list[str]:
    if p == 2:
        return [f"A{which}", f"B{which}"]
    return [f"P{which}_{k}" for k in range(1, p + 1)]


def bcst_layout(p: int, l: int) -> QubitLayout:
    roles = _pair_roles(p, 1) + _pair_roles(p, 2) + [f"C{k}" for k in range(1, l + 1)]
    return QubitLayout(tuple(roles))


def qd_layout(p: int, l: int) -> QubitLayout:
    roles = _pair_roles(p, 1) + [f"C{k}" for k in range(1, l + 1)]
    return QubitLayout(tuple(roles))


@dataclass(frozen=True)
class ChannelSpec:
    """Everything needed to assemble a channel state.

    kind is "bcst" (selection = cells (i, j)) or "qd" (selection = single
    indices i).  controller is a complete basis; subset picks the ordered
    controller states a_1..a_n out of it.
    """

    kind: str
    pair_basis: EntangledBasis
    selection: tuple
    phases: tuple[complex, ...]
    controller: ControllerBasis
    subset: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.selection)

    def controller_states(self) -> tuple[StateVector, ...]:
        return tuple(self.controller.elements[k] for k in self.subset)

    def validate(self, *, require_rules: bool = True) -> None:
        if self.kind not in ("bcst", "qd"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        n = self.n
        if n < 2:
            raise ValueError("a channel needs at least 2 terms")
        if len(self.phases) != n or len(self.subset) != n:
            raise ValueError("selection, phases and controller subset must align")
        if len(set(self.subset)) != n:
            raise ValueError("controller subset indices must be distinct")
        for k in self.subset:
            if not 0 <= k < len(self.controller.elements):
                raise ValueError(f"controller index {k} out of range")
        if (1 << self.controller.l) < n:
            raise ValueError(
                f"{self.controller.l} controller qubits cannot key {n} terms"
            )
        for ph in self.phases:
            if not abs(abs(complex(ph)) - 1.0) <= qstate.TOLERANCE:
                raise ValueError(f"phase {ph} is not unit modulus")
        size = self.pair_basis.size
        if self.kind == "bcst":
            for i, j in self.selection:
                if not (1 <= int(i) <= size and 1 <= int(j) <= size):
                    raise ValueError(f"cell ({i}, {j}) outside the {size}x{size} grid")
            if require_rules:
                violation = validate_selection(self.selection, size)
                if violation is not None:
                    raise SelectionRuleError(violation)
        else:
            idx = [int(i) for i in self.selection]
            for i in idx:
                if not 1 <= i <= size:
                    raise ValueError(f"index {i} outside the {size}-element basis")
            if len(set(idx)) != len(idx):
                raise ValueError(
                    "duplicate pair index breaks the outcome-to-term bijection"
                )


def bcst_spec(
    selection: Iterable[PairCell],
    controller: ControllerBasis,
    subset: Sequence[int] | None = None,
    phases: Sequence[complex] | None = None,
    pair_basis: EntangledBasis | None = None,
) -> ChannelSpec:
    sel = tuple((int(i), int(j)) for i, j in selection)
    return ChannelSpec(
        kind="bcst",
        pair_basis=pair_basis if pair_basis is not None else bell_basis(),
        selection=sel,
        phases=_default_phases(phases, len(sel)),
        controller=controller,
        subset=tuple(subset) if subset is not None else tuple(range(len(sel))),
    )


def qd_spec(
    indices: Iterable[int],
    controller: ControllerBasis,
    subset: Sequence[int] | None = None,
    phases: Sequence[complex] | None = None,
    pair_basis: EntangledBasis | None = None,
) -> ChannelSpec:
    sel = tuple(int(i) for i in indices)
    return ChannelSpec(
        kind="qd",
        pair_basis=pair_basis if pair_basis is not None else bell_basis(),
        selection=sel,
        phases=_default_phases(phases, len(sel)),
        controller=controller,
        subset=tuple(subset) if subset is not None else tuple(range(len(sel))),
    )


def _default_phases(phases, n: int) -> tuple[complex, ...]:
    if phases is None:
        return (1.0 + 0.0j,) * n
    return tuple(complex(p) for p in phases)


def _assemble(spec: ChannelSpec) -> tuple[StateVector, QubitLayout]:
    n = spec.n
    weight = 1.0 / np.sqrt(n)
    ctrl = spec.controller_states()
    elems = spec.pair_basis.elements
    p, l = spec.pair_basis.p, spec.controller.l
    if spec.kind == "bcst":
        terms = (
            np.kron(np.kron(elems[i - 1].amplitudes, elems[j - 1].amplitudes),
                    ctrl[m].amplitudes)
            for m, (i, j) in enumerate(spec.selection)
        )
        layout = bcst_layout(p, l)
    else:
        terms = (
            np.kron(elems[i - 1].amplitudes, ctrl[m].amplitudes)
            for m, i in enumerate(spec.selection)
        )
        layout = qd_layout(p, l)
    amps = sum(spec.phases[m] * weight * t for m, t in enumerate(terms))
    return StateVector(len(layout.roles), amps), layout


def build_bcst_channel(spec: ChannelSpec) -> tuple[StateVector, QubitLayout]:
    """Assemble the teleportation channel; structural rules are enforced."""
    if spec.kind != "bcst":
        raise ValueError(f"not a bcst spec (kind={spec.kind!r})")
    spec.validate()
    return _assemble(spec)


def build_bcst_channel_unchecked(spec: ChannelSpec) -> tuple[StateVector, QubitLayout]:
    """Assembly without the structural-rule gate.

    Needed to study what goes wrong with rule-violating selections (and to
    reproduce published channels that have that defect).  Not reachable from
    the command-line interface.
    """
    if spec.kind != "bcst":
        raise ValueError(f"not a bcst spec (kind={spec.kind!r})")
    spec.validate(require_rules=False)
    return _assemble(spec)


def build_qd_channel(spec: ChannelSpec) -> tuple[StateVector, QubitLayout]:
    """Assemble the dialogue channel (one shared pair plus controller)."""
    if spec.kind != "qd":
        raise ValueError(f"not a qd spec (kind={spec.kind!r})")
    spec.validate()
    return _assemble(spec)


def charlie_collapse_targets(spec: ChannelSpec, layout: QubitLayout) -> tuple[int, ...]:
    """Register positions the controller must measure to disclose a term."""
    pos = layout.controller_positions
    if len(pos) != spec.controller.l:
        raise ValueError("layout does not match the spec's controller size")
    return pos


def apply_layout(
    state: StateVector, layout: QubitLayout, new_roles: Sequence[str]
) -> tuple[StateVector, QubitLayout]:
    """Permute the register into a new role order (same role names)."""
    new_roles = tuple(new_roles)
    if sorted(new_roles) != sorted(layout.roles):
        raise ValueError(f"{new_roles} is not a permutation of {layout.roles}")
    order = tuple(layout.roles.index(r) for r in new_roles)
    return qstate.permute_qubits(state, order), QubitLayout(new_roles)
