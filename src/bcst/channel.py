"""Channel construction from ordered selections of pair-basis entries.

Every channel is built by one recipe: term m holds one entangled-basis
element per slot (its selection entry lists their 1-based indices), a unit
phase, and controller state a_m out of n orthonormal ones:

    sum_m  phase_m / sqrt(n) * |e_{m,1}> ... |e_{m,d}> |a_m>

The kind fixes the slot count d (SLOTS): two-way teleportation ("bcst") has
a slot per direction, so its entries are cells (i, j) of the pair-product
grid; controlled dialogue ("qd") shares one pair, so its entries are (i,).

Two structural rules make the controller's consent necessary in every
direction: no slot may hold one index in all entries (for cells: one grid row
or column, whose constant factor would decouple that direction), and no entry
may repeat (collapse outcomes must pin down the term uniquely).

The register holds each slot's pair in turn, then the controller: for Bell
pairs [A1, B1, A2, B2, C1..Cl], the first pair going to Alice and Bob for the
A->B direction, the second for B->A.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import qstate
from .bases import ControllerBasis, EntangledBasis, bell_basis
from .qstate import StateVector

# pair-basis indices per selection entry, by channel kind
SLOTS = {"bcst": 2, "qd": 1}

Entry = tuple[int, ...]
PairCell = tuple[int, int]


@dataclass(frozen=True)
class RuleViolation:
    rule: int
    message: str

    def __str__(self) -> str:
        return f"Rule {self.rule}: {self.message}"


class SelectionRuleError(ValueError):
    def __init__(self, violation: RuleViolation):
        super().__init__(str(violation))
        self.violation = violation


class SpecFieldError(ValueError):
    """A spec field that breaks the spec's structure, named by `field`."""

    def __init__(self, message: str, field: str):
        super().__init__(message)
        self.field = field


def _check_entries(entries: Sequence[Entry], slots: int, size: int) -> None:
    """Raise unless every entry holds `slots` indices in 1..size."""
    for k, entry in enumerate(entries):
        if len(entry) != slots:
            raise SpecFieldError(f"selection entry {entry} does not hold {slots} "
                                 "indices", f"selection[{k}]")
        for i in entry:
            if not 1 <= i <= size:
                raise SpecFieldError(f"index {i} outside the {size}-element basis",
                                     f"selection[{k}]")


# how rule messages word a selection, by slot count: a phrase per slot for
# Rule 1 (the grid row and column of a cell), and one entry for Rule 2
_RULE_WORDS = {2: (("cells sit in row", "cells sit in column"), "cell {0}"),
               1: (("terms hold pair index",), "pair index {0[0]}")}


def validate_selection(
    selection: Sequence[Sequence[int]], grid_size: int
) -> RuleViolation | None:
    """First violated structural rule, or None.

    Rule 1 trips only when ALL entries share one slot's index (for cells: a
    row or a column); partial concentration is allowed.  Rule 2 forbids
    duplicate entries.  Malformed input (n < 2, entries of unequal length,
    out-of-range indices) raises instead.
    """
    entries = [tuple(int(i) for i in entry) for entry in selection]
    if len(entries) < 2:
        raise ValueError("a selection needs at least 2 cells")
    slots = len(entries[0])
    _check_entries(entries, slots, grid_size)
    slot_words, entry_words = _RULE_WORDS[slots]
    for s, words in enumerate(slot_words):
        values = {entry[s] for entry in entries}
        if len(values) == 1:
            return RuleViolation(1, f"all {words} {values.pop()}")
    for k, entry in enumerate(entries):
        if entry in entries[:k]:
            return RuleViolation(2, "duplicate " + entry_words.format(entry))
    return None


@dataclass(frozen=True)
class QubitLayout:
    """Role name per register position; controller roles start with 'C'."""

    roles: tuple[str, ...]

    @property
    def controller_positions(self) -> tuple[int, ...]:
        return tuple(k for k, r in enumerate(self.roles) if r.startswith("C"))

    def pair_groups(self) -> tuple[tuple[int, ...], ...]:
        """Positions of each slot's pair qubits, slot 1 first, each pair in
        role order (A before B, P<s>_1 before P<s>_2).  A role's slot is the
        number in its name: A2, B2 and P2_1 belong to slot 2."""
        slots: dict[int, list[tuple[int, str, int]]] = {}
        for k, role in enumerate(self.roles):
            if not role.startswith("C"):
                slot, _, member = role[1:].partition("_")
                slots.setdefault(int(slot), []).append((int(member or 0), role, k))
        return tuple(tuple(k for *_, k in sorted(slots[s])) for s in sorted(slots))

    def reordered(self, roles: Sequence[str]) -> QubitLayout:
        """The layout of these roles, which must be a permutation of ours."""
        roles = tuple(roles)
        if sorted(roles) != sorted(self.roles):
            raise ValueError(f"{qstate.clip(','.join(roles), quote=False)} is not a "
                             f"permutation of {','.join(self.roles)}")
        return QubitLayout(roles)


def canonical_layout(p: int, slots: int, l: int) -> QubitLayout:
    """Roles of the p-qubit pair of each slot in turn, then C1..Cl; a Bell
    pair's are A<slot>, B<slot>, any other pair's P<slot>_1..P<slot>_p."""
    roles = [
        role
        for s in range(1, slots + 1)
        for role in ((f"A{s}", f"B{s}") if p == 2
                     else [f"P{s}_{k}" for k in range(1, p + 1)])
    ]
    return QubitLayout(tuple(roles + [f"C{k}" for k in range(1, l + 1)]))


def bcst_layout(p: int, l: int) -> QubitLayout:
    return canonical_layout(p, SLOTS["bcst"], l)


@dataclass(frozen=True)
class ChannelSpec:
    """Everything needed to assemble a channel state.

    kind ("bcst" or "qd") fixes the slots per selection entry (SLOTS).
    controller is a complete basis; subset picks the ordered controller
    states a_1..a_n out of it.  Construction checks the structure (sizes,
    ranges, unit phases, distinct keys); the rules are checked only by
    build_bcst_channel.
    """

    kind: str
    pair_basis: EntangledBasis
    selection: tuple[Entry, ...]
    phases: tuple[complex, ...]
    controller: ControllerBasis
    subset: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in SLOTS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        n = self.n
        if n < 2:
            raise ValueError("a channel needs at least 2 terms")
        if len(self.phases) != n or len(self.subset) != n:
            raise ValueError("selection, phases and controller subset must align")
        if (1 << self.controller.l) < n:
            raise SpecFieldError(f"{self.controller.l} controller qubits cannot "
                                 f"key {n} terms", "controller")
        if len(set(self.subset)) != n:
            raise SpecFieldError("controller subset indices must be distinct", "subset")
        for k in self.subset:
            if not 0 <= k < len(self.controller.elements):
                raise SpecFieldError(f"controller index {k} out of range", "subset")
        for k, ph in enumerate(self.phases):
            if not abs(abs(complex(ph)) - 1.0) <= qstate.TOLERANCE:
                raise SpecFieldError(f"phase {ph} is not unit modulus", f"phases[{k}]")
        _check_entries(self.selection, self.slots, self.pair_basis.size)

    @property
    def n(self) -> int:
        return len(self.selection)

    @property
    def slots(self) -> int:
        return SLOTS[self.kind]

    def controller_states(self) -> tuple[StateVector, ...]:
        return tuple(self.controller.elements[k] for k in self.subset)

    def pair_vectors(self) -> list[np.ndarray]:
        """Each term's pair product |e_{m,1}> ... |e_{m,d}>, as amplitudes."""
        elems = self.pair_basis.elements
        return [functools.reduce(np.kron, [elems[i - 1].amplitudes for i in entry])
                for entry in self.selection]


def _spec(kind, entries, controller, subset, phases, pair_basis) -> ChannelSpec:
    sel = tuple(tuple(int(i) for i in entry) for entry in entries)
    return ChannelSpec(
        kind=kind,
        pair_basis=pair_basis if pair_basis is not None else bell_basis(),
        selection=sel,
        phases=(1.0 + 0.0j,) * len(sel) if phases is None
        else tuple(complex(p) for p in phases),
        controller=controller,
        subset=tuple(subset) if subset is not None else tuple(range(len(sel))),
    )


def bcst_spec(
    selection: Iterable[PairCell],
    controller: ControllerBasis,
    subset: Sequence[int] | None = None,
    phases: Sequence[complex] | None = None,
    pair_basis: EntangledBasis | None = None,
) -> ChannelSpec:
    """Two-way teleportation spec over the grid cells (i, j)."""
    return _spec("bcst", selection, controller, subset, phases, pair_basis)


def qd_spec(
    indices: Iterable[int],
    controller: ControllerBasis,
    subset: Sequence[int] | None = None,
    phases: Sequence[complex] | None = None,
    pair_basis: EntangledBasis | None = None,
) -> ChannelSpec:
    """Dialogue spec over single pair indices i; its entries are (i,)."""
    return _spec("qd", ((i,) for i in indices), controller, subset, phases, pair_basis)


def build_bcst_channel(spec: ChannelSpec) -> tuple[StateVector, QubitLayout]:
    """Assemble the channel of any kind; structural rules are enforced."""
    violation = validate_selection(spec.selection, spec.pair_basis.size)
    if violation is not None:
        raise SelectionRuleError(violation)
    return build_bcst_channel_unchecked(spec)


def build_bcst_channel_unchecked(spec: ChannelSpec) -> tuple[StateVector, QubitLayout]:
    """Assembly without the structural-rule gate.

    Needed to study what goes wrong with rule-violating selections (and to
    reproduce published channels that have that defect), and to run
    protocols over them.  `build` on the command line always checks.
    """
    weight = 1.0 / np.sqrt(spec.n)
    ctrl = spec.controller_states()
    amps = sum(spec.phases[m] * weight * np.kron(v, ctrl[m].amplitudes)
               for m, v in enumerate(spec.pair_vectors()))
    layout = canonical_layout(spec.pair_basis.p, spec.slots, spec.controller.l)
    return StateVector(len(layout.roles), amps), layout


def apply_layout(
    state: StateVector, layout: QubitLayout, new_roles: Sequence[str]
) -> tuple[StateVector, QubitLayout]:
    """Permute the register into a new role order (same role names)."""
    new = layout.reordered(new_roles)
    order = tuple(layout.roles.index(r) for r in new.roles)
    return qstate.permute_qubits(state, order), new
