"""Entangled pair bases and controller measurement bases.

Bell order is fixed as psi+ (|00>+|11>), psi- (|00>-|11>), phi+ (|01>+|10>),
phi- (|01>-|10>), all over sqrt(2).  Three-qubit GHZ-class states are
(|b> + sign*|~b>)/sqrt(2) with b the 3-bit pattern of x; x and 7-x label the
same ray, so labels normalize into x in [0, 3].
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .qstate import StateVector, clip, tensor, validate_orthonormal

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
# one qubit's eigenstates per axis, indexed by bit: |0>, |1> and |+>, |->
_AXIS_STATES = {"z": np.eye(2), "x": np.array([[1, 1], [1, -1]]) * _INV_SQRT2}


class BellKind(IntEnum):
    PSI_PLUS = 0
    PSI_MINUS = 1
    PHI_PLUS = 2
    PHI_MINUS = 3

    @property
    def symbol(self) -> str:
        return ("psi+", "psi-", "phi+", "phi-")[self]


def bell(kind: BellKind) -> StateVector:
    amps = np.zeros(4, dtype=np.complex128)
    if kind in (BellKind.PSI_PLUS, BellKind.PSI_MINUS):
        amps[0] = _INV_SQRT2
        amps[3] = _INV_SQRT2 if kind == BellKind.PSI_PLUS else -_INV_SQRT2
    else:
        amps[1] = _INV_SQRT2
        amps[2] = _INV_SQRT2 if kind == BellKind.PHI_PLUS else -_INV_SQRT2
    return StateVector(2, amps)


@dataclass(frozen=True)
class GhzLabel:
    """Label (x, sign) for (|x:3bits> + sign*|complement>)/sqrt(2)."""

    x: int
    sign: int

    def __post_init__(self):
        if not 0 <= self.x <= 7:
            raise ValueError(f"x={self.x} outside [0, 7]")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {self.sign}")

    def canonical(self) -> "GhzLabel":
        return GhzLabel(7 - self.x, self.sign) if self.x > 3 else self

    @property
    def symbol(self) -> str:
        return f"ghz{self.x}{'+' if self.sign == 1 else '-'}"


def ghz(label: GhzLabel) -> StateVector:
    amps = np.zeros(8, dtype=np.complex128)
    amps[label.x] = _INV_SQRT2
    amps[7 - label.x] += label.sign * _INV_SQRT2
    return StateVector(3, amps)


@dataclass(frozen=True)
class EntangledBasis:
    """Complete orthonormal basis of p-qubit entangled states."""

    name: str
    p: int
    elements: tuple[StateVector, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


@functools.cache
def bell_basis() -> EntangledBasis:
    """The Bell basis; one shared value, built on first use (it is immutable)."""
    return EntangledBasis("bell", 2, tuple(bell(k) for k in BellKind))


GHZ_BASIS_LABELS = tuple(GhzLabel(x, s) for x in range(4) for s in (1, -1))


def ghz_basis() -> EntangledBasis:
    return EntangledBasis("ghz", 3, tuple(ghz(lb) for lb in GHZ_BASIS_LABELS))


@dataclass(frozen=True)
class ControllerBasis:
    """Complete orthonormal basis for the controller's l-qubit register."""

    name: str
    l: int
    elements: tuple[StateVector, ...]

    def __post_init__(self):
        if validate_orthonormal(self.elements).shape != (1 << self.l, 1 << self.l):
            raise ValueError(f"{len(self.elements)} elements do not form a complete basis "
                             f"on {self.l} qubits")


def product_axis_basis(axes: str) -> ControllerBasis:
    """Product basis with a measurement axis per qubit: 'z' gives |0>,|1>,
    'x' gives |+>,|->.  Elements are ordered by the binary counter over per-
    qubit choices (bit 0 selects |0> or |+>), and built by one batched tensor
    product whose factor q holds qubit q's state in element k as row k."""
    if not axes or any(a not in "zx" for a in axes):
        raise ValueError(f"axes must be a string over 'z'/'x', got {clip(axes)}")
    l = len(axes)
    bits = (np.arange(1 << l)[:, None] >> np.arange(l - 1, -1, -1)) & 1
    factors = [StateVector(1, _AXIS_STATES[a][bits[:, q]]) for q, a in enumerate(axes)]
    elements = tuple(StateVector(l, row) for row in tensor(*factors).amplitudes)
    name = {"z" * l: "computational", "x" * l: "hadamard-product"}.get(
        axes, f"axes:{axes}"
    )
    return ControllerBasis(name, l, elements)


def controller_basis(name: str, l: int) -> ControllerBasis:
    """Named controller basis family on l qubits."""
    if name == "computational":
        return product_axis_basis("z" * l)
    if name == "hadamard-product":
        return product_axis_basis("x" * l)
    if name == "ghz":
        if l != 3:
            raise ValueError("ghz controller basis requires l=3")
        gb = ghz_basis()
        return ControllerBasis("ghz", 3, gb.elements)
    if name.startswith("axes:"):
        axes = name[len("axes:"):]
        if len(axes) != l:
            raise ValueError(f"axes {clip(axes)} do not cover {l} qubits")
        return product_axis_basis(axes)
    raise ValueError(f"unknown controller basis family {clip(name)}")


def complete_basis(elements) -> tuple[StateVector, ...]:
    """Extend orthonormal states to a full basis via the SVD null space.

    The given states come first, unchanged; the completion is deterministic.
    """
    elements = tuple(elements)
    b = validate_orthonormal(elements)
    n, dim = b.shape
    if n == dim:
        return elements
    _, _, vh = np.linalg.svd(b.conj(), full_matrices=True)
    nq = elements[0].num_qubits
    return elements + tuple(StateVector(nq, row) for row in vh[n:].conj())


def custom_controller_basis(elements) -> ControllerBasis:
    """Controller basis from explicit states, completed if fewer than 2^l."""
    full = complete_basis(elements)
    return ControllerBasis("custom", full[0].num_qubits, full)
