"""Reference values the benchmark checks bcst's outputs against.

Nothing here imports bcst: channel amplitudes are expanded straight from a
spec document with numpy, amplitude files are parsed and written with the
standard library, and census counts come from a closed form.  A wrong answer
from the program therefore cannot agree with its own check.

Conventions (fixed points of bcst's documented formats): qubit 0 is the most
significant bit; Bell order is psi+, psi-, phi+, phi-; GHZ-pair order is
(x, sign) for x = 0..3, sign = +, -; a product-axis controller basis counts
in binary over per-qubit choices with bit 0 selecting |0> or |+>.
"""
from __future__ import annotations

import math

import numpy as np

_S = 1.0 / math.sqrt(2.0)

BELL = np.array([
    [_S, 0, 0, _S],   # psi+
    [_S, 0, 0, -_S],  # psi-
    [0, _S, _S, 0],   # phi+
    [0, _S, -_S, 0],  # phi-
], dtype=complex)


def _ghz_elements() -> np.ndarray:
    rows = []
    for x in range(4):
        for sign in (1, -1):
            v = np.zeros(8, dtype=complex)
            v[x] = _S
            v[7 - x] = sign * _S
            rows.append(v)
    return np.array(rows)


GHZ = _ghz_elements()
PAIR_BASES = {"bell": BELL, "ghz": GHZ}
_AXIS_STATES = {
    "z": (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
    "x": (np.array([_S, _S], dtype=complex), np.array([_S, -_S], dtype=complex)),
}


def exact_census(p: int, n: int) -> int:
    """Ordered distinct-cell n-tuples over the 2^p x 2^p grid that neither
    sit in one row nor in one column: perm(N^2, n) - 2 N perm(N, n)."""
    size = 1 << p
    return math.perm(size * size, n) - 2 * size * math.perm(size, n)


def axes_basis(axes: str) -> np.ndarray:
    """Rows are the product-axis controller basis elements."""
    l = len(axes)
    rows = []
    for idx in range(1 << l):
        v = np.ones(1, dtype=complex)
        for pos, axis in enumerate(axes):
            v = np.kron(v, _AXIS_STATES[axis][(idx >> (l - 1 - pos)) & 1])
        rows.append(v)
    return np.array(rows)


def family_basis(family: str, l: int) -> np.ndarray:
    if family == "computational":
        return axes_basis("z" * l)
    if family == "hadamard-product":
        return axes_basis("x" * l)
    if family == "ghz":
        return GHZ
    if family.startswith("axes:"):
        return axes_basis(family[len("axes:"):])
    raise ValueError(f"unknown controller family {family!r}")


def _scalar(value) -> float:
    if isinstance(value, dict):
        return value["num"] * 2.0 ** (-value["den_sqrt2_power"] / 2.0)
    return float(value)


def _complex(value) -> complex:
    if isinstance(value, list):
        return complex(_scalar(value[0]), _scalar(value[1]))
    return complex(_scalar(value))


def channel_amplitudes(doc: dict) -> np.ndarray:
    """Amplitudes of the bcst channel a spec document describes, in the
    canonical [pair 1, pair 2, controller] register order."""
    if doc.get("kind") != "bcst" or doc.get("layout") is not None:
        raise ValueError("only canonical-layout bcst documents are expanded")
    pair = PAIR_BASES[doc["pair_basis"]]
    cells = doc["selection"]
    n = len(cells)
    phases = [_complex(ph) for ph in doc.get("phases", [1] * n)]
    ctrl = doc["controller"]
    if "custom" in ctrl:
        keyed = np.array([[_complex(a) for a in row] for row in ctrl["custom"]])
        keyed = keyed[ctrl.get("subset", list(range(len(keyed))))]
    else:
        family = ctrl["family"]
        l = ctrl.get("l", max(1, (n - 1).bit_length()))
        keyed = family_basis(family, l)[ctrl.get("subset", list(range(n)))]
    total = 0
    for (i, j), ph, a in zip(cells, phases, keyed):
        total = total + ph * np.kron(np.kron(pair[i - 1], pair[j - 1]), a)
    return total / math.sqrt(n)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>| for unit vectors; 0 when the sizes differ."""
    if a.shape != b.shape:
        return 0.0
    return float(abs(np.vdot(a, b)))


def write_amplitudes(path, amps: np.ndarray) -> None:
    """bcst's amplitude-file format: a qubit-count header, then rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# qubits: {int(amps.size).bit_length() - 1}\n")
        for k, a in enumerate(amps):
            fh.write(f"{k} {a.real:.17g} {a.imag:.17g}\n")


def read_amplitudes(path) -> np.ndarray:
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                k, re, im = line.split()
                rows[int(k)] = complex(float(re), float(im))
    return np.array([rows[k] for k in range(len(rows))])
