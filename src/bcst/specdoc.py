"""Channel spec documents (JSON) and amplitude files (plain text).

A spec document carries: version, kind ("bcst" | "qd"), pair_basis ("bell" |
"ghz"), selection (one entry per term: its 1-based pair-basis index per
slot, written [i, j] for the two slots of bcst and as a bare i for the one
slot of qd, which reads as (i,)), phases, controller (a named family with an
ordered subset, or explicit custom states), and an optional layout override
(a permutation of the canonical register's role names, checked on reading).
Any other field, and an `l` that contradicts a `ghz` or `axes:<a>` family,
is an error.

Phases and custom-controller amplitudes are read by one scalar reader: a
number, the exact form {"num": k, "den_sqrt2_power": p} denoting
k * 2**(-p/2), or an [re, im] pair of either.  The decoding expression is
canonical, so symbolic values round-trip bit-exactly through
serialize/parse.
"""
from __future__ import annotations

import json
import math
import os
import stat
from typing import Any

import numpy as np

from .bases import bell_basis, controller_basis, custom_controller_basis, ghz_basis
from .channel import SLOTS, ChannelSpec, SpecFieldError, canonical_layout
from .qstate import MAX_QUBITS, StateVector, clip, from_amplitudes

DOCUMENT_VERSION = 1


class SpecDocumentError(ValueError):
    def __init__(self, message: str, *, line: int | None = None, field: str | None = None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if field is not None:
            loc.append(f"field {field!r}")
        super().__init__(f"{message}" + (f" ({', '.join(loc)})" if loc else ""))
        self.line = line
        self.field = field


# -- exact sqrt(2)-power scalars -------------------------------------------

def sqrt2_decode(value: Any, field: str) -> float:
    """Number, or {"num": k, "den_sqrt2_power": p} meaning k * 2**(-p/2);
    an integer past the double range is an error, not an OverflowError."""
    if isinstance(value, bool):
        raise SpecDocumentError("expected a number", field=field)
    try:
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, dict):
            extra = set(value) - {"num", "den_sqrt2_power"}
            if extra or "num" not in value or "den_sqrt2_power" not in value:
                raise SpecDocumentError(
                    "symbolic scalar needs exactly num and den_sqrt2_power", field=field
                )
            num, k = value["num"], value["den_sqrt2_power"]
            if not isinstance(num, int) or not isinstance(k, int) or k < 0:
                raise SpecDocumentError(
                    "num must be an integer, den_sqrt2_power a non-negative integer",
                    field=field,
                )
            return _sqrt2_value(num, k)
    except OverflowError:
        raise SpecDocumentError("number past the double range", field=field) from None
    raise SpecDocumentError(f"cannot read scalar {value!r}", field=field)


def _sqrt2_value(num: int, k: int) -> float:
    """num / sqrt(2)^k, staged so even powers scale exactly (ldexp, which
    allocates nothing however large k is).

    This reproduces bit-for-bit the doubles the builders emit (1/sqrt(2)
    factors followed by halvings); a single 2**(-k/2) power can land one
    ulp away for odd k.
    """
    value = math.ldexp(num, -(k // 2))
    if k % 2:
        value /= math.sqrt(2.0)
    return value


def sqrt2_encode(x: float) -> Any:
    """Render x as {"num", "den_sqrt2_power"} (a power up to 40) when possible."""
    if x == 0:
        return 0
    for k in range(41):
        scaled = x * 2.0 ** (k / 2)
        num = round(scaled)
        if num != 0 and abs(scaled - num) <= 1e-9 * max(1, abs(num)):
            if _sqrt2_value(num, k) == x:
                return {"num": int(num), "den_sqrt2_power": k} if k else int(num)
    return float(f"{x:.17g}")


# -- parsing ----------------------------------------------------------------

_DOCUMENT_FIELDS = ("version", "kind", "pair_basis", "selection", "phases",
                   "controller", "layout")
_FAMILY_CONTROLLER_FIELDS = ("family", "subset", "l")
_CUSTOM_CONTROLLER_FIELDS = ("custom", "subset")
# what a selection entry must look like, by slot count
_ENTRY_FORMS = {1: "dialogue selection entries are single 1-based indices",
                2: "each selection entry is a 1-based [i, j] pair"}


def _reject_unknown(raw: dict, known: tuple[str, ...], what: str, prefix: str = ""):
    for key in raw:
        if key not in known:
            raise SpecDocumentError(f"not a field of {what}", field=prefix + key)


def _require(doc: dict, key: str):
    if key not in doc:
        raise SpecDocumentError(f"missing required field {key!r}", field=key)
    return doc[key]


def _parse_complex(raw, field: str) -> complex:
    """A phase or an amplitude: a real scalar (a number or its symbolic
    form, see sqrt2_decode), or an [re, im] pair of them."""
    if isinstance(raw, list) and len(raw) == 2:
        return complex(sqrt2_decode(raw[0], field), sqrt2_decode(raw[1], field))
    return complex(sqrt2_decode(raw, field))


def _check_fits(l: int, room: int, field: str) -> None:
    """Raise unless l controller qubits fit the room the pairs leave."""
    if l > room:
        raise SpecDocumentError(
            f"{l} controller qubits do not fit the {MAX_QUBITS}-qubit register, "
            f"which has room for {room} beside the pairs", field=field)


def _parse_controller(raw, n: int, room: int):
    """(basis, subset); the size is checked before any basis state is built."""
    if not isinstance(raw, dict):
        raise SpecDocumentError("controller must be an object", field="controller")
    if "custom" in raw:
        _reject_unknown(raw, _CUSTOM_CONTROLLER_FIELDS, "a custom controller",
                        "controller.")
        rows = raw["custom"]
        if not isinstance(rows, list) or not rows:
            raise SpecDocumentError(
                "custom controller needs a list of states", field="controller.custom"
            )
        states = []
        for r, row in enumerate(rows):
            if not isinstance(row, list):
                raise SpecDocumentError(
                    "each custom state is a list of amplitudes",
                    field=f"controller.custom[{r}]",
                )
            _check_fits((len(row) - 1).bit_length(), room, f"controller.custom[{r}]")
            amps = [
                _parse_complex(a, f"controller.custom[{r}][{k}]")
                for k, a in enumerate(row)
            ]
            try:
                states.append(from_amplitudes(amps, atol=1e-9))
            except ValueError as exc:
                raise SpecDocumentError(str(exc), field=f"controller.custom[{r}]")
        try:
            basis = custom_controller_basis(states)
        except ValueError as exc:
            raise SpecDocumentError(str(exc), field="controller.custom")
        subset = raw.get("subset", list(range(len(states))))
        return basis, _parse_subset(subset, n)
    family = raw.get("family")
    if not isinstance(family, str):
        raise SpecDocumentError(
            "controller needs either a family name or custom states",
            field="controller.family",
        )
    _reject_unknown(raw, _FAMILY_CONTROLLER_FIELDS, "a family controller",
                    "controller.")
    # ghz and axes:<a> fix the register size; an l beside them must agree
    if family == "ghz":
        implied = 3
    elif family.startswith("axes:"):
        implied = len(family) - len("axes:")
    else:
        implied = max(1, (n - 1).bit_length())
    l = raw.get("l", implied)
    if not isinstance(l, int) or isinstance(l, bool) or l < 1:
        raise SpecDocumentError("l must be a positive integer", field="controller.l")
    if l != implied and (family == "ghz" or family.startswith("axes:")):
        raise SpecDocumentError(
            f"l={l} contradicts family {family!r}, which has l={implied}",
            field="controller.l",
        )
    _check_fits(l, room, "controller.l")
    try:
        basis = controller_basis(family, l)
    except ValueError as exc:
        raise SpecDocumentError(str(exc), field="controller.family")
    subset = raw.get("subset", list(range(n)))
    return basis, _parse_subset(subset, n)


def _parse_subset(raw, n: int) -> tuple[int, ...]:
    if (
        not isinstance(raw, list)
        or len(raw) != n
        or any(not isinstance(k, int) or isinstance(k, bool) for k in raw)
    ):
        raise SpecDocumentError(
            f"subset must list {n} integer indices", field="controller.subset"
        )
    return tuple(raw)


def parse_spec_document(text: str) -> tuple[ChannelSpec, tuple[str, ...] | None]:
    """Parse a spec document; returns (spec, layout override or None).

    Structural problems raise SpecDocumentError anchored to a line (JSON
    breakage) or a field path; rule violations are NOT checked here, they
    surface when the channel is built.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecDocumentError(f"not valid JSON: {exc.msg}", line=exc.lineno)
    if not isinstance(doc, dict):
        raise SpecDocumentError("document must be a JSON object")
    _reject_unknown(doc, _DOCUMENT_FIELDS, "a spec document")

    version = _require(doc, "version")
    if version != DOCUMENT_VERSION:
        raise SpecDocumentError(
            f"unsupported version {version!r}", field="version"
        )
    kind = _require(doc, "kind")
    if not isinstance(kind, str) or kind not in SLOTS:
        raise SpecDocumentError(f"kind must be bcst or qd, got {kind!r}", field="kind")
    basis_name = _require(doc, "pair_basis")
    if basis_name == "bell":
        pb = bell_basis()
    elif basis_name == "ghz":
        pb = ghz_basis()
    else:
        raise SpecDocumentError(
            f"pair_basis must be bell or ghz, got {basis_name!r}", field="pair_basis"
        )

    raw_sel = _require(doc, "selection")
    if not isinstance(raw_sel, list) or len(raw_sel) < 2:
        raise SpecDocumentError(
            "selection must list at least two entries", field="selection"
        )
    slots = SLOTS[kind]
    selection = []
    for k, it in enumerate(raw_sel):
        entry = [it] if slots == 1 else it
        if (
            not isinstance(entry, list)
            or len(entry) != slots
            or any(not isinstance(x, int) or isinstance(x, bool) for x in entry)
        ):
            raise SpecDocumentError(_ENTRY_FORMS[slots], field=f"selection[{k}]")
        selection.append(tuple(entry))
    n = len(selection)

    raw_phases = doc.get("phases", [1] * n)
    if not isinstance(raw_phases, list) or len(raw_phases) != n:
        raise SpecDocumentError(
            f"phases must list {n} values", field="phases"
        )
    phases = tuple(_parse_complex(p, f"phases[{k}]") for k, p in enumerate(raw_phases))

    controller, subset = _parse_controller(
        _require(doc, "controller"), n, MAX_QUBITS - slots * pb.p)

    layout = doc.get("layout")
    if layout is not None:
        if not isinstance(layout, list) or any(not isinstance(r, str) for r in layout):
            raise SpecDocumentError(
                "layout must be a list of role names", field="layout"
            )
        try:
            layout = canonical_layout(pb.p, slots, controller.l).reordered(layout).roles
        except ValueError as exc:
            raise SpecDocumentError(str(exc), field="layout")

    try:
        spec = ChannelSpec(
            kind=kind,
            pair_basis=pb,
            selection=tuple(selection),
            phases=phases,
            controller=controller,
            subset=subset,
        )
    except SpecFieldError as exc:  # the spec's subset is the controller's here
        field = "controller.subset" if exc.field == "subset" else exc.field
        raise SpecDocumentError(str(exc), field=field)
    return spec, layout


def load_spec_document(path) -> tuple[ChannelSpec, tuple[str, ...] | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec_document(fh.read())


# -- serialization ----------------------------------------------------------

def _encode_phase(ph: complex):
    if abs(ph.imag) < 1e-15 and float(ph.real) in (1.0, -1.0):
        return int(ph.real)
    return [sqrt2_encode(ph.real), sqrt2_encode(ph.imag)]


def serialize_spec(
    spec: ChannelSpec, layout: tuple[str, ...] | None = None
) -> str:
    """Spec document text that parse_spec_document maps back to `spec`."""
    doc: dict[str, Any] = {
        "version": DOCUMENT_VERSION,
        "kind": spec.kind,
        "pair_basis": spec.pair_basis.name,
        "selection": [entry[0] if spec.slots == 1 else list(entry)
                      for entry in spec.selection],
        "phases": [_encode_phase(complex(p)) for p in spec.phases],
    }
    name = spec.controller.name
    if name in ("computational", "hadamard-product", "ghz") or name.startswith("axes:"):
        ctrl: dict[str, Any] = {"family": name, "subset": list(spec.subset)}
        if name in ("computational", "hadamard-product"):
            ctrl["l"] = spec.controller.l
    else:
        ctrl = {
            "custom": [
                [
                    [sqrt2_encode(a.real), sqrt2_encode(a.imag)]
                    for a in spec.controller.elements[k].amplitudes
                ]
                for k in spec.subset
            ]
        }
    doc["controller"] = ctrl
    if layout is not None:
        doc["layout"] = list(layout)
    return json.dumps(doc, indent=2) + "\n"


# -- output files ------------------------------------------------------------

def write_text_file(path, text: str) -> None:
    """Write `text` over `path` in place, then cut a regular file to length.

    Opening without O_TRUNC keeps links and permissions as they are, and it
    spares the wait that truncating a file written moments before costs on
    ext4, which first flushes the old pages (auto_da_alloc): 35-85 ms a
    write on a 2-vCPU VM.  The cut runs even when a write fails, so no old
    byte is left past the new ones.  A non-regular target, such as
    /dev/null or a FIFO, is written as it is.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    written = 0
    try:
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


# -- amplitude files ---------------------------------------------------------

def write_amplitude_file(path, state: StateVector) -> None:
    """One `index re im` row per basis state, 17 significant digits."""
    rows = [f"# qubits: {state.num_qubits}\n"]
    rows += [f"{k} {a.real:.17g} {a.imag:.17g}\n" for k, a in enumerate(state.amplitudes)]
    write_text_file(path, "".join(rows))


def read_amplitude_file(path) -> StateVector:
    """Inverse of write_amplitude_file; norm checked within 1e-9, then fixed."""
    rows: dict[int, complex] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise SpecDocumentError(
                    f"expected 'index re im', got {clip(line)}", line=ln
                )
            try:
                k, re, im = int(parts[0]), float(parts[1]), float(parts[2])
            except ValueError:
                raise SpecDocumentError(f"unreadable row {clip(line)}", line=ln)
            if k in rows:
                raise SpecDocumentError(f"duplicate index {clip(str(k), quote=False)}", line=ln)
            rows[k] = complex(re, im)
    size = len(rows)
    if size < 2 or size & (size - 1) or set(rows) != set(range(size)):
        raise SpecDocumentError(
            f"rows must cover exactly 0..2^n-1, got {size} rows"
        )
    amps = np.array([rows[k] for k in range(size)])
    try:
        return from_amplitudes(amps, atol=1e-9)
    except ValueError as exc:
        raise SpecDocumentError(str(exc))
