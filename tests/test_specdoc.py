"""Channel-spec documents and amplitude files."""
import json

import numpy as np
import pytest

from bcst import bases, specdoc
from bcst.bases import controller_basis, custom_controller_basis
from bcst.catalog import catalog_entries, entry, reconstruct
from bcst.channel import bcst_spec, build_bcst_channel, build_bcst_channel_unchecked, qd_spec
from bcst.qstate import fidelity_up_to_phase, ket, random_state
from bcst.specdoc import (
    SpecDocumentError,
    parse_spec_document,
    read_amplitude_file,
    serialize_spec,
    sqrt2_decode,
    sqrt2_encode,
    write_amplitude_file,
    write_text_file,
)


def test_sqrt2_encoding_is_bit_exact():
    for value in (0.5, -0.5, 1 / np.sqrt(2), -1 / np.sqrt(2), 0.25,
                  1 / (2 * np.sqrt(2)), 1.0, 0.0, -1.0):
        encoded = sqrt2_encode(value)
        assert sqrt2_decode(encoded, "x") == value  # exact, not approx


def test_sqrt2_plain_integers_stay_plain():
    assert sqrt2_encode(1.0) == 1
    assert sqrt2_encode(-1.0) == -1
    assert sqrt2_encode(0.0) == 0


def test_sqrt2_symbolic_form():
    enc = sqrt2_encode(1 / np.sqrt(2))
    assert enc == {"num": 1, "den_sqrt2_power": 1}
    assert sqrt2_decode({"num": 3, "den_sqrt2_power": 4}, "x") == 3 * 2.0 ** -2


def test_sqrt2_decode_scales_by_exact_powers_of_two():
    # bit-identical to dividing by the integer 2^(k // 2), and a power past
    # any integer's reach reads as zero instead of building 1 << (k // 2)
    for num in (1, -3, 7, 2**53 + 1):
        for k in range(0, 2048, 7):
            want = num / float(1 << (k // 2))
            want = want / np.sqrt(2.0) if k % 2 else want
            assert sqrt2_decode({"num": num, "den_sqrt2_power": k}, "x") == want
    assert sqrt2_decode({"num": 1, "den_sqrt2_power": 10**30}, "x") == 0.0


@pytest.mark.parametrize("value", [10**400, -(10**400), [0, 10**400],
                                   {"num": 10**400, "den_sqrt2_power": 3}])
def test_a_number_past_the_double_range_names_its_field(value):
    doc = {"version": 1, "kind": "bcst", "pair_basis": "bell",
           "selection": [[1, 1], [2, 2]], "phases": [1, value],
           "controller": {"family": "computational", "l": 1}}
    with pytest.raises(SpecDocumentError) as err:
        parse_spec_document(json.dumps(doc))
    assert str(err.value) == "number past the double range (field 'phases[1]')"
    assert err.value.field == "phases[1]"


def test_sqrt2_decode_rejects_malformed():
    with pytest.raises(SpecDocumentError):
        sqrt2_decode({"num": 1}, "phases[0]")
    with pytest.raises(SpecDocumentError):
        sqrt2_decode("one", "phases[0]")


@pytest.mark.parametrize("entry_id", [e.id for e in catalog_entries()])
def test_serialize_parse_round_trip(entry_id):
    spec = entry(entry_id).spec
    parsed, layout = parse_spec_document(serialize_spec(spec))
    assert layout is None
    assert parsed.kind == spec.kind
    assert parsed.selection == spec.selection
    assert parsed.subset == spec.subset
    assert parsed.phases == spec.phases
    assert parsed.controller.name == spec.controller.name
    rebuilt, _ = build_bcst_channel_unchecked(parsed)
    original, _ = build_bcst_channel_unchecked(spec)
    assert fidelity_up_to_phase(rebuilt, original) >= 1.0 - 1e-12


def test_round_trip_preserves_qd_documents():
    spec = qd_spec([1, 2], controller_basis("computational", 1))
    parsed, _ = parse_spec_document(serialize_spec(spec))
    assert parsed.kind == "qd"
    assert parsed.selection == ((1,), (2,))
    assert json.loads(serialize_spec(parsed))["selection"] == [1, 2]


def test_round_trip_preserves_custom_controllers():
    ctrl = custom_controller_basis([ket("00"), ket("11")])
    spec = bcst_spec([(1, 1), (2, 2)], ctrl, subset=[0, 1])
    parsed, _ = parse_spec_document(serialize_spec(spec))
    states = parsed.controller_states()
    assert fidelity_up_to_phase(states[0], ket("00")) == pytest.approx(1.0)
    assert fidelity_up_to_phase(states[1], ket("11")) == pytest.approx(1.0)
    a, _ = build_bcst_channel(spec)
    b, _ = build_bcst_channel(parsed)
    assert fidelity_up_to_phase(a, b) >= 1.0 - 1e-12


def test_layout_override_round_trips():
    spec = entry("zha5").spec
    text = serialize_spec(spec, layout=("C1", "A1", "B1", "A2", "B2"))
    _, layout = parse_spec_document(text)
    assert layout == ("C1", "A1", "B1", "A2", "B2")


def test_layout_is_checked_where_it_is_read():
    text = serialize_spec(entry("zha5").spec, layout=("A1", "A1", "B1", "B2", "C1"))
    with pytest.raises(SpecDocumentError) as err:
        parse_spec_document(text)
    assert err.value.field == "layout"
    assert str(err.value) == ("A1,A1,B1,B2,C1 is not a permutation of "
                              "A1,B1,A2,B2,C1 (field 'layout')")
    qd = qd_spec([1, 2, 3], controller_basis("computational", 2))
    _, layout = parse_spec_document(serialize_spec(qd, layout=("C2", "A1", "C1", "B1")))
    assert layout == ("C2", "A1", "C1", "B1")


def test_phases_and_amplitudes_share_one_scalar_reader():
    half, minus_half = ({"num": k, "den_sqrt2_power": 1} for k in (1, -1))
    doc = {"version": 1, "kind": "bcst", "pair_basis": "bell",
           "selection": [[1, 1], [2, 2], [3, 3]],
           "phases": [{"num": -2, "den_sqrt2_power": 2}, [0, 1], [half, half]],
           "controller": {"custom": [[half, [half, 0], 0, 0],
                                     [[half, 0], minus_half, 0, 0],
                                     [0, 0, 1, [0, 0]]]}}
    spec, _ = parse_spec_document(json.dumps(doc))
    r = 1 / np.sqrt(2)
    assert spec.phases == (-1, 1j, complex(r, r))
    amps = [s.amplitudes for s in spec.controller_states()]
    np.testing.assert_allclose(amps[0], [r, r, 0, 0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(amps[1], [r, -r, 0, 0], rtol=0, atol=1e-15)
    for bad in ("abc", True, [1, 2, 3], {"num": 1}):
        doc["phases"][1] = bad
        with pytest.raises(SpecDocumentError) as err:
            parse_spec_document(json.dumps(doc))
        assert err.value.field == "phases[1]"


def test_parse_error_carries_line_number():
    bad = '{\n  "version": 1,\n  "kind": ???\n}\n'
    with pytest.raises(SpecDocumentError) as err:
        parse_spec_document(bad)
    assert err.value.line == 3
    assert "line 3" in str(err.value)


def test_parse_error_names_the_field():
    doc = {
        "version": 1,
        "kind": "bcst",
        "pair_basis": "bell",
        "selection": [[1, 1], [2, 2]],
        "phases": [1, "wat"],
        "controller": {"family": "computational", "l": 1, "subset": [0, 1]},
    }
    with pytest.raises(SpecDocumentError) as err:
        parse_spec_document(json.dumps(doc))
    assert err.value.field == "phases[1]"


def test_parse_rejects_unknown_version_and_kind():
    with pytest.raises(SpecDocumentError):
        parse_spec_document(json.dumps({"version": 2, "kind": "bcst"}))
    for kind in ("teleport", ["bcst"]):
        doc = {"version": 1, "kind": kind, "pair_basis": "bell",
               "selection": [[1, 1], [2, 2]], "phases": [1, 1],
               "controller": {"family": "computational", "l": 1}}
        with pytest.raises(SpecDocumentError, match="kind must be"):
            parse_spec_document(json.dumps(doc))


def _doc(**controller):
    return {"version": 1, "kind": "bcst", "pair_basis": "bell",
            "selection": [[1, 1], [2, 2]], "phases": [1, 1],
            "controller": controller}


@pytest.mark.parametrize("family, l", [("ghz", 2), ("ghz", 4), ("axes:zx", 3),
                                       ("axes:x", 2)])
def test_parse_rejects_an_l_that_contradicts_the_family(family, l):
    with pytest.raises(SpecDocumentError, match="contradicts") as err:
        parse_spec_document(json.dumps(_doc(family=family, l=l, subset=[0, 1])))
    assert err.value.field == "controller.l"


@pytest.mark.parametrize("family, l", [("ghz", 3), ("axes:zx", 2)])
def test_parse_accepts_an_l_that_agrees_with_the_family(family, l):
    spec, _ = parse_spec_document(json.dumps(_doc(family=family, l=l, subset=[0, 1])))
    assert spec.controller.name == family and spec.controller.l == l


@pytest.mark.parametrize("l", [0, -1, True, "2", 1.0])
def test_parse_rejects_an_l_that_is_not_a_positive_integer(l):
    with pytest.raises(SpecDocumentError, match="positive integer") as err:
        parse_spec_document(json.dumps(_doc(family="computational", l=l)))
    assert err.value.field == "controller.l"


@pytest.mark.parametrize("kind, pair_basis, controller, l, room, field", [
    ("bcst", "bell", {"family": "computational", "l": 11}, 11, 8, "controller.l"),
    ("bcst", "bell", {"family": "axes:" + "zx" * 20}, 40, 8, "controller.l"),
    ("bcst", "ghz", {"family": "hadamard-product", "l": 7}, 7, 6, "controller.l"),
    ("qd", "bell", {"family": "computational", "l": 11}, 11, 10, "controller.l"),
    ("bcst", "bell", {"custom": [[1] + [0] * 511, [0, 1] + [0] * 510]}, 9, 8,
     "controller.custom[0]"),
])
def test_parse_rejects_a_controller_that_does_not_fit_the_register(
        monkeypatch, kind, pair_basis, controller, l, room, field):
    def refuse(*args):
        raise AssertionError("a controller basis was built")
    for module in (bases, specdoc):
        monkeypatch.setattr(module, "controller_basis", refuse)
        monkeypatch.setattr(module, "custom_controller_basis", refuse)
    doc = {"version": 1, "kind": kind, "pair_basis": pair_basis,
           "selection": [[1, 1], [2, 2]] if kind == "bcst" else [1, 2],
           "controller": controller}
    with pytest.raises(SpecDocumentError) as err:
        parse_spec_document(json.dumps(doc))
    assert str(err.value) == (
        f"{l} controller qubits do not fit the 12-qubit register, which has "
        f"room for {room} beside the pairs (field {field!r})")
    assert err.value.field == field


def test_parse_accepts_a_controller_that_fills_the_register():
    spec, _ = parse_spec_document(json.dumps(_doc(family="computational", l=8)))
    assert spec.controller.l == 8


def test_parse_rejects_unknown_fields():
    doc = _doc(family="computational", l=1)
    doc["bogus"] = 1
    with pytest.raises(SpecDocumentError) as err:
        parse_spec_document(json.dumps(doc))
    assert err.value.field == "bogus"
    for controller, field in (
        ({"family": "computational", "l": 1, "subst": [0, 1]}, "controller.subst"),
        ({"custom": [[1, 0], [0, 1]], "family": "ghz"}, "controller.family"),
        ({"custom": [[1, 0], [0, 1]], "l": 1}, "controller.l"),
    ):
        with pytest.raises(SpecDocumentError) as err:
            parse_spec_document(json.dumps(_doc(**controller)))
        assert err.value.field == field


def test_serialized_documents_use_only_known_fields():
    for e in catalog_entries():
        parse_spec_document(serialize_spec(e.spec))
    custom = custom_controller_basis([ket("00"), ket("11")])
    parse_spec_document(serialize_spec(bcst_spec([(1, 1), (2, 2)], custom)))


def test_parse_rejects_missing_controller():
    doc = {"version": 1, "kind": "bcst", "pair_basis": "bell",
           "selection": [[1, 1], [2, 2]], "phases": [1, 1]}
    with pytest.raises(SpecDocumentError) as err:
        parse_spec_document(json.dumps(doc))
    assert err.value.field == "controller"


def test_parse_defers_rule_checks_to_the_builder():
    # a rule-violating document still parses; the builder raises instead
    doc = {"version": 1, "kind": "bcst", "pair_basis": "bell",
           "selection": [[3, 1], [3, 2]], "phases": [1, 1],
           "controller": {"family": "hadamard-product", "l": 1}}
    spec, _ = parse_spec_document(json.dumps(doc))
    from bcst.channel import SelectionRuleError
    with pytest.raises(SelectionRuleError):
        build_bcst_channel(spec)


@pytest.mark.parametrize("changes, message, field", [
    ({"phases": [1, {"num": 1, "den_sqrt2_power": 2100}]},
     "phase (8.289046e-317+0j) is not unit modulus", "phases[1]"),
    ({"selection": [[1, 5], [2, 2]]}, "index 5 outside the 4-element basis",
     "selection[0]"),
    ({"kind": "qd", "selection": [1, 0]}, "index 0 outside the 4-element basis",
     "selection[1]"),
    ({"controller": {"family": "computational", "l": 1, "subset": [1, 1]}},
     "controller subset indices must be distinct", "controller.subset"),
    ({"controller": {"family": "computational", "l": 1, "subset": [0, -1]}},
     "controller index -1 out of range", "controller.subset"),
    ({"selection": [[1, 1], [2, 3], [3, 2]], "phases": [1, 1, 1]},
     "1 controller qubits cannot key 3 terms", "controller"),
    ({"selection": [[1, 1], [2, 3], [3, 2]], "phases": [1, 1, 1],
      "controller": {"custom": [[1, 0], [0, 1]], "subset": [0, 1, 1]}},
     "1 controller qubits cannot key 3 terms", "controller"),
], ids=["phase", "bcst-index", "qd-index", "repeated-subset-index",
        "subset-index-out-of-range", "family-too-small", "custom-too-small"])
def test_spec_check_failures_name_their_field(changes, message, field):
    # ChannelSpec makes these checks; the document names the field it read
    doc = dict(_doc(family="computational", l=1), **changes)
    with pytest.raises(SpecDocumentError) as err:
        parse_spec_document(json.dumps(doc))
    assert str(err.value) == f"{message} (field {field!r})"
    assert err.value.field == field


# ---- amplitude files ---------------------------------------------------------

def test_amplitude_file_round_trip(tmp_path):
    state = random_state(4, np.random.default_rng(17))
    path = tmp_path / "amps.txt"
    write_amplitude_file(path, state)
    text = path.read_text()
    assert text.startswith("# qubits: 4\n")
    back = read_amplitude_file(path)
    # the reader re-normalizes, which may touch the last bit of each entry
    np.testing.assert_allclose(back.amplitudes, state.amplitudes, rtol=0, atol=1e-13)


def test_amplitude_file_rejects_unnormalized(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1.0 0.0\n1 1.0 0.0\n")
    with pytest.raises(SpecDocumentError):
        read_amplitude_file(path)


def test_amplitude_file_rejects_gaps_and_duplicates(tmp_path):
    path = tmp_path / "gap.txt"
    path.write_text("0 1.0 0.0\n2 0.0 0.0\n")
    with pytest.raises(SpecDocumentError):
        read_amplitude_file(path)
    path.write_text("0 1.0 0.0\n0 0.0 0.0\n")
    with pytest.raises(SpecDocumentError) as err:
        read_amplitude_file(path)
    assert err.value.line == 2


def test_amplitude_file_rejects_malformed_rows(tmp_path):
    path = tmp_path / "rows.txt"
    path.write_text("0 1.0\n")
    with pytest.raises(SpecDocumentError):
        read_amplitude_file(path)


def test_a_long_row_is_quoted_clipped_with_its_length_and_line(tmp_path):
    path = tmp_path / "long.txt"
    path.write_text("0 1 0\n" + "1" * 5000 + " 0 0\n")
    with pytest.raises(SpecDocumentError) as err:
        read_amplitude_file(path)
    assert str(err.value) == f"unreadable row '{'1' * 40}... (5004 characters) (line 2)"
    path.write_text("0 1.0\n")
    with pytest.raises(SpecDocumentError) as err:
        read_amplitude_file(path)
    assert str(err.value) == "expected 'index re im', got '0 1.0' (line 1)"
    path.write_text("0 1 0\n" + f"{10**400} 0 0\n" * 2)
    with pytest.raises(SpecDocumentError) as err:
        read_amplitude_file(path)
    assert str(err.value) == f"duplicate index 1{'0' * 39}... (401 characters) (line 3)"


# ---- writing in place ----------------------------------------------------------

def _truncating_write(path, state):
    """The writer as it was before it wrote in place: open("w") and row by row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# qubits: {state.num_qubits}\n")
        for k, a in enumerate(state.amplitudes):
            fh.write(f"{k} {a.real:.17g} {a.imag:.17g}\n")


def test_the_in_place_writer_writes_the_same_bytes(tmp_path):
    rng = np.random.default_rng(28)
    states = [reconstruct(e) for e in catalog_entries()]
    states += [random_state(n, rng) for n in range(1, 13)]
    for i, state in enumerate(states):  # new files: a truncating rewrite waits on the disk
        new, old = tmp_path / f"new{i}.amps", tmp_path / f"old{i}.amps"
        write_amplitude_file(new, state)
        _truncating_write(old, state)
        assert new.read_bytes() == old.read_bytes()


def test_overwriting_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "x.amps"
    write_amplitude_file(path, random_state(6, np.random.default_rng(1)))
    write_amplitude_file(path, ket("01"))
    assert path.read_text() == "# qubits: 2\n0 0 0\n1 1 0\n2 0 0\n3 0 0\n"
    write_text_file(path, "")
    assert path.read_bytes() == b""


def test_writing_through_a_symlink_updates_the_target_and_keeps_the_link(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("old text, longer than the new\n")
    link.symlink_to(target)
    write_text_file(link, "new\n")
    assert link.is_symlink()
    assert target.read_text() == "new\n"
