"""Command-line behavior: exit codes, output formats, determinism."""
import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcst import cli, qstate
from bcst.cli import (
    EXIT_CONTROL,
    EXIT_INPUT,
    EXIT_INTRACTABLE,
    EXIT_OK,
    EXIT_RULE,
    EXIT_UNRECOGNIZED,
    EXIT_WRONG_KIND,
    main,
)
from bcst.catalog import catalog_entries, entry, reconstruct
from bcst.qstate import fidelity_up_to_phase, random_state
from bcst.specdoc import (
    parse_spec_document,
    read_amplitude_file,
    serialize_spec,
    write_amplitude_file,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_exit_codes_are_disjoint():
    codes = [EXIT_OK, EXIT_INPUT, EXIT_RULE, EXIT_INTRACTABLE,
             EXIT_WRONG_KIND, EXIT_CONTROL, EXIT_UNRECOGNIZED]
    assert codes == sorted(set(codes)) == list(range(7))


# ---- build ---------------------------------------------------------------------

def test_build_writes_amplitudes(tmp_path, capsys):
    spec_file = tmp_path / "chan.json"
    out_file = tmp_path / "amps.txt"
    spec_file.write_text(serialize_spec(entry("zha5").spec))
    code, out, _ = run_cli(capsys, "build", str(spec_file), str(out_file))
    assert code == EXIT_OK
    assert "32 amplitudes" in out
    state = read_amplitude_file(out_file)
    assert state.num_qubits == 5
    assert np.count_nonzero(state.amplitudes) == 4
    assert fidelity_up_to_phase(state, reconstruct(entry("zha5"))) >= 1.0 - 1e-12


def test_build_to_an_unwritable_path(tmp_path, capsys):
    spec_file = tmp_path / "chan.json"
    spec_file.write_text(serialize_spec(entry("zha5").spec))
    target = tmp_path / "missing" / "x.amps"
    code, out, err = run_cli(capsys, "build", str(spec_file), str(target))
    assert code == EXIT_INPUT
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and str(target) in err


def test_build_rejects_rule_violations(tmp_path, capsys):
    spec_file = tmp_path / "bad.json"
    spec_file.write_text(serialize_spec(entry("cqsdc5").spec))
    code, _, err = run_cli(capsys, "build", str(spec_file), str(tmp_path / "x"))
    assert code == EXIT_RULE
    assert "Rule 1" in err


def test_build_reports_parse_errors_with_line(tmp_path, capsys):
    spec_file = tmp_path / "broken.json"
    spec_file.write_text('{\n "version": 1,\n "kind": zzz\n}\n')
    code, _, err = run_cli(capsys, "build", str(spec_file), str(tmp_path / "x"))
    assert code == EXIT_INPUT
    assert "line 3" in err


def test_build_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "build", str(tmp_path / "nope.json"),
                           str(tmp_path / "x"))
    assert code == EXIT_INPUT


def test_build_applies_layout_override(tmp_path, capsys):
    spec_file = tmp_path / "chan.json"
    out_file = tmp_path / "amps.txt"
    spec_file.write_text(serialize_spec(
        entry("zha5").spec, layout=("C1", "A1", "B1", "A2", "B2")))
    code, out, _ = run_cli(capsys, "build", str(spec_file), str(out_file))
    assert code == EXIT_OK
    assert "layout C1 A1 B1 A2 B2" in out


# ---- census --------------------------------------------------------------------

def test_census_both_match(capsys):
    code, out, _ = run_cli(capsys, "census", "2", "2", "--both")
    assert code == EXIT_OK
    assert "144" in out and "MATCH" in out


def test_census_both_mismatch_is_reported_not_fatal(capsys):
    code, out, _ = run_cli(capsys, "census", "2", "3", "--both")
    assert code == EXIT_OK
    assert "3648" in out and "3168" in out and "MISMATCH" in out


def test_census_formula_only(capsys):
    code, out, _ = run_cli(capsys, "census", "2", "5", "--formula")
    assert code == EXIT_OK
    assert "524160" in out


def test_census_intractable(capsys):
    code, _, err = run_cli(capsys, "census", "2", "8", "--oracle")
    assert code == EXIT_INTRACTABLE


@pytest.mark.parametrize("p,n", [("-1", "3"), ("0", "3"), ("2", "1")])
def test_census_oracle_rejects_bad_sizes(capsys, p, n):
    code, out, err = run_cli(capsys, "census", p, n, "--oracle")
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: need p >= 1 and n >= 2\n"


# ---- usage errors --------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("simulate", "x.json", "--trials", "abc"),
    ("census", "2", "x"),
    (),
], ids=["bad-trials", "bad-census-n", "no-subcommand"])
def test_usage_errors_exit_input_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_INPUT
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--help"])
    assert exc.value.code == EXIT_OK
    assert "usage:" in capsys.readouterr().out


# ---- simulate ------------------------------------------------------------------

def test_simulate_small_run(tmp_path, capsys):
    spec_file = tmp_path / "chan.json"
    spec_file.write_text(serialize_spec(entry("zha5").spec))
    code, out, _ = run_cli(capsys, "simulate", str(spec_file),
                           "--trials", "5", "--seed", "1")
    assert code == EXIT_OK
    assert "control: sides=both" in out
    assert "min fidelity: 1.000000000000000" in out
    assert "transcript sha256:" in out


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    spec_file = tmp_path / "chan.json"
    spec_file.write_text(serialize_spec(entry("zha5").spec))
    args = ("simulate", str(spec_file), "--trials", "8", "--seed", "42")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_simulate_fixed_payloads(tmp_path, capsys):
    spec_file = tmp_path / "chan.json"
    spec_file.write_text(serialize_spec(entry("six1").spec))
    code, out, _ = run_cli(capsys, "simulate", str(spec_file), "--trials", "3",
                           "--alice-state", "1,0,0,0", "--bob-state", "0,0,1,0")
    assert code == EXIT_OK


# transcript sha256 of `simulate <entry> --seed 42 --trials 25`, recorded
# before the per-spec memo and the one-transpose kernels went in
GOLDEN_TRANSCRIPTS = {
    "zha5": "d37a5572fc39496306b03722c093f6bb1ba215b35f514ac94f8cddacf5388d8f",
    "zha_ii5": "4bb92f8002fe1015751227b0f64a988d479b815b1984071347a970967add5a6b",
    "li5": "740515f75d80abac87e66f22b35d86c6093ed8c7474901c0769594332516e53d",
    "cqsdc5": "b6e0eb82e53a3cc62aa4ab0056393b83dddcf5b10a8f4d5ef9a9dca06581f732",
    "six1": "7e2182005fa06876791364d7cd0abe58a901579c046655e928cd9cdd05e9dd8d",
    "six3": "f7138fedfbc2f3bf315158fb726bf82900f7a62692c0fc91d1260479eff3a324",
    "six4a": "b5edcce9a38e9093d0b1ba2a61040563f27a6add9f32a3d78aa8905a9f4744c8",
    "six4b": "cc793d4a81b1b707bf194cbb446822c4630477eae650504544d35e0f477987ee",
    "seven": "3f044d7dff3a507c4ec7d35faba1672b57be5cd8cb3320ea488bfa5cc1d086c6",
}


def simulate_digest(capsys, tmp_path, entry_id, trials):
    spec_file = tmp_path / f"{entry_id}.json"
    spec_file.write_text(serialize_spec(entry(entry_id).spec))
    code, out, _ = run_cli(capsys, "simulate", str(spec_file),
                           "--seed", "42", "--trials", str(trials))
    assert code == EXIT_OK
    prefix = "transcript sha256: "
    return next(ln for ln in out.splitlines() if ln.startswith(prefix))[len(prefix):]


def test_golden_transcripts_cover_the_catalog():
    assert sorted(GOLDEN_TRANSCRIPTS) == sorted(e.id for e in catalog_entries())


@pytest.mark.parametrize("entry_id", sorted(GOLDEN_TRANSCRIPTS))
def test_simulate_golden_transcript(tmp_path, capsys, entry_id):
    assert simulate_digest(capsys, tmp_path, entry_id, 25) == GOLDEN_TRANSCRIPTS[entry_id]


def test_simulate_readme_example(tmp_path, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    digest = simulate_digest(capsys, tmp_path, "zha5", 5)
    assert digest == "d505d097355742301ff01c1fae8b083260bce82c82fbc3157ca0e953bbeeae18"
    assert f"transcript sha256: {digest}" in readme


@pytest.mark.parametrize("trials", ["-1", "0"])
def test_simulate_rejects_trials_below_one(tmp_path, capsys, trials):
    spec_file = tmp_path / "chan.json"
    spec_file.write_text(serialize_spec(entry("zha5").spec))
    code, out, err = run_cli(capsys, "simulate", str(spec_file), "--trials", trials)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"error: --trials must be at least 1, got {trials}\n"


def test_simulate_rejects_overflowing_trials(tmp_path, capsys):
    # only a count past C ssize_t: one that fits would allocate a seed per trial
    spec_file = tmp_path / "chan.json"
    spec_file.write_text(serialize_spec(entry("zha5").spec))
    trials = "100000000000000000000"
    code, out, err = run_cli(capsys, "simulate", str(spec_file), "--trials", trials)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"error: --trials {trials} is too large\n"


def test_simulate_rejects_negative_seed(tmp_path, capsys):
    spec_file = tmp_path / "chan.json"
    spec_file.write_text(serialize_spec(entry("zha5").spec))
    code, out, err = run_cli(capsys, "simulate", str(spec_file), "--seed", "-1")
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: --seed must be non-negative, got -1\n"


def test_simulate_nan_payload_fails_with_the_norm_message(tmp_path, capsys):
    spec_file = tmp_path / "chan.json"
    spec_file.write_text(serialize_spec(entry("zha5").spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "simulate", str(spec_file),
                                 "--alice-state", "nan,0,0,0")
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: norm nan further than 1e-09 from 1\n"


@pytest.mark.parametrize("change, field", [
    (lambda doc: doc.update(bogus=1), "bogus"),
    (lambda doc: doc["controller"].update(bogus=1), "controller.bogus"),
    (lambda doc: doc["controller"].update(l=2), "controller.l"),
])
def test_simulate_rejects_unknown_fields_and_a_contradicting_l(
        tmp_path, capsys, change, field):
    doc = json.loads(serialize_spec(entry("seven").spec))  # a ghz controller
    change(doc)
    spec_file = tmp_path / "chan.json"
    spec_file.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", str(spec_file), "--trials", "2")
    assert code == EXIT_INPUT
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"(field '{field}')" in err


@pytest.fixture
def tolerance_env(monkeypatch):
    """Set BCST_TOLERANCE for one test; the value is re-read on next use."""
    def set_value(value):
        monkeypatch.setenv("BCST_TOLERANCE", value)
        qstate._tolerance.cache_clear()
    yield set_value
    monkeypatch.undo()
    qstate._tolerance.cache_clear()


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "-inf", "0", "-1e-9", ""])
def test_invalid_tolerance_fails_every_command(tolerance_env, capsys, value):
    tolerance_env(value)
    for argv in (("census", "2", "2", "--formula"), ("catalog", "--export", "zha5")):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == ("error: BCST_TOLERANCE must be a finite positive number, "
                       f"got {value!r}\n")
    with pytest.raises(ValueError, match="BCST_TOLERANCE"):
        qstate.ket("0")


def test_valid_tolerance_is_used(tolerance_env):
    tolerance_env("1e-12")
    with pytest.raises(ValueError, match="normalized"):
        qstate.from_amplitudes([1.0004, 0.0])
    tolerance_env("1e-3")
    assert qstate.TOLERANCE == 1e-3
    assert qstate.from_amplitudes([1.0004, 0.0]).num_qubits == 1


def test_invalid_tolerance_exits_without_traceback():
    # the module reads BCST_TOLERANCE on first use, so `import bcst` survives
    # and the command reports the bad value in one line
    paths = [str(Path(__file__).resolve().parent.parent / "src"),
             os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, BCST_TOLERANCE="abc",
               PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-m", "bcst", "census", "2", "2"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert proc.stderr == "error: BCST_TOLERANCE must be a finite positive number, got 'abc'\n"


def test_simulate_rejects_dialogue_specs(tmp_path, capsys):
    doc = {"version": 1, "kind": "qd", "pair_basis": "bell",
           "selection": [1, 2], "phases": [1, 1],
           "controller": {"family": "computational", "l": 1}}
    spec_file = tmp_path / "qd.json"
    spec_file.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "simulate", str(spec_file))
    assert code == EXIT_WRONG_KIND


def test_simulate_rejects_ghz_pairs_before_any_output(tmp_path, capsys):
    doc = {"version": 1, "kind": "bcst", "pair_basis": "ghz",
           "selection": [[1, 1], [2, 2]], "phases": [1, 1],
           "controller": {"family": "hadamard-product", "l": 1}}
    spec_file = tmp_path / "ghz.json"
    spec_file.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", str(spec_file))
    assert code == EXIT_INPUT
    assert out == ""
    assert err == ("error: transmission is defined for Bell pairs only; "
                   "this spec uses 'ghz'\n")


def test_simulate_control_requirement(tmp_path, capsys):
    spec_file = tmp_path / "li.json"
    spec_file.write_text(serialize_spec(entry("li5").spec))
    code, _, err = run_cli(capsys, "simulate", str(spec_file), "--trials", "2",
                           "--require-both-controlled")
    assert code == EXIT_CONTROL
    assert "first-only" in err


# ---- catalog -------------------------------------------------------------------

def test_catalog_verify_all_pass(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--verify")
    assert code == EXIT_OK
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 9
    assert all(ln.startswith("PASS") for ln in lines)
    flagged = [ln for ln in lines if "RULE-VIOLATION" in ln]
    assert sorted(ln.split()[1] for ln in flagged) == ["cqsdc5", "li5", "six4b"]


def test_catalog_export_round_trips(tmp_path, capsys):
    out_file = tmp_path / "zha5.json"
    code, _, _ = run_cli(capsys, "catalog", "--export", "zha5",
                         "--out", str(out_file))
    assert code == EXIT_OK
    spec, _ = parse_spec_document(out_file.read_text())
    assert spec.selection == ((1, 1), (2, 2))
    # and the exported document is buildable
    amp_file = tmp_path / "amps.txt"
    code, _, _ = run_cli(capsys, "build", str(out_file), str(amp_file))
    assert code == EXIT_OK


def test_catalog_export_unknown_id(capsys):
    code, _, err = run_cli(capsys, "catalog", "--export", "nosuch")
    assert code == EXIT_INPUT


def test_catalog_export_to_an_unwritable_path(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "catalog", "--export", "seven", "--out", str(target))
    assert code == EXIT_INPUT
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and str(target) in err


def test_catalog_export_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--export", "seven")
    assert code == EXIT_OK
    spec, _ = parse_spec_document(out)
    assert spec.controller.name == "ghz"


# ---- recognize -----------------------------------------------------------------

def test_recognize_catalog_state(tmp_path, capsys):
    amp_file = tmp_path / "zha5.txt"
    write_amplitude_file(amp_file, reconstruct(entry("zha5")))
    code, out, _ = run_cli(capsys, "recognize", str(amp_file))
    assert code == EXIT_OK
    spec, _ = parse_spec_document(out)
    assert spec.selection == ((1, 1), (2, 2))
    assert spec.controller.name == "hadamard-product"


def test_recognize_random_state(tmp_path, capsys):
    amp_file = tmp_path / "noise.txt"
    write_amplitude_file(amp_file, random_state(5, np.random.default_rng(3)))
    code, out, _ = run_cli(capsys, "recognize", str(amp_file))
    assert code == EXIT_UNRECOGNIZED
    assert "NOT-RECOGNIZED" in out


def test_recognize_unnormalized_input(tmp_path, capsys):
    amp_file = tmp_path / "bad.txt"
    amp_file.write_text("0 1.0 0.0\n1 1.0 0.0\n")
    code, _, err = run_cli(capsys, "recognize", str(amp_file))
    assert code == EXIT_INPUT


def test_recognize_nan_row_is_unreadable_input(tmp_path, capsys):
    amp_file = tmp_path / "nan.txt"
    rows = ["0 nan 0"] + [f"{k} 0 0" for k in range(1, 31)] + ["31 1 0"]
    amp_file.write_text("\n".join(rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "recognize", str(amp_file))
    assert code == EXIT_INPUT
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: norm nan")


@pytest.mark.parametrize("argv", [
    ("simulate", "zha5.json", "--alice-state", "1e308,1e308,1e308,1e308"),
    ("recognize", "big.amps"),
], ids=["simulate", "recognize"])
def test_amplitudes_whose_norm_overflows_fail_with_one_line(tmp_path, capsys, argv):
    # every amplitude is finite, but the squared norm is past the double range
    (tmp_path / "zha5.json").write_text(serialize_spec(entry("zha5").spec))
    (tmp_path / "big.amps").write_text("0 1e308 1e308\n1 1e308 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, argv[0], str(tmp_path / argv[1]), *argv[2:])
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "error: norm inf further than 1e-09 from 1\n"


def test_recognize_wrong_layout(tmp_path, capsys):
    amp_file = tmp_path / "zha5.txt"
    write_amplitude_file(amp_file, reconstruct(entry("zha5")))
    code, out, _ = run_cli(capsys, "recognize", str(amp_file),
                           "--layout", "C1,A1,B1,A2,B2")
    assert code == EXIT_UNRECOGNIZED


def test_recognize_candidate_restriction(tmp_path, capsys):
    # with only the computational family offered, the channel is not seen
    amp_file = tmp_path / "zha5.txt"
    write_amplitude_file(amp_file, reconstruct(entry("zha5")))
    code, _, _ = run_cli(capsys, "recognize", str(amp_file),
                         "--candidates", "computational")
    assert code == EXIT_UNRECOGNIZED
    code, _, _ = run_cli(capsys, "recognize", str(amp_file),
                         "--candidates", "computational,hadamard-product")
    assert code == EXIT_OK


def test_recognize_bad_candidate_family(tmp_path, capsys):
    amp_file = tmp_path / "zha5.txt"
    write_amplitude_file(amp_file, reconstruct(entry("zha5")))
    code, _, err = run_cli(capsys, "recognize", str(amp_file),
                           "--candidates", "bogus")
    assert code == EXIT_INPUT


# ---- the failure table ---------------------------------------------------------

@pytest.fixture
def inputs(tmp_path):
    """Paths for the failure cases, by name; the nope.* files do not exist."""
    files = {name: tmp_path / name for name in (
        "zha5.json", "li5.json", "cqsdc5.json", "qd.json", "qd-duplicate.json",
        "broken.json", "bogus.json", "repeated-role.json", "zha5.amps",
        "unnormalized.amps", "nope.json", "nope.amps", "huge-phase.json",
        "huge-power.json", "l11.json", "axes40.json", "custom512.json")}
    for eid in ("zha5", "li5", "cqsdc5"):
        files[f"{eid}.json"].write_text(serialize_spec(entry(eid).spec))
    files["qd.json"].write_text(json.dumps(
        {"version": 1, "kind": "qd", "pair_basis": "bell", "selection": [1, 2],
         "phases": [1, 1], "controller": {"family": "computational", "l": 1}}))
    files["qd-duplicate.json"].write_text(json.dumps(
        {"version": 1, "kind": "qd", "pair_basis": "bell", "selection": [3, 1, 3],
         "controller": {"family": "computational", "l": 2}}))
    for name, extra in (
        ("huge-phase.json", {"phases": [1, 10**400]}),
        ("huge-power.json", {"phases": [1, {"num": 1, "den_sqrt2_power": 2100}]}),
        ("l11.json", {"controller": {"family": "computational", "l": 11}}),
        ("axes40.json", {"controller": {"family": "axes:" + "zx" * 20}}),
        ("custom512.json", {"controller": {
            "custom": [[1] + [0] * 511, [0, 1] + [0] * 510]}}),
    ):
        files[name].write_text(json.dumps(dict(
            {"version": 1, "kind": "bcst", "pair_basis": "bell",
             "selection": [[1, 1], [2, 3]],
             "controller": {"family": "computational", "l": 1}}, **extra)))
    files["broken.json"].write_text('{\n "version": 1,\n "kind": zzz\n}\n')
    doc = json.loads(serialize_spec(entry("zha5").spec))
    doc["bogus"] = 1
    files["bogus.json"].write_text(json.dumps(doc))
    files["repeated-role.json"].write_text(serialize_spec(
        entry("zha5").spec, layout=("A1", "A1", "B1", "B2", "C1")))
    write_amplitude_file(files["zha5.amps"], reconstruct(entry("zha5")))
    files["unnormalized.amps"].write_text("0 1.0 0.0\n1 1.0 0.0\n")
    files["missing"] = tmp_path / "missing" / "out"
    return files


# every documented failure that prints an `error:` line: argv (file names
# are keys of `inputs`), exit code, and a piece of the message
FAILURES = [
    (("simulate", "zha5.json", "--trials", "abc"), EXIT_INPUT, "invalid int value"),
    (("build", "nope.json", "missing"), EXIT_INPUT, "No such file"),
    (("build", "broken.json", "missing"), EXIT_INPUT, "line 3"),
    (("build", "bogus.json", "missing"), EXIT_INPUT, "(field 'bogus')"),
    (("build", "cqsdc5.json", "missing"), EXIT_RULE, "Rule 1"),
    (("build", "zha5.json", "missing"), EXIT_INPUT, "missing"),
    (("build", "qd-duplicate.json", "missing"), EXIT_RULE,
     "error: Rule 2: duplicate pair index 3\n"),
    (("build", "repeated-role.json", "missing"), EXIT_INPUT,
     "error: A1,A1,B1,B2,C1 is not a permutation of A1,B1,A2,B2,C1 (field 'layout')\n"),
    (("build", "huge-phase.json", "missing"), EXIT_INPUT,
     "error: number past the double range (field 'phases[1]')\n"),
    (("build", "huge-power.json", "missing"), EXIT_INPUT,
     "error: phase (8.289046e-317+0j) is not unit modulus (field 'phases[1]')\n"),
    (("build", "l11.json", "missing"), EXIT_INPUT,
     "error: 11 controller qubits do not fit the 12-qubit register, which has "
     "room for 8 beside the pairs (field 'controller.l')\n"),
    (("build", "axes40.json", "missing"), EXIT_INPUT,
     "40 controller qubits do not fit the 12-qubit register"),
    (("build", "custom512.json", "missing"), EXIT_INPUT,
     "9 controller qubits do not fit the 12-qubit register, which has room "
     "for 8 beside the pairs (field 'controller.custom[0]')"),
    (("census", "2", "8", "--oracle"), EXIT_INTRACTABLE, "exceed the exhaustive limit"),
    (("census", "100", "100", "--oracle"), EXIT_INTRACTABLE,
     "^100 tuples exceed the exhaustive limit"),
    (("census", "100", "1000000000", "--oracle"), EXIT_INTRACTABLE,
     "^1000000000 tuples exceed the exhaustive limit"),
    (("census", "7200", "2", "--oracle"), EXIT_INTRACTABLE,
     "error: (4^7200)^2 tuples exceed the exhaustive limit 100000000\n"),
    (("census", "3000", "2", "--oracle"), EXIT_INTRACTABLE,
     "error: (4^3000)^2 tuples exceed the exhaustive limit 100000000\n"),
    (("census", "16000000", "2", "--oracle"), EXIT_INTRACTABLE,
     "error: (4^16000000)^2 tuples exceed the exhaustive limit 100000000\n"),
    (("census", "2", "7"), EXIT_INTRACTABLE, "exhaustive counters skipped"),
    (("census", "-1", "3", "--oracle"), EXIT_INPUT, "need p >= 1 and n >= 2"),
    (("census", "2", "1"), EXIT_INPUT, "need p >= 1 and n >= 2"),
    (("census", "2", "17", "--formula"), EXIT_INPUT, "cannot select 17"),
    (("census", "100", "100"), EXIT_INPUT, "a count of 6021 digits is past the"),
    (("census", "100", "100", "--formula"), EXIT_INPUT,
     "a count of 6021 digits is past the"),
    (("census", "20", "1048577", "--formula"), EXIT_INPUT, "error: a count of "
     "12626125 digits is past the 4300-digit limit on printing an integer\n"),
    (("census", "24", "16777216"), EXIT_INPUT, "a count of 242421373 digits"),
    (("simulate", "zha5.json", "--trials", "0"), EXIT_INPUT, "--trials must be"),
    (("simulate", "zha5.json", "--trials", "100000000000000000000"), EXIT_INPUT,
     "is too large"),
    (("simulate", "zha5.json", "--seed", "-1"), EXIT_INPUT, "--seed must be"),
    (("simulate", "nope.json"), EXIT_INPUT, "No such file"),
    (("simulate", "bogus.json"), EXIT_INPUT, "(field 'bogus')"),
    (("simulate", "repeated-role.json"), EXIT_INPUT, "(field 'layout')"),
    (("simulate", "qd.json"), EXIT_WRONG_KIND, "this one is qd"),
    (("simulate", "zha5.json", "--alice-state", "1,2"), EXIT_INPUT, "re,im,re,im"),
    (("simulate", "zha5.json", "--alice-state", "a,b,c,d"), EXIT_INPUT,
     "could not convert"),
    (("simulate", "zha5.json", "--bob-state", ""), EXIT_INPUT,
     "error: could not convert string to float: ''\n"),
    (("simulate", "li5.json", "--trials", "2", "--require-both-controlled"),
     EXIT_CONTROL, "first-only"),
    (("catalog", "--export", "nope"), EXIT_INPUT, "error: no catalog entry 'nope'\n"),
    (("catalog", "--export", "seven", "--out", "missing"), EXIT_INPUT, "missing"),
    (("recognize", "nope.amps"), EXIT_INPUT, "No such file"),
    (("recognize", "unnormalized.amps"), EXIT_INPUT, "norm"),
    (("recognize", "zha5.amps", "--pair-basis", "ghz"), EXIT_INPUT,
     "error: 5 qubits leave no controller qubit beside two 3-qubit pairs\n"),
    (("recognize", "zha5.amps", "--candidates", "bogus"), EXIT_INPUT, "bogus"),
    (("recognize", "zha5.amps", "--layout", "A1,A1,B1,B2,C1"), EXIT_INPUT,
     "not a permutation"),
    (("recognize", "zha5.amps", "--layout", "X,Y,Z,W,C1"), EXIT_INPUT,
     "error: --layout X,Y,Z,W,C1 is not a permutation of A1,B1,A2,B2,C1\n"),
    (("recognize", "zha5.amps", "--layout", "C1,C2,A1,B1,A2"), EXIT_INPUT,
     "not a permutation"),
    (("recognize", "zha5.amps", "--layout", "A1,B1"), EXIT_INPUT, "not a permutation"),
]


@pytest.mark.parametrize("argv, code, message", FAILURES,
                         ids=[" ".join(argv) for argv, _, _ in FAILURES])
def test_every_failure_exits_with_its_code_and_one_error_line(
        capsys, inputs, argv, code, message):
    argv = [str(inputs.get(a, a)) for a in argv]
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse usage errors
        got = exc.code
    _, err = capsys.readouterr()
    assert got == code
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


def test_a_census_too_large_to_size_exits_1(capsys):
    # the 4^600 cells of this grid are past the double range that sizes the
    # closed form, so the count is refused from its bit length as an input
    # error, not a traceback or a float's overflow message
    code, out, err = run_cli(capsys, "census", "600", str(2**600 + 1), "--formula")
    assert (code, out, err) == (EXIT_INPUT, "", "error: a count of over 2^600 bits is "
                                "past the 4300-digit limit on printing an integer\n")


def test_simulate_spawns_one_pass_of_seeds_at_a_time(tmp_path, capsys, monkeypatch):
    asked, children = [], []

    class CountedSeedSequence(np.random.SeedSequence):
        def spawn(self, n_children):
            asked.append(n_children)
            spawned = super().spawn(n_children)
            children.extend(spawned)
            return spawned

    monkeypatch.setattr(np.random, "SeedSequence", CountedSeedSequence)
    monkeypatch.setattr(cli, "SIMULATE_CHUNK", 32)
    spec_file = tmp_path / "seven.json"
    spec_file.write_text(serialize_spec(entry("seven").spec))
    code, _, _ = run_cli(capsys, "simulate", str(spec_file), "--trials", "70")
    assert code == EXIT_OK
    assert asked == [32, 32, 6]
    # the same children, in the same order, as one up-front spawn of 70
    assert [c.spawn_key for c in children] == [(t,) for t in range(70)]


# ---- exit-code contract: simulate over any arguments ---------------------------

FIELDS = st.sampled_from(["0", "1", "-1", "0.6", "0.8", "1e-320", "1e200", "1e308",
                          "-1e308", "1e400", "nan", "inf", "-inf", "", " ", "x"])
GOOD_PAYLOADS = st.none() | st.sampled_from(["1,0,0,0", "0.6,0,0,0.8", "0,0,1,0"])
# each option's well-formed values, then malformed or out-of-range ones (a
# random list of fields can still be a valid payload); no valid count past
# 64, since a huge one would run until memory runs out
SIMULATE_OPTIONS = {
    "seed": (st.integers(0, 3).map(str) | st.sampled_from([str(2**64 + 1), str(10**400)]),
             st.sampled_from(["-1", str(-(2**64)), "1" + "0" * 5000, "", "1.5"])),
    "trials": (st.integers(1, 64).map(str),
               st.integers(-2, 0).map(str) | st.sampled_from([
                   str(-(2**64)), str(sys.maxsize + 1), str(2**64), str(10**20),
                   str(10**400), "1" + "0" * 5000, "", "1.5", "x"])),
    "alice-state": (GOOD_PAYLOADS, st.sampled_from([
        "1e308,1e308,1e308,1e308", "1e200,0,1e200,0", "nan,0,0,0", "inf,0,0,0",
        "1e-320,0,0,0", "0,0,0,0", "", ",,,", "1,0,0", "1,0,0,0,0"])
        | st.lists(FIELDS, min_size=4, max_size=4).map(",".join)
        | st.lists(FIELDS, max_size=6).map(",".join)),
}
SIMULATE_OPTIONS["bob-state"] = SIMULATE_OPTIONS["alice-state"]


@st.composite
def simulate_options(draw):
    """--name=value for each option: all well-formed, or one of them not."""
    bad = draw(st.sampled_from([None, *SIMULATE_OPTIONS]))
    argv = []
    for name, (good, refused) in SIMULATE_OPTIONS.items():
        value = draw(refused if name == bad else good)
        if value is not None:
            argv.append(f"--{name}={value}")
    return argv


@pytest.fixture(scope="module")
def simulate_specs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("specs")
    for eid in ("zha5", "li5"):
        (folder / f"{eid}.json").write_text(serialize_spec(entry(eid).spec))
    (folder / "qd.json").write_text(json.dumps(
        {"version": 1, "kind": "qd", "pair_basis": "bell", "selection": [1, 2],
         "phases": [1, 1], "controller": {"family": "computational", "l": 1}}))
    return folder


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(["zha5.json", "li5.json", "qd.json", "nope.json"]),
       simulate_options(), st.booleans())
def test_simulate_exits_with_a_documented_code_and_one_line(
        simulate_specs, spec, options, require):
    argv = ["simulate", str(simulate_specs / spec), *options]
    argv += ["--require-both-controlled"] if require else []
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")  # a numpy warning is a second stderr line
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in range(7)
    lines = err.getvalue().splitlines()
    assert len(lines) == (code != EXIT_OK)
    assert all(line.startswith("error: ") for line in lines)


# ---- output files are written in place ----------------------------------------

def test_build_and_export_never_open_with_truncation(tmp_path, capsys, monkeypatch):
    opened, real_open = [], os.open

    def recording_open(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    spec_file, amps, doc = tmp_path / "seven.json", tmp_path / "x.amps", tmp_path / "doc.json"
    for _ in range(2):  # the second round overwrites what the first wrote
        assert run_cli(capsys, "catalog", "--export", "seven", "--out", str(spec_file))[0] == 0
        assert run_cli(capsys, "build", str(spec_file), str(amps))[0] == 0
        assert run_cli(capsys, "catalog", "--export", "zha5", "--out", str(doc))[0] == 0
    # the outputs go through os.open, so a return to open("w") fails here too
    assert {path for path, _ in opened} >= {str(spec_file), str(amps), str(doc)}
    assert not any(flags & os.O_TRUNC for _, flags in opened)
    assert doc.read_text() == serialize_spec(entry("zha5").spec)


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_export_to_dev_null(capsys):
    assert run_cli(capsys, "catalog", "--export", "seven", "--out", "/dev/null") == (
        EXIT_OK, "", "")


def test_a_failed_write_leaves_no_old_byte_past_the_new_prefix(tmp_path, capsys, monkeypatch):
    spec_file, out_file = tmp_path / "seven.json", tmp_path / "x.amps"
    spec_file.write_text(serialize_spec(entry("seven").spec))
    out_file.write_text("old\n" * 10_000)
    calls, real_write = [], os.write

    def half_then_full_disk(fd, data):
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(fd, data[: len(data) // 2])

    monkeypatch.setattr(os, "write", half_then_full_disk)
    code, out, err = run_cli(capsys, "build", str(spec_file), str(out_file))
    monkeypatch.undo()
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: [Errno 28] No space left on device\n"
    written = out_file.read_bytes()
    write_amplitude_file(tmp_path / "whole.amps", reconstruct(entry("seven")))
    assert len(written) == calls[0] // 2
    assert (tmp_path / "whole.amps").read_bytes().startswith(written)


# ---- exit-code contract: recognize and the output paths ------------------------

ROW_FIELDS = st.sampled_from(["0", "1", "-1", "0.5", "1e-320", "1e308", "-1e308", "1e400",
                              "nan", "inf", "-inf", "x", "", "9" * 5000])
ROW_INDICES = st.sampled_from(["-1", "0", "1", "3", "4", "1.0", "x", str(2**64),
                               str(-(2**64)), str(10**400), "1" + "0" * 5000])
BAD_ROWS = st.sampled_from(["0", "0 1", "0 1 0 0", "0,1,0", "#", "\x00 1 0", "1" * 5000])
ROW_EDITS = st.tuples(
    st.sampled_from(["index", "re", "im", "row", "duplicate", "twice", "delete", "append"]),
    st.integers(0, 4095), ROW_INDICES, ROW_FIELDS, BAD_ROWS)


@st.composite
def amplitude_file_bytes(draw):
    """An amplitude file of a state, with a few of its rows or bytes broken."""
    source = draw(st.sampled_from(["haar", "zha5", "seven"]))
    if source == "haar":
        qubits = draw(st.integers(1, 12))
        state = random_state(qubits, np.random.default_rng(draw(st.integers(0, 3))))
    else:
        state = reconstruct(entry(source))
    rows = [f"{k} {a.real:.17g} {a.imag:.17g}" for k, a in enumerate(state.amplitudes)]
    edits = draw(st.just([]) | st.lists(ROW_EDITS, min_size=1, max_size=3))
    for what, at, index, field, bad in edits:
        at %= max(len(rows), 1)
        if not rows or what == "append":
            rows.append(f"{index} {field} 0")
        elif what in ("index", "re", "im"):
            parts = rows[at].split()
            parts += ["0"] * (3 - len(parts))
            parts[("index", "re", "im").index(what)] = index if what == "index" else field
            rows[at] = " ".join(parts)
        elif what == "row":
            rows[at] = bad
        elif what == "duplicate":
            rows.append(rows[at])
        elif what == "twice":
            rows += [f"{index} 0 0"] * 2
        else:
            del rows[at]
    data = ("\n".join(rows) + "\n").encode()
    spoil = draw(st.none() | st.sampled_from([b"\xff", b"\xc3", b"\xef\xbb\xbf"]))
    if spoil is not None:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + spoil + data[at:]
    return data


BAD_LAYOUTS = st.sampled_from(["A1,A1,B1,B2,C1", "A1", ",", " , ", "\x00", "C1,C2,A1,B1,A2",
                               "A1," * 3000, "X" * 5000, "C" + "1" * 5000])
CANDIDATES = st.sampled_from([
    "computational", "hadamard-product", "ghz", "axes:zx", "axes:zxz", "computational,ghz",
    "bogus", ",", "axes:", "axes:q", "axes:" + "z" * 5000, "computational," * 2000,
    "x" * 5000])
PAIR_BASES = st.sampled_from(["--pair-basis=bell", "--pair-basis=ghz"])
# well-formed amplitude files in contract_folder, by qubit count
CLEAN_FILES = {"zha5.amps": 5, "seven.amps": 7, "haar6.amps": 6, "haar12.amps": 12}


@pytest.fixture(scope="module")
def contract_folder(tmp_path_factory):
    folder = tmp_path_factory.mktemp("contract")
    (folder / "seven.json").write_text(serialize_spec(entry("seven").spec))
    for name in ("zha5", "seven"):
        write_amplitude_file(folder / f"{name}.amps", reconstruct(entry(name)))
    for n in (6, 12):
        write_amplitude_file(folder / f"haar{n}.amps", random_state(n, np.random.default_rng(n)))
    return folder


def assert_exit_contract(argv):
    """Run argv: a documented code, one short `error:` line exactly on failure,
    no exception and no numpy warning."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")  # a numpy warning is a second stderr line
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in range(7)
    lines = err.getvalue().splitlines()
    # exit 6 is recognize's verdict, printed on stdout, not an error
    assert len(lines) == (code not in (EXIT_OK, EXIT_UNRECOGNIZED))
    assert code != EXIT_UNRECOGNIZED or out.getvalue() == "NOT-RECOGNIZED\n"
    assert all(line.startswith("error: ") and len(line) <= 200 for line in lines)
    return code


@settings(max_examples=500, deadline=2000, derandomize=True)  # ms per example
@given(amplitude_file_bytes(), st.lists(PAIR_BASES, max_size=1))
def test_recognize_reads_any_amplitude_file_with_a_documented_code_and_one_line(
        contract_folder, data, options):
    # a new file each time: rewriting one with truncation would wait on the
    # old file's writeback, and the test would time the disk
    path = contract_folder / "drawn.amps"
    path.write_bytes(data)
    try:
        assert_exit_contract(["recognize", str(path), *options])
    finally:
        path.unlink()


@settings(max_examples=300, deadline=2000, derandomize=True)  # ms per example
@given(st.data())
def test_recognize_options_exit_with_a_documented_code_and_one_line(contract_folder, data):
    name, qubits = data.draw(st.sampled_from(sorted(CLEAN_FILES.items())))
    roles = ["A1", "B1", "A2", "B2"] + [f"C{c}" for c in range(1, qubits - 3)]
    layout = data.draw(st.none() | st.permutations(roles).map(",".join) | BAD_LAYOUTS)
    candidates = data.draw(st.none() | CANDIDATES)
    argv = ["recognize", str(contract_folder / name)]
    argv += data.draw(st.lists(PAIR_BASES, max_size=1))
    argv += [] if layout is None else [f"--layout={layout}"]
    argv += [] if candidates is None else [f"--candidates={candidates}"]
    assert_exit_contract(argv)


@pytest.mark.parametrize("target", ["missing/x.out", ".", "x.out"])
@pytest.mark.parametrize("command", ["build", "seven", "zha5", "bogus", "x" * 5000],
                         ids=["build", "seven", "zha5", "bogus", "long-id"])
def test_output_paths_exit_with_a_documented_code_and_one_line(
        contract_folder, command, target):
    path = str(contract_folder / target)
    argv = (["build", str(contract_folder / "seven.json"), path] if command == "build"
            else ["catalog", "--export", command, "--out", path])
    writes = target == "x.out" and command in ("build", "seven", "zha5")
    assert assert_exit_contract(argv) == (EXIT_OK if writes else EXIT_INPUT)
