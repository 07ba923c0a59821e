"""Regenerate the golden CLI corpus, tests/data/cli_golden.json.

Every case runs `bcst.cli.main` in process.  The cases run in order in one
scratch directory, so a case may read a file that an earlier case wrote
(`catalog --export` writes the spec documents that `build` and `simulate`
read, and `build` writes the amplitude files that `recognize` reads).  The
input files no case writes are stored in the corpus as text.  Each case
records its exit code, the sha256 of its stdout, its stderr as text when that
is at most one line (else its sha256), and the sha256 of every file it wrote.

    PYTHONPATH=src python scripts/golden_cli.py

A change that regenerates the corpus names every case whose record changed,
and why.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from bcst import qstate
from bcst.catalog import catalog_entries, entry, reconstruct
from bcst.cli import main as cli_main
from bcst.specdoc import serialize_spec, write_amplitude_file

CORPUS = Path(__file__).resolve().parent.parent / "tests" / "data" / "cli_golden.json"

# catalog entries whose selection breaks a structural rule: `build` refuses
# them, so their amplitude files are corpus inputs
RULE_VIOLATORS = ("li5", "cqsdc5", "six4b")
# (entry, role order) pairs built with a layout override and recognized back
SHUFFLED_LAYOUTS = (
    ("zha5", "B2,C1,A1,B1,A2"),
    ("six3", "C2,A2,B1,C1,B2,A1"),
    ("seven", "A2,C3,B1,C1,A1,B2,C2"),
)
CENSUS_SIZES = ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (2, 4), (2, 5), (3, 3))


def _doc(kind, pair_basis, selection, controller, **extra):
    doc = {"version": 1, "kind": kind, "pair_basis": pair_basis,
           "selection": selection, "phases": [1] * len(selection),
           "controller": controller}
    return json.dumps(dict(doc, **extra)) + "\n"


def _sqrt2(num: int, power: int) -> dict:
    """The symbolic scalar num / sqrt(2)^power of a spec document."""
    return {"num": num, "den_sqrt2_power": power}


def _amplitude_text(state) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.amps"
        write_amplitude_file(path, state)
        return path.read_text()


def _layout_doc(eid: str, roles: str | None) -> str:
    layout = tuple(roles.split(",")) if roles else None
    return serialize_spec(entry(eid).spec, layout=layout)


def corpus_inputs() -> dict[str, str]:
    """Input files, by name, that no case writes."""
    comp1 = {"family": "computational", "l": 1}
    zha5 = json.loads(_layout_doc("zha5", None))
    half = _sqrt2(1, 1)
    # |+> and |-> written symbolically, the second as [re, im] pairs
    custom = {"custom": [[half, half], [[half, 0], [_sqrt2(-1, 1), 0]]]}
    files = {
        "qd.json": _doc("qd", "bell", [1, 2], comp1),
        "qd-ghz.json": _doc("qd", "ghz", [1, 2], comp1),
        "qd-duplicate.json": _doc("qd", "bell", [1, 1], comp1),
        "qd-out-of-range.json": _doc("qd", "bell", [1, 5], comp1),
        "qd-pairs.json": _doc("qd", "bell", [[1, 2], [2, 3]], comp1),
        "bcst-out-of-range.json": _doc("bcst", "bell", [[1, 5], [2, 2]], comp1),
        "bcst-indices.json": _doc("bcst", "bell", [1, 2], comp1),
        "bcst-ghz.json": _doc("bcst", "ghz", [[1, 1], [2, 2]],
                              {"family": "hadamard-product", "l": 1}),
        "broken.json": '{\n "version": 1,\n "kind": zzz\n}\n',
        "bogus.json": json.dumps(dict(zha5, bogus=1)) + "\n",
        "repeated-role.json": _layout_doc("zha5", "A1,A1,B1,B2,C1"),
        "unnormalized.amps": "0 1.0 0.0\n1 1.0 0.0\n",
        "noise.amps": _amplitude_text(qstate.random_state(5, np.random.default_rng(3))),
        "custom.json": _doc("bcst", "bell", [[1, 1], [2, 3]], custom,
                            phases=[1, [half, half]]),
        "bare-phase.json": _doc("bcst", "bell", [[1, 1], [2, 3]], comp1,
                                phases=[1, _sqrt2(-2, 2)]),
        "bad-phase.json": _doc("bcst", "bell", [[1, 1], [2, 3]], comp1,
                               phases=[1, "abc"]),
        "qd4.json": _doc("qd", "bell", [1, 2, 3, 4],
                         {"family": "computational", "l": 2}),
        "huge-phase.json": _doc("bcst", "bell", [[1, 1], [2, 3]], comp1,
                                phases=[1, 10**400]),
        "huge-power.json": _doc("bcst", "bell", [[1, 1], [2, 3]], comp1,
                                phases=[1, _sqrt2(1, 2100)]),
        "l11.json": _doc("bcst", "bell", [[1, 1], [2, 3]],
                         {"family": "computational", "l": 11}),
        "axes40.json": _doc("bcst", "bell", [[1, 1], [2, 3]],
                            {"family": "axes:" + "zx" * 20}),
        "custom512.json": _doc("bcst", "bell", [[1, 1], [2, 3]],
                               {"custom": [[1] + [0] * 511, [0, 1] + [0] * 510]}),
        "subset-repeated.json": _doc("bcst", "bell", [[1, 1], [2, 3]],
                                     dict(comp1, subset=[0, 0])),
        "subset-out-of-range.json": _doc("bcst", "bell", [[1, 1], [2, 3]],
                                         dict(comp1, subset=[0, 2])),
        "few-controller-qubits.json": _doc("bcst", "bell",
                                           [[1, 1], [2, 3], [3, 2], [4, 4]], comp1),
    }
    for eid in RULE_VIOLATORS:
        files[f"{eid}.amps"] = _amplitude_text(reconstruct(entry(eid)))
    for eid, roles in SHUFFLED_LAYOUTS:
        files[f"{eid}-shuffled.json"] = _layout_doc(eid, roles)
    return files


def corpus_argvs() -> list[list[str]]:
    """Every case's argv, in run order."""
    cases = [["catalog", "--verify"], ["catalog", "--export", "seven"]]
    for e in catalog_entries():
        doc, amps = f"{e.id}.json", f"{e.id}.amps"
        cases += [
            ["catalog", "--export", e.id, "--out", doc],
            ["build", doc, amps],
            ["recognize", amps],
            ["simulate", doc, "--seed", "42", "--trials", "1"],
            ["simulate", doc, "--seed", "42", "--trials", "33"],
        ]
    for eid, roles in SHUFFLED_LAYOUTS:
        cases += [["build", f"{eid}-shuffled.json", f"{eid}-shuffled.amps"],
                  ["recognize", f"{eid}-shuffled.amps", "--layout", roles]]
    cases += [["census", str(p), str(n)] for p, n in CENSUS_SIZES]
    cases += [
        ["census", "2", "3", "--both"],
        ["census", "2", "5", "--formula"],
        ["census", "2", "3", "--oracle"],
        ["census", "100", "100", "--oracle"],
        ["census", "--help"],
        ["build", "qd.json", "qd.amps"],
        ["build", "qd-ghz.json", "qd-ghz.amps"],
        ["build", "qd-duplicate.json", "x.amps"],
        ["build", "qd-out-of-range.json", "x.amps"],
        ["build", "qd-pairs.json", "x.amps"],
        ["build", "bcst-out-of-range.json", "x.amps"],
        ["build", "bcst-indices.json", "x.amps"],
        ["build", "bcst-ghz.json", "bcst-ghz.amps"],
        ["recognize", "bcst-ghz.amps", "--pair-basis", "ghz"],
        ["simulate", "bcst-ghz.json"],
        ["recognize", "noise.amps"],
        ["recognize", "zha5.amps", "--candidates", "computational"],
        ["recognize", "zha5.amps", "--candidates", "computational,hadamard-product"],
        ["simulate", "six1.json", "--trials", "3",
         "--alice-state", "1,0,0,0", "--bob-state", "0,0,1,0"],
    ]
    # the failure table of tests/test_cli.py
    missing = "missing/out"
    cases += [
        ["simulate", "zha5.json", "--trials", "abc"],
        ["build", "nope.json", missing],
        ["build", "broken.json", missing],
        ["build", "bogus.json", missing],
        ["build", "cqsdc5.json", missing],
        ["build", "zha5.json", missing],
        ["build", "repeated-role.json", missing],
        ["census", "2", "8", "--oracle"],
        ["census", "2", "7"],
        ["census", "-1", "3", "--oracle"],
        ["census", "2", "1"],
        ["census", "2", "17", "--formula"],
        ["census", "100", "100"],
        ["census", "100", "100", "--formula"],
        ["simulate", "zha5.json", "--trials", "0"],
        ["simulate", "zha5.json", "--trials", "100000000000000000000"],
        ["simulate", "zha5.json", "--seed", "-1"],
        ["simulate", "nope.json"],
        ["simulate", "bogus.json"],
        ["simulate", "qd.json"],
        ["simulate", "zha5.json", "--alice-state", "1,2"],
        ["simulate", "zha5.json", "--alice-state", "a,b,c,d"],
        ["simulate", "li5.json", "--trials", "2", "--require-both-controlled"],
        ["catalog", "--export", "nope"],
        ["catalog", "--export", "seven", "--out", missing],
        ["recognize", "nope.amps"],
        ["recognize", "unnormalized.amps"],
        ["recognize", "zha5.amps", "--pair-basis", "ghz"],
        ["recognize", "zha5.amps", "--candidates", "bogus"],
        ["recognize", "zha5.amps", "--layout", "A1,A1,B1,B2,C1"],
        ["recognize", "zha5.amps", "--layout", "X,Y,Z,W,C1"],
        ["recognize", "zha5.amps", "--layout", "C1,C2,A1,B1,A2"],
        ["recognize", "zha5.amps", "--layout", "A1,B1"],
    ]
    # custom controllers, symbolic scalars, a document's own layout, and a
    # dialogue channel read back
    cases += [
        ["build", "custom.json", "custom.amps"],
        ["simulate", "custom.json", "--trials", "3"],
        ["recognize", "custom.amps"],
        ["build", "bare-phase.json", "bare-phase.amps"],
        ["build", "bad-phase.json", "x.amps"],
        ["simulate", "repeated-role.json"],
        ["build", "qd4.json", "qd4.amps"],
        ["recognize", "qd4.amps"],
    ]
    # numbers past the double range, and controllers too large for the register
    cases += [["build", doc, "x.amps"] for doc in (
        "huge-phase.json", "huge-power.json", "l11.json", "axes40.json",
        "custom512.json")]
    # controller fields that only the spec's own checks reject, and a closed
    # form too large to print
    cases += [["build", doc, "x.amps"] for doc in (
        "subset-repeated.json", "subset-out-of-range.json",
        "few-controller-qubits.json")]
    cases += [["census", "16", "65537", "--formula"]]
    # exhaustive counts over grids too wide to print or to build
    cases += [["census", p, "2", "--oracle"] for p in ("7200", "3000", "16000000")]
    return cases


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshot(workdir: Path) -> dict[str, str]:
    return {p.relative_to(workdir).as_posix(): _sha256(p.read_bytes())
            for p in workdir.rglob("*") if p.is_file()}


def run_case(argv: list[str], workdir: Path) -> dict:
    """One case's record: exit code, output hashes and the files it wrote.

    A case that raises is recorded with exit None and `raised <Type>:
    <message>` as its stderr, so the rest of the corpus still runs."""
    before = _snapshot(workdir)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except SystemExit as exc:  # argparse usage errors and --help
        code = exc.code
    except Exception as exc:  # a traceback at the command line: record it
        code = None
        err.write(f"raised {type(exc).__name__}: {exc}")
    finally:
        os.chdir(cwd)
    after = _snapshot(workdir)
    stderr = err.getvalue()
    return {
        "argv": argv,
        "exit": code,
        "stdout": _sha256(out.getvalue().encode()),
        "stderr": stderr if stderr.count("\n") <= 1 else _sha256(stderr.encode()),
        "writes": {k: v for k, v in sorted(after.items()) if before.get(k) != v},
    }


def run_corpus(files: dict[str, str], argvs: list[list[str]], workdir: Path) -> list[dict]:
    """Every case's record, run in order in `workdir` with the input files
    written first, under a fixed terminal width and the default tolerance."""
    for name, text in files.items():
        (workdir / name).write_text(text)
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        os.environ.pop("BCST_TOLERANCE", None)
        qstate._tolerance.cache_clear()
        try:
            return [run_case(argv, workdir) for argv in argvs]
        finally:
            qstate._tolerance.cache_clear()


def render(files: dict[str, str], records: list[dict]) -> str:
    """The corpus file: one case per line, so a diff names the cases."""
    cases = ",\n  ".join(json.dumps(r) for r in records)
    return (f'{{\n "files": {json.dumps(files, indent=1, sort_keys=True)},\n'
            f' "cases": [\n  {cases}\n ]\n}}\n')


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    files = corpus_inputs()
    with tempfile.TemporaryDirectory() as tmp:
        records = run_corpus(files, corpus_argvs(), Path(tmp))
    CORPUS.parent.mkdir(parents=True, exist_ok=True)
    CORPUS.write_text(render(files, records))
    print(f"wrote {len(records)} cases to {CORPUS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
