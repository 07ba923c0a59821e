"""Smoke tests for the scripts under scripts/: each `main` runs at small sizes."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_census_sweep_prints_one_block_per_n(capsys):
    assert load("census_sweep").main(["--p", "2", "--min-n", "2", "--max-n", "3"]) == 0
    blocks = capsys.readouterr().out.strip().split("\n\n")
    assert [b.splitlines()[0] for b in blocks] == [
        "census p=2 n=2 (grid 4x4)", "census p=2 n=3 (grid 4x4)"]


@pytest.mark.parametrize("argv, names", [
    (["--specs", "2", "--terms", "3", "--trials", "3", "--seed", "1"],
     ["random-0", "random-1"]),
    (["--entry", "seven", "--trials", "3"], ["seven"]),
])
def test_channel_trials_prints_one_line_per_spec(capsys, argv, names):
    assert load("channel_trials").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == names
    assert all("worst fidelity 1.000000000000000" in ln for ln in lines)


def test_golden_cli_corpus_is_reproduced(tmp_path, capsys, monkeypatch):
    """Regenerates the corpus (every case through `bcst.cli.main` in process)
    into a scratch file and compares it case by case with the committed
    tests/data/cli_golden.json."""
    golden = load("golden_cli")
    want = json.loads(golden.CORPUS.read_text())
    monkeypatch.setattr(golden, "CORPUS", tmp_path / "corpus.json")
    assert golden.main([]) == 0
    got = json.loads(golden.CORPUS.read_text())
    assert got["files"] == want["files"]
    assert [c["argv"] for c in got["cases"]] == [c["argv"] for c in want["cases"]]
    changed = [(" ".join(w["argv"]), w, g)
               for w, g in zip(want["cases"], got["cases"]) if w != g]
    assert changed == []
