"""perfbench's coverage lists hold for the code as it is.

`perfbench/run.py --trace 1` fails a run whose workload stops reaching a
function that EXPECTED_CALLS names, or reaches one that FORBIDDEN_CALLS
names.  Here one seeded epoch of each workload runs in process under
perfbench's own tracer, so a cut that changes what a workload reaches fails
the tests too.  Only files under perfbench/ are read, and none is written.
"""
import ast
import contextlib
import importlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

import bcst.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXIT_UNRECOGNIZED = 6


def _literal(node: ast.expr, consts: dict):
    """A literal, a dict of literals, or the name of an earlier constant."""
    if isinstance(node, ast.Name):
        return consts[node.id]
    if isinstance(node, ast.Dict):
        return {_literal(k, consts): _literal(v, consts)
                for k, v in zip(node.keys, node.values)}
    return ast.literal_eval(node)


def coverage_lists() -> tuple[dict, dict]:
    """EXPECTED_CALLS and FORBIDDEN_CALLS of perfbench/run.py, read with ast."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    consts = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            with contextlib.suppress(ValueError, KeyError):
                consts[node.targets[0].id] = _literal(node.value, consts)
    return consts["EXPECTED_CALLS"], consts["FORBIDDEN_CALLS"]


def run_op(argv) -> int:
    # looked up per call, so the tracer's wrapper of cli.main is the one run
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return bcst.cli.main(list(argv))


@pytest.mark.parametrize("workload", ["teleport", "census", "roundtrip"])
def test_one_epoch_reaches_what_the_benchmark_expects(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache in perfbench/
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    expected, forbidden = coverage_lists()

    def export(entry_id, path):
        assert run_op(("catalog", "--export", entry_id, "--out", str(path))) == 0
        return str(path)

    ops = workloads.WORKLOADS[workload](np.random.default_rng(1), tmp_path, export)
    spans = tracer.Tracer()
    spans.install()
    try:
        codes = [run_op(op.argv) for op in ops]
    finally:
        spans.uninstall()
    assert codes == [EXIT_UNRECOGNIZED if op.kind == "reject" else 0 for op in ops]
    calls = {name: n for name, (n, _) in spans.self_times().items()}
    assert [name for name, n in spans.bindings.items() if n == 0] == []
    assert [name for name in expected[workload] if not calls.get(name)] == []
    assert [name for name in forbidden[workload] if calls.get(name)] == []
