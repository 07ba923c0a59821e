"""Span tracing around bcst's public functions, from outside the program.

`Tracer.install()` replaces each traced function with a wrapper in every
bcst module namespace that holds it, so a name another module bound with
`from ... import` is traced too; `uninstall()` puts the originals back.
Each call records a span [name, start, end, parent index, op id] in memory.
`enumerate_selections` is a generator: its span runs from the first value
to exhaustion, so it covers the iteration, and it is never a parent.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function) pairs traced, by layer; "StateVector" counts constructions
TRACED = (
    ("qstate", "StateVector"), ("qstate", "tensor"), ("qstate", "apply_unitary"),
    ("qstate", "measure_in_basis"), ("qstate", "split_factor"),
    ("qstate", "factor_out"), ("qstate", "partial_trace"),
    ("qstate", "principal_state"), ("qstate", "permute_qubits"),
    ("qstate", "random_state"), ("qstate", "from_amplitudes"),
    ("bases", "bell_basis"), ("bases", "ghz_basis"), ("bases", "controller_basis"),
    ("bases", "complete_basis"), ("bases", "validate_orthonormal"),
    ("channel", "build_bcst_channel"), ("channel", "build_bcst_channel_unchecked"),
    ("channel", "validate_selection"),
    ("protocol", "run_bcst"), ("protocol", "verify_control"),
    ("protocol", "bell_measure"), ("protocol", "charlie_disclose"),
    ("catalog", "recognize"), ("catalog", "candidate_bases"),
    ("census", "census_report"), ("census", "oracle_count"),
    ("census", "enumerate_selections"), ("census", "formula_count"),
    ("specdoc", "load_spec_document"), ("specdoc", "serialize_spec"),
    ("specdoc", "read_amplitude_file"), ("specdoc", "write_amplitude_file"),
    ("cli", "main"), ("cli", "build_parser"),
)
NAMES = tuple(f"{m}.{f}" for m, f in TRACED)
_GENERATORS = {"census.enumerate_selections"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.bindings: dict[str, int] = {}

    def _open(self, name: str, push: bool) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        if push:
            self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list, push: bool) -> None:
        rec[2] = time.perf_counter()
        if push:
            self._stack.pop()

    def _wrap(self, name: str, fn):
        if name in _GENERATORS:
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                rec = self._open(name, push=False)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(rec, push=False)
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, push=True)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec, push=True)
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if (k == "bcst" or k.startswith("bcst.")) and m is not None]
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            home = sys.modules[f"bcst.{mod_name}"]
            orig = getattr(home, attr)
            if isinstance(orig, type):
                # a class: trace constructions through its __init__
                init = orig.__init__
                self._restore.append((orig, "__init__", init))
                setattr(orig, "__init__", self._wrap(name, init))
                self.bindings[name] = 1
                continue
            wrapped = self._wrap(name, orig)
            count = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)
                        count += 1
            self.bindings[name] = count

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def self_times(self) -> dict[str, list[float]]:
        """name -> [calls, self seconds]; self = span time minus child spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        for k, (name, t0, t1, _, _) in enumerate(self.spans):
            acc = out[name]
            acc[0] += 1
            acc[1] += (t1 - t0) - child[k]
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of `name` made, directly or not, from inside `ancestor`."""
        spans = self.spans
        count = 0
        for rec in spans:
            if rec[0] != name:
                continue
            parent = rec[3]
            while parent >= 0:
                if spans[parent][0] == ancestor:
                    count += 1
                    break
                parent = spans[parent][3]
        return count

    def write(self, path) -> None:
        """Spans as tab-separated rows: op, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tname\tstart_s\tend_s\tparent\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{op}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")
