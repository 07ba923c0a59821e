"""bcst benchmark: seeded CLI workloads measured end to end and per layer.

    python3 perfbench/run.py --workload teleport|census|roundtrip \
        --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from `src/` next to this
directory.  Each op is one in-process call to `bcst.cli.main(argv)`, the code
path of a `bcst ...` command, with stdout and stderr captured.  One client
issues ops in a closed loop: the next op starts when the previous returns.
In-process ops keep the ~0.2 s interpreter-plus-numpy start out of every op;
that floor is measured on its own, over fresh interpreters, as `setup_s`.

`--trace 0` reports the end-to-end metrics; latency and throughput are
gated in calibration units (see `calibrate`), with wall-clock figures
printed beside them.  `--trace 1` alternates
untraced and traced repetitions of the same epoch, reports per-function
calls and self time per op from the traced ones, the tracing overhead from
the difference, and writes the spans to `.perfbench_work/`.  Every op's
output is checked outside its timed interval.  Context lines come first;
the last line of stdout is the JSON result.
"""
import os

# one BLAS/OpenMP thread, fixed before numpy loads here or in set-up children
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import NAMES, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_LAUNCHES = 7
SIMULATE_FLOOR = 1.0 - 1e-9
RECOGNIZE_FLOOR = 1.0 - 1e-12
EXIT_UNRECOGNIZED = 6
# a run stops early, mid-epoch, once this much wall time has gone
WALL_LIMIT_S = 150.0

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import bcst
t1 = time.perf_counter()
import bcst.cli
bcst.cli.build_parser()
print(t1 - t0)
"""

# functions each workload must reach (coverage self-check of the tracer);
# protocol.charlie_disclose is traced but required nowhere: run_bcst inlines
# its own disclosure, so no CLI path reaches it
EXPECTED_CALLS = {
    "teleport": (
        "qstate.StateVector", "qstate.tensor", "qstate.apply_unitary",
        "qstate.measure_in_basis", "qstate.split_factor", "qstate.factor_out",
        "qstate.partial_trace", "qstate.principal_state", "qstate.random_state",
        "bases.bell_basis", "bases.ghz_basis", "bases.controller_basis",
        "bases.complete_basis", "bases.validate_orthonormal",
        "channel.build_bcst_channel_unchecked",
        "protocol.run_bcst", "protocol.verify_control", "protocol.bell_measure",
        "specdoc.load_spec_document", "cli.main", "cli.build_parser",
    ),
    "census": (
        "census.census_report", "census.oracle_count",
        "census.enumerate_selections", "census.formula_count",
        "cli.main", "cli.build_parser",
    ),
    "roundtrip": (
        "qstate.StateVector", "qstate.tensor", "qstate.split_factor",
        "qstate.permute_qubits", "qstate.from_amplitudes",
        "bases.bell_basis", "bases.ghz_basis", "bases.controller_basis",
        "bases.validate_orthonormal",
        "channel.build_bcst_channel", "channel.build_bcst_channel_unchecked",
        "channel.validate_selection", "catalog.recognize", "catalog.candidate_bases",
        "specdoc.load_spec_document", "specdoc.serialize_spec",
        "specdoc.read_amplitude_file", "specdoc.write_amplitude_file",
        "cli.main", "cli.build_parser",
    ),
}
CENSUS_LAYER = ("census.census_report", "census.oracle_count",
                "census.enumerate_selections", "census.formula_count")
FORBIDDEN_CALLS = {
    "teleport": CENSUS_LAYER,
    "roundtrip": CENSUS_LAYER,
    "census": ("protocol.run_bcst", "catalog.recognize"),
}


def fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def measure_setup() -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing bcst and building
    the CLI parser, and median in-child time of the bare `import bcst`.
    One unmeasured launch first compiles the bytecode cache."""
    walls, imports = [], []
    for k in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"importing bcst failed: {proc.stderr.strip()[-500:]}")
        if k:
            walls.append(wall)
            imports.append(float(proc.stdout.strip()))
    return statistics.median(walls), statistics.median(imports)


_CAL_EYE = np.eye(2, dtype=complex)
_CAL_VEC = np.full(16, 0.25, dtype=complex)


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter work and small-array numpy
    calls, the instruction mix of bcst's kernels.  It runs before every op;
    an op's time over the mean of the calibrations on either side of it is
    its cost in calibration units ("cal"), which cancels most of the drift
    in machine speed that a shared host shows over seconds to minutes."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(150):
        m = np.kron(_CAL_EYE, _CAL_VEC.reshape(4, 4)).reshape(2, 2, 2, 2, 2, 2)
        m = np.moveaxis(m, (0, 3), (1, 2)).reshape(8, 8)
        acc += float(np.vdot(m[0], m[1]).real) + sum(divmod(k, 7))
    return time.perf_counter() - t0


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "bcst").rglob("*.py")))


class Harness:
    def __init__(self, cli):
        self.cli = cli  # looked up per call, so the tracer's cli.main is used
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[tuple, str] = {}
        # samples[k] = (op, seconds, traced); cals[k] ran just before op k
        self.samples: list[tuple] = []
        self.cals: list[float] = []

    def call(self, argv) -> tuple[int | None, str, str, float]:
        """One op: (exit code or None if it raised, stdout, stderr, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an op that raises is a failed op
                code = None
                err.write(f"raised {exc!r}")
            elapsed = time.perf_counter() - t0
        return code, out.getvalue(), err.getvalue(), elapsed

    def export(self, entry_id: str, path: Path) -> str:
        code, _, err, _ = self.call(("catalog", "--export", entry_id, "--out", str(path)))
        if code != 0:
            raise RuntimeError(f"catalog --export {entry_id} exited {code}: {err}")
        return str(path)

    def check(self, op, code, out: str) -> str | None:
        """None if the op's output is right, else the reason it is not."""
        if op.kind == "reject":
            if code == EXIT_UNRECOGNIZED and "NOT-RECOGNIZED" in out:
                return None
            return f"expected exit {EXIT_UNRECOGNIZED} and NOT-RECOGNIZED, got exit {code}"
        if code != 0:
            return f"exit {code}"
        if op.kind == "simulate":
            found = re.search(r"min fidelity:\s*(\S+)", out)
            if found is None or not float(found.group(1)) >= SIMULATE_FLOOR:
                return f"min fidelity {found and found.group(1)} below {SIMULATE_FLOOR}"
            digest = hashlib.sha256(out.encode()).hexdigest()
            if self.digests.setdefault(op.argv, digest) != digest:
                return "output differs from an earlier run of the same argv"
        elif op.kind == "census":
            if not re.search(rf"(?<![\w.]){op.expect}(?![\w.])", out):
                return f"exact count {op.expect} missing from the output"
        elif op.kind == "build":
            path, amps = op.expect
            fid = reference.fidelity(reference.read_amplitudes(path), amps)
            if fid < RECOGNIZE_FLOOR:
                return f"written amplitudes at fidelity {fid} to the spec"
        elif op.kind == "recognize":
            try:
                rebuilt = reference.channel_amplitudes(json.loads(out))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                return f"unusable spec document: {exc!r}"
            fid = reference.fidelity(rebuilt, reference.read_amplitudes(op.argv[1]))
            if fid < RECOGNIZE_FLOOR:
                return f"recovered spec rebuilds at fidelity {fid}"
        return None

    def epoch(self, ops, deadline: float, tracer=None) -> float:
        """Run the ops once each, each after a calibration; op seconds."""
        busy = 0.0
        for op in ops:
            if time.perf_counter() > deadline:
                break
            self.cals.append(calibrate())
            if tracer is not None:
                tracer.op = self.attempted
            code, out, err, elapsed = self.call(op.argv)
            if tracer is not None:
                tracer.op = -1
            self.attempted += 1
            reason = self.check(op, code, out)
            if reason is not None:
                self.failures.append(f"{' '.join(op.argv)}: {reason} {err.strip()[-300:]}")
            self.samples.append((op, elapsed, tracer is not None))
            busy += elapsed
        return busy

    def cal_units(self) -> list[float]:
        """Each op's seconds over the mean calibration bracketing it."""
        cals = self.cals + [calibrate()]
        return [t / (0.5 * (cals[k] + cals[k + 1]))
                for k, (_, t, _) in enumerate(self.samples)]


def e2e_metrics(samples, units) -> dict[str, float]:
    """Gated metrics in calibration units, wall-clock ones as context."""
    times = [t for _, t, _ in samples]
    m = {
        "ops_per_kcal": 1e3 * len(units) / sum(units),
        "op_p50_cal": statistics.median(units),
        "op_p90_cal": statistics.quantiles(units, n=10)[-1],
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": statistics.quantiles(times, n=10)[-1] * 1e3,
        "cal_ms": statistics.median(t * 1e3 / u for t, u in zip(times, units)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    sims = [(op.trials, t, u) for (op, t, _), u in zip(samples, units)
            if op.kind == "simulate"]
    if sims:
        m["trials_per_s"] = sum(n for n, _, _ in sims) / sum(t for _, t, _ in sims)
        m["trials_per_kcal"] = 1e3 * sum(n for n, _, _ in sims) / sum(u for _, _, u in sims)
    for kind in ("build", "recognize", "reject"):
        picked = [(t, u) for (op, t, _), u in zip(samples, units) if op.kind == kind]
        if picked:
            m[f"{kind}_p50_ms"] = statistics.median(t for t, _ in picked) * 1e3
            m[f"{kind}_p50_cal"] = statistics.median(u for _, u in picked)
    return m


# gated end-to-end metrics (BENCHMARK.json); the others are printed as context
GATED_E2E = ("setup_s", "ops_per_kcal", "op_p50_cal", "op_p90_cal", "peak_rss_mb")
UNITS = {"setup_s": "s", "ops_per_kcal": "1/kcal", "op_p50_cal": "cal",
         "op_p90_cal": "cal", "ops_per_s": "1/s", "op_p50_ms": "ms",
         "op_p90_ms": "ms", "cal_ms": "ms", "peak_rss_mb": "MB",
         "trials_per_s": "1/s", "trials_per_kcal": "1/kcal",
         "build_p50_ms": "ms", "recognize_p50_ms": "ms", "reject_p50_ms": "ms",
         "build_p50_cal": "cal", "recognize_p50_cal": "cal", "reject_p50_cal": "cal"}


def run_plain(harness, ops, seconds: float, deadline: float) -> int:
    busy, epochs = 0.0, 0
    while busy < seconds and time.perf_counter() < deadline:
        busy += harness.epoch(ops, deadline)
        epochs += 1
    return epochs


def run_traced(harness, ops, seconds: float, deadline: float,
               tracer) -> tuple[int, int]:
    """Untraced warm-up epoch, then (traced, untraced) epoch pairs; returns
    the number of warm-up ops and of pairs."""
    busy = harness.epoch(ops, deadline)
    warm_ops = harness.attempted
    pairs = 0
    while (pairs == 0 or busy < seconds) and time.perf_counter() < deadline:
        tracer.install()
        try:
            busy += harness.epoch(ops, deadline, tracer)
        finally:
            tracer.uninstall()
        busy += harness.epoch(ops, deadline)
        pairs += 1
    return warm_ops, pairs


def ratio(num: float, den: float) -> float:
    """num / den, or 0 where the base never occurred."""
    return num / den if den else 0.0


def layer_metrics(tracer, workload: str, ops, samples, units, warm_ops: int):
    traced = [u for (_, _, tr), u in zip(samples, units) if tr]
    untraced = [u for (_, _, tr), u in zip(samples[warm_ops:], units[warm_ops:]) if not tr]
    traced_ops = len(traced)
    per = tracer.self_times()
    metrics = {}
    for name in NAMES:
        calls, self_s = per.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (ratio(calls, traced_ops), "count")
        metrics[f"{name}.self_ms"] = (ratio(self_s * 1e3, traced_ops), "ms")
    trials = per.get("protocol.run_bcst", (0, 0.0))[0]
    recognizes = per.get("catalog.recognize", (0, 0.0))[0]
    metrics["catalog.recognize.split_factor_per_call"] = (ratio(
        tracer.calls_under("qstate.split_factor", "catalog.recognize"), recognizes), "count")
    for key, inner in (("channel_builds", "channel.build_bcst_channel_unchecked"),
                       ("bell_basis", "bases.bell_basis"),
                       ("states", "qstate.StateVector")):
        metrics[f"protocol.run_bcst.{key}_per_trial"] = (
            ratio(tracer.calls_under(inner, "protocol.run_bcst"), trials), "count")
    census_ops = [op for op in ops if op.kind == "census"]
    tuples = sum((1 << (2 * int(op.argv[1]))) ** int(op.argv[2]) for op in census_ops)
    counted = sum(op.expect for op in census_ops)
    oracle_runs = per.get("census.oracle_count", (0, 0.0))[0]
    metrics["census.oracle_count.tuples_per_selection"] = (
        ratio(tuples, counted) if oracle_runs else 0.0, "tuples/selection")
    metrics["tracing.overhead_pct"] = (
        (ratio(sum(traced), sum(untraced)) - 1.0) * 100.0, "%")

    problems = [f"{name} not bound in any bcst module"
                for name, n in tracer.bindings.items() if n == 0]
    problems += [f"{name} recorded no call" for name in EXPECTED_CALLS[workload]
                 if per.get(name, (0, 0.0))[0] == 0]
    problems += [f"{name} recorded calls" for name in FORBIDDEN_CALLS[workload]
                 if per.get(name, (0, 0.0))[0] > 0]
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("teleport", "census", "roundtrip"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "bcst" / "__init__.py").is_file():
        return fail_setup(f"no bcst source under {SRC}")
    try:
        setup_s, import_s = measure_setup()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail_setup(str(exc))

    sys.path.insert(0, str(SRC))
    import bcst
    import bcst.cli
    if Path(bcst.__file__).resolve().parent != SRC / "bcst":
        return fail_setup(f"imported bcst from {bcst.__file__}, not {SRC}")

    harness = Harness(bcst.cli)
    problems = [] if all(
        reference.exact_census(p, n) == bcst.census.oracle_count(1 << p, 1 << p, n)
        for p, n in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4))
    ) else ["exact census formula disagrees with oracle_count"]
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.WORKLOADS[args.workload](
            np.random.default_rng(args.seed), workdir, harness.export)
        deadline = start + WALL_LIMIT_S
        if args.trace:
            tracer = Tracer()
            warm_ops, pairs = run_traced(harness, ops, args.seconds, deadline, tracer)
            units = harness.cal_units()
            metrics, missing = layer_metrics(
                tracer, args.workload, ops, harness.samples, units, warm_ops)
            problems += missing
            trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.tsv"
            tracer.write(trace_file)
            context = {"traced_epochs": pairs,
                       "traced_ops": sum(tr for _, _, tr in harness.samples),
                       "spans": len(tracer.spans), "span_file": trace_file.name,
                       "coverage_check": "pass" if not missing else "; ".join(missing)}
        else:
            epochs = run_plain(harness, ops, args.seconds, deadline)
            units = harness.cal_units()
            e2e = e2e_metrics(harness.samples, units)
            e2e["setup_s"] = setup_s
            metrics = {k: (v, UNITS[k]) for k, v in e2e.items()}
            context = {"epochs": epochs, "ops_measured": len(units),
                       "ops_above_p90": sum(u > e2e["op_p90_cal"] for u in units)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(harness.failures)
    context.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "epoch_ops": len(ops), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
        "threads": " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS),
        "load": "closed loop, 1 client, 1 process",
        "import.s": import_s, "setup_s": setup_s, "src_lines": src_lines(),
        "fail_rate": failed / harness.attempted,
    })
    for key, value in context.items():
        print(f"{key}: {value}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name}: {value:.6g} {unit}")
    for reason in problems + harness.failures[:20]:
        print(f"FAILED {reason}")

    keep = metrics if args.trace else GATED_E2E
    result = {
        "correct": failed == 0 and not problems,
        "attempted": harness.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k in keep},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
