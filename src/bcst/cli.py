"""Command-line interface.

Exit codes are disjoint by failure class: 0 success, 1 parse/input problems
(including argparse usage errors, unwritable output paths, `simulate
--trials` below 1 or too large for a seed per trial, a negative `--seed`, a
`--layout` or spec document `layout` that is not a permutation of the
register's roles, and a BCST_TOLERANCE that is not a finite positive
number), 2 selection rule violations, 3 intractable census requests, 4 wrong
channel kind for the subcommand, 5 failed control requirement, 6
unrecognized state.  `main` maps exception classes to these codes; the
subcommands return the codes that no exception carries.  Every subcommand
is deterministic given --seed.
"""
from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from . import catalog, census, qstate, specdoc
from .bases import bell_basis, controller_basis, ghz_basis
from .channel import SelectionRuleError, apply_layout, bcst_layout, build_bcst_channel
from .protocol import ProtocolError, require_bell_pairs, run_bcst, verify_control
from .qstate import StateVector, from_amplitudes

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RULE = 2
EXIT_INTRACTABLE = 3
EXIT_WRONG_KIND = 4
EXIT_CONTROL = 5
EXIT_UNRECOGNIZED = 6

SIMULATE_FIDELITY_FLOOR = 1.0 - 1e-9
# trials per run_bcst pass: one array of this many rows, and this many seed
# children, bound the memory of a long run (a few MB a pass); below ~256 the
# fixed cost of a pass outweighs its trials
SIMULATE_CHUNK = 256


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line and exits EXIT_INPUT."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bcst",
        description="construct, count, and verify controlled teleportation channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="assemble a channel from a spec document")
    p_build.add_argument("spec_file")
    p_build.add_argument("out_file")

    p_census = sub.add_parser("census", help="count admissible selections")
    p_census.add_argument("p", type=int, help="qubits per pair element (grid 2^p)")
    p_census.add_argument("n", type=int, help="number of channel terms")
    group = p_census.add_mutually_exclusive_group()
    group.add_argument("--formula", action="store_true", help="closed form only")
    group.add_argument("--oracle", action="store_true", help="exhaustive count only")
    group.add_argument("--both", action="store_true", help="full report (default)")

    p_sim = sub.add_parser("simulate", help="run two-way teleportation trials")
    p_sim.add_argument("spec_file")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--trials", type=int, default=20)
    p_sim.add_argument("--alice-state", help="payload as re,im,re,im (default Haar)")
    p_sim.add_argument("--bob-state", help="payload as re,im,re,im (default Haar)")
    p_sim.add_argument(
        "--require-both-controlled",
        action="store_true",
        help="fail unless the controller gates both directions",
    )

    p_cat = sub.add_parser("catalog", help="published channel catalog")
    cat_group = p_cat.add_mutually_exclusive_group(required=True)
    cat_group.add_argument("--verify", action="store_true")
    cat_group.add_argument("--export", metavar="ID")
    p_cat.add_argument("--out", help="write the exported document here (default stdout)")

    p_rec = sub.add_parser("recognize", help="recover a spec from amplitudes")
    p_rec.add_argument("amplitude_file")
    p_rec.add_argument("--layout", help="comma-separated role names")
    p_rec.add_argument("--candidates", help="comma-separated controller families")
    p_rec.add_argument("--pair-basis", choices=("bell", "ghz"), default="bell")
    return parser


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_build(args) -> int:
    spec, layout_override = specdoc.load_spec_document(args.spec_file)
    state, layout = build_bcst_channel(spec)
    if layout_override is not None:
        state, layout = apply_layout(state, layout, layout_override)
    specdoc.write_amplitude_file(args.out_file, state)
    print(f"wrote {state.dim} amplitudes ({state.num_qubits} qubits) "
          f"layout {' '.join(layout.roles)}")
    return EXIT_OK


def cmd_census(args) -> int:
    if args.formula:
        value = census.formula_count(args.p, args.n)
        print(f"closed form p={args.p} n={args.n}: {value}")
        return EXIT_OK
    if args.oracle:
        value = census.grid_oracle_count(args.p, args.n)
        print(f"oracle p={args.p} n={args.n}: {value}")
        return EXIT_OK
    report = census.census_report(args.p, args.n)
    for line in report.lines():
        print(line)
    if report.oracle_value is None:
        return _fail(EXIT_INTRACTABLE, "exhaustive counters skipped (intractable)")
    return EXIT_OK


def _parse_payload(text: str) -> StateVector:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 4:
        raise ValueError("payload must be re,im,re,im")
    return from_amplitudes([complex(parts[0], parts[1]), complex(parts[2], parts[3])],
                           atol=1e-9)


def cmd_simulate(args) -> int:
    if args.trials < 1:
        return _fail(EXIT_INPUT, f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        return _fail(EXIT_INPUT, f"--seed must be non-negative, got {args.seed}")
    if args.trials > sys.maxsize:  # past the trial indices SeedSequence can spawn
        return _fail(EXIT_INPUT, f"--trials {args.trials} is too large")
    spec, _ = specdoc.load_spec_document(args.spec_file)
    if spec.kind != "bcst":
        return _fail(EXIT_WRONG_KIND, "simulate runs bcst specs; this one is qd")
    require_bell_pairs(spec, "bcst")
    fixed_a = None if args.alice_state is None else _parse_payload(args.alice_state)
    fixed_b = None if args.bob_state is None else _parse_payload(args.bob_state)

    report = verify_control(spec)
    print(f"control: sides={report.sides} "
          f"purities=({report.pair_purities[0]:.12g}, {report.pair_purities[1]:.12g}) "
          f"mixture_dist={report.mixture_trace_distance:.3g}")
    if args.require_both_controlled and report.sides != "both":
        return _fail(EXIT_CONTROL, f"control is {report.sides}, not both")

    # successive spawns continue the children's spawn keys, so trial t gets
    # child t of the seed whatever the pass size
    seeds = np.random.SeedSequence(args.seed)
    transcripts = []
    for start in range(0, args.trials, SIMULATE_CHUNK):
        # what default_rng(c) builds, without its dispatch on the seed's type
        rngs = [np.random.Generator(np.random.PCG64(c))
                for c in seeds.spawn(min(SIMULATE_CHUNK, args.trials - start))]
        alice_in = fixed_a if fixed_a is not None else qstate.random_state(1, rngs)
        bob_in = fixed_b if fixed_b is not None else qstate.random_state(1, rngs)
        transcripts += run_bcst(spec, alice_in, bob_in, rng=rngs)[2]
    worst = min(min(tr.fidelity_bob, tr.fidelity_alice) for tr in transcripts)
    lines = [
        f"trial {t}: m={tr.charlie_outcome} smo_a={tr.smo_alice.bits} "
        f"smo_b={tr.smo_bob.bits} corr_b={tr.correction_bob.value} "
        f"corr_a={tr.correction_alice.value} "
        f"f_ab={tr.fidelity_bob:.15f} f_ba={tr.fidelity_alice:.15f}"
        for t, tr in enumerate(transcripts)
    ]
    for line in lines:
        print(line)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"trials: {args.trials}  min fidelity: {worst:.15f}")
    print(f"transcript sha256: {digest}")
    if worst < SIMULATE_FIDELITY_FLOOR:
        return _fail(EXIT_INPUT, f"fidelity floor violated: {worst}")
    return EXIT_OK


def cmd_catalog(args) -> int:
    if args.export:
        text = specdoc.serialize_spec(catalog.entry(args.export).spec)
        if args.out:
            specdoc.write_text_file(args.out, text)
        else:
            sys.stdout.write(text)
        return EXIT_OK

    failures = 0
    for e in catalog.catalog_entries():
        state = catalog.reconstruct(e)
        fid = qstate.fidelity_up_to_phase(state, catalog.literal_state(e.id))
        control = verify_control(e.spec)
        ok = fid >= 1.0 - 1e-12 and control.sides == e.control_sides
        flag = f" RULE-VIOLATION[{e.rule_violation}]" if e.rule_violation else ""
        verdict = "PASS" if ok else "FAIL"
        print(f"{verdict} {e.id:8s} qubits={e.qubit_count} fid={fid:.15f} "
              f"control={control.sides}{flag}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_INPUT


def cmd_recognize(args) -> int:
    state = specdoc.read_amplitude_file(args.amplitude_file)
    pb = bell_basis() if args.pair_basis == "bell" else ghz_basis()
    l = state.num_qubits - 2 * pb.p
    if l < 1:
        return _fail(EXIT_INPUT, f"{state.num_qubits} qubits leave no controller "
                                 f"qubit beside two {pb.p}-qubit pairs")
    layout = None
    if args.layout:
        roles = [r.strip() for r in args.layout.split(",")]
        try:
            layout = bcst_layout(pb.p, l).reordered(roles)
        except ValueError as exc:
            return _fail(EXIT_INPUT, f"--layout {exc}")
    candidates = None
    if args.candidates:
        # each family once: a repeated name would rebuild its basis (2^l states)
        names = dict.fromkeys(name.strip() for name in args.candidates.split(","))
        candidates = [controller_basis(name, l) for name in names]

    spec = catalog.recognize(state, layout, candidates, pb)
    if spec is None:
        print("NOT-RECOGNIZED")
        return EXIT_UNRECOGNIZED
    sys.stdout.write(specdoc.serialize_spec(spec))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "build": cmd_build,
        "census": cmd_census,
        "simulate": cmd_simulate,
        "catalog": cmd_catalog,
        "recognize": cmd_recognize,
    }[args.command]
    try:
        qstate.TOLERANCE  # read BCST_TOLERANCE now, whatever the subcommand
        return handler(args)
    # most specific class first: both of these are ValueErrors
    except SelectionRuleError as exc:
        return _fail(EXIT_RULE, str(exc))
    except census.IntractableError as exc:
        return _fail(EXIT_INTRACTABLE, str(exc))
    except (OSError, ValueError, OverflowError, ProtocolError) as exc:
        return _fail(EXIT_INPUT, str(exc))


if __name__ == "__main__":
    sys.exit(main())
