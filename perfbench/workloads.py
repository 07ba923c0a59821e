"""Seeded op lists for the three workloads.

An op is one `bcst` command line.  Each workload builds one *epoch*: a fixed
mix of op classes whose contents (cells, phases, controller families, keyed
subsets, trial seeds, Haar-random states, order) come from the seed.  A run
repeats its epoch until its time is up, so every run sees the same mix and
runs with different seeds differ only in the drawn contents.

Everything the program reads (spec documents, amplitude files, argv) is
written here, without calling bcst, except the catalog documents, which come
from `bcst catalog --export` through the `export` callback.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reference import channel_amplitudes, exact_census, write_amplitudes


@dataclass(frozen=True)
class Op:
    kind: str  # simulate | census | build | recognize | reject
    argv: tuple[str, ...]
    expect: object = None  # what the output check compares against
    trials: int = 0


# (catalog id, or (l, n) of a random Bell spec, trials T).  T runs over the
# log-spaced ladder round(300 ** (k / 18)), k = 0..18, dealt so that every
# controller size l gets small and large T.  The table is fixed so that runs
# with different seeds do the same work; the seed draws the random specs'
# cells, phases, families and keyed subsets, the trial seeds and the order.
TELEPORT_EPOCH = (
    ("zha5", 159), ("zha_ii5", 45), ("li5", 17), ("cqsdc5", 13), ((1, 2), 4),
    ("six1", 219), ("six3", 84), ("six4a", 33), ("six4b", 9),
    ((2, 2), 5), ((2, 3), 2), ((2, 4), 1),
    ((3, 8), 300), ("seven", 116), ((3, 5), 62), ((3, 6), 24), ((3, 7), 7),
    ((3, 3), 3), ((3, 2), 1),
)
# run twice per epoch with the same argv: they sit where the median and p90
# of the 21 op latencies fall, so each statistic lands inside a block of
# equal ops, and the repeat exercises the same-output check in every epoch
TELEPORT_TWICE = ("li5", "six1")

# (p, n) -> copies per epoch: small queries dominate the count, large the
# time.  Of the 35 latencies the median falls inside the (2, 3) block and
# p90 in the middle of the (2, 4) block, away from the edge of a block.
CENSUS_MIX = {
    (1, 2): 4, (1, 3): 3, (1, 4): 3, (2, 2): 4,
    (2, 3): 8, (3, 2): 8,
    (2, 4): 3, (2, 5): 1, (3, 3): 1,
}

# roundtrip positives (pair basis, l, n) and Haar-random rejects (pair basis, l)
ROUNDTRIP_SPECS = (
    ("bell", 1, 2), ("bell", 2, 3), ("bell", 2, 4), ("bell", 3, 2), ("bell", 3, 5),
    ("bell", 3, 8), ("ghz", 1, 2), ("ghz", 2, 3), ("ghz", 3, 6), ("ghz", 4, 9),
    ("ghz", 5, 16),
)
ROUNDTRIP_REJECTS = (("bell", 1), ("bell", 2), ("bell", 3), ("ghz", 3), ("ghz", 5))
PAIR_QUBITS = {"bell": 2, "ghz": 3}


def families(l: int) -> list[str]:
    """Controller families recognize() tries on an l-qubit controller."""
    names = {"z" * l: "computational", "x" * l: "hadamard-product"}
    out = [names.get("".join(a), "axes:" + "".join(a))
           for a in itertools.product("zx", repeat=l)]
    return out + (["ghz"] if l == 3 else [])


def random_doc(rng: np.random.Generator, pair_basis: str, n: int, l: int) -> dict:
    """Rule-valid spec document: distinct cells, not all in one row or column."""
    size = 1 << PAIR_QUBITS[pair_basis]
    while True:
        flat = rng.choice(size * size, size=n, replace=False)
        cells = [[int(c) // size + 1, int(c) % size + 1] for c in flat]
        if len({i for i, _ in cells}) > 1 and len({j for _, j in cells}) > 1:
            break
    family = str(rng.choice(families(l)))
    controller = {"family": family,
                  "subset": [int(k) for k in rng.choice(1 << l, size=n, replace=False)]}
    if family in ("computational", "hadamard-product"):
        controller["l"] = l
    phase_choices = (1, -1, [0, 1], [0, -1])
    phases = [phase_choices[int(k)] for k in rng.choice(4, size=n, p=(.4, .4, .1, .1))]
    return {"version": 1, "kind": "bcst", "pair_basis": pair_basis,
            "selection": cells, "phases": phases, "controller": controller}


def _write_doc(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def teleport(rng: np.random.Generator, workdir: Path, export) -> list[Op]:
    """`simulate` over the catalog and random Bell specs, n = 2..8, l = 1..3."""
    ops = []
    for k, (spec, trials) in enumerate(TELEPORT_EPOCH):
        if isinstance(spec, str):
            path = export(spec, workdir / f"{spec}.json")
        else:
            l, n = spec
            path = _write_doc(workdir / f"random-{k}.json", random_doc(rng, "bell", n, l))
        seed = str(int(rng.integers(2**31)))
        op = Op("simulate", ("simulate", path, "--seed", seed, "--trials", str(trials)),
                trials=trials)
        ops += [op] * (2 if spec in TELEPORT_TWICE else 1)
    return [ops[k] for k in rng.permutation(len(ops))]


def census(rng: np.random.Generator, workdir: Path, export) -> list[Op]:
    """`census p n` in the default mode at every size the exhaustive
    counters finish quickly; the seed sets the order."""
    ops = [Op("census", ("census", str(p), str(n)), expect=exact_census(p, n))
           for (p, n), copies in CENSUS_MIX.items() for _ in range(copies)]
    return [ops[k] for k in rng.permutation(len(ops))]


def roundtrip(rng: np.random.Generator, workdir: Path, export) -> list[Op]:
    """`build` then `recognize` per spec, plus Haar-random rejects.

    Bell-pair specs use l <= 3, GHZ-pair specs l <= 5 (up to 11 qubits).
    """
    units = []
    for k, (pair_basis, l, n) in enumerate(ROUNDTRIP_SPECS):
        doc = random_doc(rng, pair_basis, n, l)
        spec = _write_doc(workdir / f"spec-{k}.json", doc)
        amps_path = str(workdir / f"spec-{k}.amps")
        extra = ("--pair-basis", "ghz") if pair_basis == "ghz" else ()
        units.append([
            Op("build", ("build", spec, amps_path),
               expect=(amps_path, channel_amplitudes(doc))),
            Op("recognize", ("recognize", amps_path) + extra),
        ])
    for k, (pair_basis, l) in enumerate(ROUNDTRIP_REJECTS):
        dim = 1 << (2 * PAIR_QUBITS[pair_basis] + l)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        path = workdir / f"haar-{k}.amps"
        write_amplitudes(path, v / np.linalg.norm(v))
        extra = ("--pair-basis", "ghz") if pair_basis == "ghz" else ()
        units.append([Op("reject", ("recognize", str(path)) + extra)])
    return [op for k in rng.permutation(len(units)) for op in units[k]]


WORKLOADS = {"teleport": teleport, "census": census, "roundtrip": roundtrip}
