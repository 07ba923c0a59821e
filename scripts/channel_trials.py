"""Draw random admissible channels and exercise them end to end.

For each drawn spec: build the channel, check which directions the
controller actually controls, then run seeded two-way teleportation trials
with Haar-random payloads and report the worst fidelity seen.  A spec's
trials are one batched `run_bcst` call; trial t of spec k draws its payloads
and outcomes from child t of child k of `SeedSequence(--seed)`.
Alternatively run a named catalog entry with --entry.
"""
import argparse

import numpy as np

from bcst import bcst_spec, controller_basis, run_bcst, validate_selection, verify_control
from bcst.catalog import entry
from bcst.qstate import random_state


def draw_spec(rng: np.random.Generator, n: int):
    """Rejection-sample a rule-respecting ordered selection, then dress it
    with a random controller family (one of the 2^l z/x axis products, or
    GHZ at l = 3), keyed subset and +-1 phases."""
    while True:
        cells = [(int(i), int(j)) for i, j in rng.integers(1, 5, size=(n, 2))]
        if len(set(cells)) == n and validate_selection(cells, 4) is None:
            break
    l = max(1, (n - 1).bit_length())
    k = int(rng.integers((1 << l) + (l == 3)))
    axes = "".join("zx"[int(b)] for b in format(k, f"0{l}b"))
    controller = controller_basis("ghz" if k >> l else f"axes:{axes}", l)
    subset = [int(k) for k in rng.choice(1 << l, size=n, replace=False)]
    phases = [int(s) for s in rng.choice([-1, 1], size=n)]
    return bcst_spec(cells, controller, subset=subset, phases=phases)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Random-channel teleportation trials"
    )
    parser.add_argument("--specs", type=int, default=5,
                        help="number of random channels to draw")
    parser.add_argument("--terms", type=int, default=2, choices=(2, 3, 4),
                        help="terms per channel")
    parser.add_argument("--trials", type=int, default=20,
                        help="teleportation trials per channel")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--entry", type=str, default=None,
                        help="run this catalog entry instead of random draws")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    if args.entry is not None:
        specs = [(args.entry, entry(args.entry).spec)]
    else:
        specs = [(f"random-{k}", draw_spec(rng, args.terms))
                 for k in range(args.specs)]

    spec_seeds = np.random.SeedSequence(args.seed).spawn(len(specs))
    for (name, spec), spec_seed in zip(specs, spec_seeds):
        control = verify_control(spec)
        rngs = [np.random.default_rng(c) for c in spec_seed.spawn(args.trials)]
        a, b = random_state(1, rngs), random_state(1, rngs)
        _, _, transcripts = run_bcst(spec, a, b, rng=rngs)
        worst = min(min(tr.fidelity_bob, tr.fidelity_alice) for tr in transcripts)
        cells = " ".join(f"({i},{j})" for i, j in spec.selection)
        print(f"{name}: cells {cells}  controller {spec.controller.name}  "
              f"control={control.sides}  worst fidelity {worst:.15f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
