"""ROADMAP item 1's acceptance instrument (``make fuzz-replay``).

Replays ``test_trainer_step_matches_reference_for_any_architecture`` — its
own draws, its own assertions — over 1 500 ``random.Random(1)``
architectures, ``fused`` against ``numpy``; prints each case that differs
and exits non-zero if any does (tier-1 is derandomised and pins 12
examples).  Not a CI gate until item 1's fix lands: docs/perf_notes.md.
"""

from __future__ import annotations

import random
import sys

from test_conformance_properties import (
    MAX_SEED,
    OPTIMIZERS,
    draw_case,
    test_trainer_step_matches_reference_for_any_architecture as prop,
)


def main(cases: int = 1500, seed: int = 1) -> int:
    rng = random.Random(seed)
    check = prop.hypothesis.inner_test  # the test body, without hypothesis
    differing = 0
    for i in range(cases):
        config, batch = case = draw_case(rng.randint, rng.choice)
        optimizer, batch_seed = rng.choice(OPTIMIZERS), rng.randint(0, MAX_SEED)
        try:
            check(case, "fused", optimizer, batch_seed)
        except AssertionError as err:
            differing += 1
            print(
                f"case {i}: {config.interaction.name} {config.compute_dtype} batch {batch} "
                f"dim {config.embedding_dim} top {config.top_mlp.layer_sizes} {optimizer}:",
                " ".join(str(err).split())[:80] or "loss differs",
            )
    print(f"{differing} of {cases} fused runs differ from numpy")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
