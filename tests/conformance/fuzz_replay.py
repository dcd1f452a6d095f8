"""``make fuzz-replay``: the conformance property test over 1 500 draws.

Replays ``test_trainer_step_matches_reference_for_any_architecture`` — its
own draws, its own assertions — over 1 500 ``random.Random(1)``
architectures, ``fused`` against ``numpy``; prints each case that differs
and exits non-zero if any does (tier-1 is derandomised and pins 12
examples, plus the cases this replay once found as ``@example``\\ s).
"""

from __future__ import annotations

import sys

from test_conformance_properties import (
    replay_cases,
    test_trainer_step_matches_reference_for_any_architecture as prop,
)


def main(cases: int = 1500, seed: int = 1) -> int:
    check = prop.hypothesis.inner_test  # the test body, without hypothesis
    differing = 0
    for i, (case, optimizer, batch_seed) in enumerate(replay_cases(cases, seed)):
        config, batch = case
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
