#!/usr/bin/env python
"""Watch the hot/cold classifier track the paper's Figure 3 patterns.

Renders the classifier's per-block decision as an ASCII heat map over a
2-D domain while two access patterns play out:

1. a hot region that appears, persists, and goes cold (temporal
   locality + spatial neighbourhood promotion — Figure 3a);
2. rotating subdomains with a fixed period (the multi-timestep lookahead
   converting blocks to hot *before* their writes — Figure 3b).

Legend: ``#`` written this step, ``+`` classified hot (not written),
``.`` cold.

Run:  python examples/classifier_visualization.py
"""

from repro.core.classifier import ClassifierConfig, HotColdClassifier
from repro.staging.domain import BBox, Domain

GRID = (8, 8)          # 8x8 blocks
DOMAIN = Domain((32, 32), (4, 4))


def render(domain, clf, written, step) -> str:
    rows = []
    for y in range(domain.blocks_per_dim[0]):
        cells = []
        for x in range(domain.blocks_per_dim[1]):
            bid = domain.block_id((y, x))
            if bid in written:
                cells.append("#")
            elif clf.is_hot(("v", bid), step):
                cells.append("+")
            else:
                cells.append(".")
        rows.append(" ".join(cells))
    return "\n".join(rows)


def play(title, writes_for_step, steps, config) -> None:
    print(f"\n=== {title} ===")
    clf = HotColdClassifier(DOMAIN, config)
    for step in range(steps):
        written = set(writes_for_step(step))
        for bid in written:
            clf.record_write(("v", bid), step)
        clf.advance(step)
        print(f"\nstep {step}:")
        print(render(DOMAIN, clf, written, step))


def hot_region_writes(step):
    """Figure 3a: a region gets hot at step 1, grows, then goes cold."""
    if step == 0:
        return [DOMAIN.block_id((y, x)) for y in range(8) for x in range(8)]
    if 1 <= step <= 3:
        # region {(2,2)..(4,4)} written repeatedly
        return [DOMAIN.block_id((y, x)) for y in range(2, 5) for x in range(2, 5)]
    if step == 4:
        return [DOMAIN.block_id((2, 2))]  # a corner revisit
    return []  # everything cools down


def rotating_writes(step):
    """Figure 3b: four vertical slabs written in rotation (period 4)."""
    slab = step % 4
    return [
        DOMAIN.block_id((y, x))
        for y in range(8)
        for x in range(slab * 2, slab * 2 + 2)
    ]


def main() -> None:
    play(
        "Figure 3a: spatial + temporal locality of a hot region",
        hot_region_writes,
        steps=7,
        config=ClassifierConfig(hot_window_steps=2, spatial_radius=1, spatial_ttl_steps=1),
    )
    play(
        "Figure 3b: rotating subdomains and the periodic lookahead",
        rotating_writes,
        steps=15,
        config=ClassifierConfig(hot_window_steps=1, spatial_radius=0, temporal_lookahead=True),
    )
    print("\nIn 3b, from step ~11 the *next* slab lights up '+' one step before")
    print("its writes arrive: the lookahead has learned the period-4 rotation.")


if __name__ == "__main__":
    main()
