"""Seeded workload generation: the program receives only these specs.

Every workload is a pure function of ``--seed``.  The seed varies what
does not change the amount of work: iteration counts by one, system
seeds, which nodes join and leave, which scenarios are cached or
repeated, and the order.  Different seeds therefore give different
inputs (different digests) with the same *mix* of work, which keeps the
end-to-end figures comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

#: Modelled runtime (simulated seconds) of each adapt-materialized kernel
#: configuration without events; event times are fractions of it.  These
#: are inputs, fixed here, not measured from the program under test.
ADAPT_KERNELS: Tuple[Tuple[str, dict, float], ...] = (
    ("jacobi", {"n": 256, "iterations": 6}, 1.08),
    ("gauss", {"n": 128, "iterations": 48}, 2.34),
    ("fft3d", {"nx": 16, "ny": 16, "nz": 16, "iterations": 32}, 0.89),
    ("nbf", {"natoms": 2048, "npartners": 8, "iterations": 100}, 0.89),
)
ADAPT_TEAM = 8
ADAPT_SPARES = 2
#: Modelled runtime of Gauss n=128 on 4 nodes + 2 spares, materialized.
DEFECT_GAUSS_T = 2.91

#: sweep-cold: tiny presets, node counts 2..8, fixed multiset per kernel.
SWEEP_KERNELS = ("jacobi", "gauss", "fft3d", "nbf")
SWEEP_NODES = (2, 3, 4, 5, 6, 7, 8, 2, 5, 8)
#: Per kernel, node-count bands of the pre-cached scenarios (one each) and
#: of the scenarios that appear twice: 12 cache reads and 8 repeats.
SWEEP_CACHED_BANDS = ((2, 3, 4), (5, 6), (7, 8))
SWEEP_REPEAT_BANDS = ((2, 3, 4), (7, 8))


@dataclass(frozen=True)
class Workload:
    #: Scenario list of one pass, in run order.
    specs: list
    #: sweep-cold only: indexes into ``specs`` stored in the cache first.
    precached: Tuple[int, ...] = ()


def wide_barrier(seed: int) -> Workload:
    """Gauss, traced mode, 32 and 64 nodes, no adaptation."""
    from repro.api import ScenarioSpec

    rng = random.Random(f"wide-barrier/{seed}")
    specs = []
    for nprocs, iterations in ((32, 95), (64, 47)):
        specs.append(ScenarioSpec(
            kernel="gauss",
            params={"n": 192, "iterations": iterations + rng.randint(-1, 1)},
            nprocs=nprocs, calibrated=True, seed=rng.randrange(1 << 30),
            label=f"gauss-{nprocs}",
        ))
    return Workload(specs)


def adapt_materialized(seed: int) -> Workload:
    """Materialized kernels on 8 nodes + 2 spares, one scripted event class
    per scenario: join, normal leave, urgent leave (grace 0), crash with
    checkpoints every T/5 and failure detection.

    The seed picks the nodes that join and leave.  Event times are fixed
    fractions of T, and the crash always hits node 1: crash outcomes are
    chaotic in the crash time and depend on the crashed node (on Gauss,
    nodes 1-4 return a wrong matrix and nodes 5-7 verify), so seeding
    them would make the failure count depend on the seed more than on
    the program.  Two more scenarios reproduce the known recovery
    defects on a 4-node Gauss team (README, known failures).
    """
    from repro.api import AdaptEvent, ScenarioSpec

    rng = random.Random(f"adapt-materialized/{seed}")
    specs = []
    for kernel, params, T in ADAPT_KERNELS:
        base = ScenarioSpec(
            kernel=kernel, params=params, nprocs=ADAPT_TEAM, calibrated=True,
            adaptive=True, materialized=True, extra_nodes=ADAPT_SPARES,
        )
        scripts = (
            ("join", AdaptEvent("join", round(0.05 * T, 6),
                                ADAPT_TEAM + rng.randrange(ADAPT_SPARES)), {}),
            ("leave", AdaptEvent("leave", round(0.35 * T, 6),
                                 rng.randrange(1, ADAPT_TEAM)), {}),
            ("urgent", AdaptEvent("leave", round(0.35 * T, 6),
                                  rng.randrange(1, ADAPT_TEAM), grace=0.0), {}),
            ("crash", AdaptEvent("crash", round(0.45 * T, 6), 1),
             {"checkpoint_interval": round(T / 5, 6),
              "failure_detection": True}),
        )
        for script, event, extra in scripts:
            specs.append(base.replaced(
                events=(event,), label=f"{kernel}-{script}-n{event.node}",
                **extra))
    # Gauss n=128 on 4 nodes + 2 spares, checkpoints every T/5: a crash at
    # 0.55 T fails recovery with a NetworkError, one at 0.6 T never ends.
    T = DEFECT_GAUSS_T
    for frac in (0.55, 0.6):
        specs.append(ScenarioSpec(
            kernel="gauss", params={"n": 128}, nprocs=4, calibrated=True,
            adaptive=True, materialized=True, extra_nodes=ADAPT_SPARES,
            events=(AdaptEvent("crash", round(frac * T, 6)),),
            checkpoint_interval=round(T / 5, 6), failure_detection=True,
            label=f"gauss4-crash-{frac}T",
        ))
    return Workload(specs)


def sweep_cold(seed: int) -> Workload:
    """Many tiny traced scenarios through the pool into a fresh cache.

    Per kernel, the seed picks the 3 pre-cached scenarios (one per node
    band) and the 2 repeated ones (one small, one large team), so every
    seed caches and repeats the same amount of work.
    """
    from repro.api import spec_from_preset

    rng = random.Random(f"sweep-cold/{seed}")
    distinct, cached, repeated = [], [], []
    for kernel in SWEEP_KERNELS:
        nodes = list(SWEEP_NODES)
        rng.shuffle(nodes)
        base = len(distinct)
        for k, nprocs in enumerate(nodes):
            distinct.append(spec_from_preset(
                "tiny", kernel, nprocs, calibrated=True,
                seed=rng.randrange(1 << 30), label=f"{kernel}-{nprocs}-{k}",
            ))
        free = list(range(len(nodes)))
        for bands, chosen in ((SWEEP_CACHED_BANDS, cached),
                              (SWEEP_REPEAT_BANDS, repeated)):
            for band in bands:
                k = rng.choice([k for k in free if nodes[k] in band])
                free.remove(k)
                chosen.append(base + k)
    order = list(range(len(distinct)))
    rng.shuffle(order)
    # a repeat comes after its first occurrence; both copies miss and run
    for i in repeated:
        order.insert(rng.randrange(order.index(i) + 1, len(order) + 1), i)
    specs: List = [distinct[i] for i in order]
    precached = tuple(k for k, i in enumerate(order) if i in cached)
    return Workload(specs, precached)


WORKLOADS = {
    "wide-barrier": wide_barrier,
    "adapt-materialized": adapt_materialized,
    "sweep-cold": sweep_cold,
}
