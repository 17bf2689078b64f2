"""The four benchmark workloads and the trial grids they generate.

A workload's inputs are *chunks*: small :class:`ExperimentSpec` grids.
Chunk ``c`` is a pure function of ``c`` (its replicate seeds are
``c * R .. c * R + R - 1``), and the digests of every chunk of the
workload's universe ``0 .. chunks - 1`` are stored in
``perfbench/digests.json``.  The ``--seed`` of a run only picks the
chunks of its *pass* (:meth:`Workload.pass_for`), so two seeds see
different grids and every run of every seed is checked against stored
records.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.runner import ExperimentSpec

ChunkFn = Callable[[int], list[ExperimentSpec]]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``chunk``/``tiny`` build a chunk's grids at full size and as the
    tiny preset the self-tests run; ``chunks`` is the size of the
    digested universe, of which a run's pass draws ``pass_chunks``.
    ``backend``/``workers`` select how the timed sweep executes; a
    non-serial sweep writes into a fresh result store and takes its
    per-trial latency from a serial pass over its first
    ``latency_chunks`` chunks.  The first ``store_chunks`` chunks fill
    the store that is re-swept and queried (grouped by ``group_by``).
    """

    name: str
    chunk: ChunkFn
    tiny: ChunkFn
    chunks: int
    pass_chunks: int
    store_chunks: int
    group_by: tuple[str, ...]
    latency_chunks: int = 0
    backend: str = "serial"
    workers: int = 1

    def pass_for(self, seed: int) -> list[int]:
        """The ``pass_chunks`` distinct chunks of ``seed``'s pass."""
        rng = random.Random(f"perfbench/{self.name}/{seed}")
        return rng.sample(range(self.chunks), self.pass_chunks)

    def specs(self, chunk_id: int, tiny: bool = False) -> list[ExperimentSpec]:
        """The grids of chunk ``chunk_id`` (or of its tiny preset)."""
        return (self.tiny if tiny else self.chunk)(chunk_id)


# ----------------------------------------------------------------------
# known_walk: serial gather_known, the planner and route-cache workload.
# ----------------------------------------------------------------------

_KNOWN_FAMILIES = (
    ("ring", (10, 12)),
    ("torus", (9, 12)),
    ("random_regular", (10, 12)),
)


def _known_walk(c: int, families=_KNOWN_FAMILIES) -> list[ExperimentSpec]:
    return [
        ExperimentSpec(
            algorithm="gather_known",
            family=family,
            sizes=sizes,
            label_sets=((1, 2), (3, 5)),
            placements=("spread", "eccentric"),
            seeds=(c,),
        )
        for family, sizes in families
    ]


def _known_walk_tiny(c: int) -> list[ExperimentSpec]:
    return [
        ExperimentSpec(
            algorithm="gather_known",
            family=family,
            sizes=(sizes[0],),
            label_sets=((1, 2),),
            placements=("spread",),
            seeds=(c,),
        )
        for family, sizes in _KNOWN_FAMILIES
    ]


# ----------------------------------------------------------------------
# talking_sweep: the talking baseline, 4 placements per (size, seed)
# graph, pipelined over two workers into a result store.
# ----------------------------------------------------------------------

_TALKING_SEEDS = 64

# Replicate seed 2503 (in chunk 39) draws a 12-node 3-regular graph that
# the sampled N=12 exploration sequence does not cover.  The pre-flight
# rejects such a graph by design (UniversalityError, see
# repro.explore.uxs), so the universe steps over that chunk; no other
# chunk below 100 draws one.
_TALKING_REJECTED_CHUNK = 39


def _talking(c: int, seeds: int = _TALKING_SEEDS) -> list[ExperimentSpec]:
    c += c >= _TALKING_REJECTED_CHUNK
    return [
        ExperimentSpec(
            algorithm="talking",
            family="random_regular",
            sizes=(8, 12),
            label_sets=((1, 2),),
            placements=("default", "spread", "eccentric", "random"),
            seeds=tuple(range(c * seeds, c * seeds + seeds)),
        )
    ]


# ----------------------------------------------------------------------
# unknown_events: serial gather_unknown on the single edge; per-event
# resumes with astronomically large integer clocks.
# ----------------------------------------------------------------------

_UNKNOWN_SEEDS = 4


def _unknown_wakes(c: int) -> tuple[str, ...]:
    # Two staggered gaps per chunk, so chunks differ in the simulated
    # schedule and not only in their replicate seeds (the edge has a
    # single port labeling).
    return (
        "simultaneous",
        f"staggered:{1 + c % 40}",
        f"staggered:{41 + (7 * c) % 40}",
    )


def _unknown(c: int, seeds: int = _UNKNOWN_SEEDS) -> list[ExperimentSpec]:
    return [
        ExperimentSpec(
            algorithm="gather_unknown",
            family="edge",
            sizes=(2,),
            label_sets=((1, 2), (2, 3), (1, 3)),
            wake_schedules=_unknown_wakes(c),
            seeds=tuple(range(c * seeds, c * seeds + seeds)),
        )
    ]


# ----------------------------------------------------------------------
# dynamic_faults: serial gather_known on rings with moving blocked
# edges, crossed with crash faults; the scalar-planner workload.
# ----------------------------------------------------------------------

_DYNAMIC_SEEDS = 3


def _dynamic(c: int, seeds: int = _DYNAMIC_SEEDS,
             sizes=(8, 10)) -> list[ExperimentSpec]:
    return [
        ExperimentSpec(
            algorithm="gather_known",
            family="ring",
            sizes=sizes,
            label_sets=((1, 2),),
            faults=("none", "crash-random:1:200"),
            dynamics=("ring-sweep",),
            seeds=tuple(range(c * seeds, c * seeds + seeds)),
        )
    ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="known_walk",
            chunk=_known_walk,
            tiny=_known_walk_tiny,
            chunks=64,
            pass_chunks=4,
            store_chunks=4,
            group_by=("family", "n", "placement"),
        ),
        Workload(
            name="talking_sweep",
            chunk=_talking,
            tiny=lambda c: _talking(c, seeds=2),
            chunks=64,
            pass_chunks=4,
            store_chunks=1,
            latency_chunks=1,
            group_by=("n", "placement"),
            backend="pipelined",
            workers=2,
        ),
        Workload(
            name="unknown_events",
            chunk=_unknown,
            tiny=lambda c: _unknown(c, seeds=1),
            chunks=64,
            pass_chunks=4,
            store_chunks=4,
            group_by=("labels", "wake_schedule"),
        ),
        Workload(
            name="dynamic_faults",
            chunk=_dynamic,
            tiny=lambda c: _dynamic(c, seeds=1, sizes=(8,)),
            chunks=64,
            pass_chunks=6,
            store_chunks=6,
            group_by=("n", "faults"),
        ),
    )
}
