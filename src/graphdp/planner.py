"""Workloads, staged plans and execution.

One workload class per kind holds only what its engine and tile read:
:class:`ApspWorkload` a weighted graph, a tile size and the matrix tile's
constants; :class:`S2gWorkload` a genome graph, reads batched once, a window
width, a mapping request and the traversal tile's constants.  Each refuses
what its engine cannot run with PlanError.  execute() runs a workload on its
engine and optionally attaches a cost report; lower() turns it into the plan
document: an ordered stage list that maps each phase of the device schedule
onto its tile.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar

from .apsp import choose_schedule, recursive_apsp
from .costmodel import (
    CostReport,
    HbmParams,
    PcmParams,
    model_recursive_apsp,
    model_traversal,
)
from .graphs import GenomeGraph, WeightedGraph, read_batches
from .partition import build_hierarchy
from .s2g import batch_align, batch_mapping

TILE_MATRIX = "matrix"
TILE_TRAVERSAL = "traversal"
TILE_HOST = "host"

K_PARTITION = "PartitionBuild"
K_FW_CLOSE = "FwClose"
K_BOUNDARY_FW = "BoundaryFw"
K_INJECT = "Inject"
K_MERGE = "Merge"
K_MASK = "MaskBuild"
K_ALIGN = "AlignBatch"

# which tile may run which stage kind
_TILE_OF = {
    K_PARTITION: TILE_HOST,
    K_FW_CLOSE: TILE_MATRIX,
    K_BOUNDARY_FW: TILE_MATRIX,
    K_INJECT: TILE_MATRIX,
    K_MERGE: TILE_MATRIX,
    K_MASK: TILE_HOST,
    K_ALIGN: TILE_TRAVERSAL,
}


class PlanError(ValueError):
    pass


@dataclass(frozen=True)
class ApspWorkload:
    """A distance closure over a weighted graph, on the matrix tile."""

    kind: ClassVar[str] = "apsp"
    graph: WeightedGraph
    max_tile: int = 1024
    pcm: PcmParams = field(default_factory=PcmParams)

    def __post_init__(self):
        if not isinstance(self.graph, WeightedGraph):
            raise PlanError("apsp workload needs a weighted graph")


@dataclass(frozen=True)
class S2gWorkload:
    """Reads aligned against a genome graph, on the traversal tile; ``batches``
    holds them as :func:`read_batches` makes them under ``mode``, so every
    read rule is checked at construction and a built workload always runs."""

    kind: ClassVar[str] = "s2g"
    graph: GenomeGraph
    reads: list
    W: int = 128
    mode: str = "auto"  # one of MAPPING_REQUESTS
    hbm: HbmParams = field(default_factory=HbmParams)
    batches: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.graph, GenomeGraph):
            raise PlanError("s2g workload needs a genome graph")
        if not self.reads:
            raise PlanError("s2g workload needs reads")
        seen = set()
        for rid, _ in self.reads:
            if rid in seen:
                raise PlanError(f"duplicate read id {rid!r}")
            seen.add(rid)
        if self.W < 1:
            raise PlanError(f"window width W={self.W} must be positive")
        # frozen, so the batches cannot go stale against reads or mode
        object.__setattr__(self, "batches", read_batches(self.reads, self.mode))


@dataclass
class Stage:
    id: str
    kind: str
    inputs: list
    outputs: list
    mapping: str | None = None

    @property
    def tile(self) -> str:
        """The tile that runs this kind of stage."""
        return _TILE_OF[self.kind]

    def _as_dict(self) -> dict:
        out = {
            "id": self.id,
            "kind": self.kind,
            "tile": self.tile,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
        }
        if self.mapping is not None:
            out["mapping"] = self.mapping
        return out


@dataclass
class ExecutionPlan:
    """The ordered stages of one workload; ``to_json`` is the plan document."""

    workload: ApspWorkload | S2gWorkload
    stages: list

    def validate(self) -> None:
        """Stage ids must be unique and dataflow acyclic (inputs precede)."""
        produced = {"graph", "reads"}
        seen = set()
        for st in self.stages:
            if st.id in seen:
                raise PlanError(f"duplicate stage id {st.id}")
            seen.add(st.id)
            for name in st.inputs:
                if name not in produced:
                    raise PlanError(f"stage {st.id}: input {name!r} never produced")
            produced.update(st.outputs)

    def counts(self) -> dict:
        out: dict[str, int] = {}
        for st in self.stages:
            out[st.kind] = out.get(st.kind, 0) + 1
        return out

    def to_json(self) -> str:
        doc = {
            "workload": self.workload.kind,
            "stages": [st._as_dict() for st in self.stages],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _lower_apsp(w: ApspWorkload) -> ExecutionPlan:
    """One matrix stage per event of the device schedule, plus one inject
    per level that re-closes; stage ids number each kind per level in event
    order.

    Data items: ``blocks.L{l}`` holds level l's closed components and
    ``closure.L{l}`` the closure over its boundary vertices, which the top
    closure or the merges one level up produce; ``injected.L{l}`` and
    ``reclosed.L{l}`` hold the blocks after injection and re-closure, and
    ``dist`` the dense result, which the direct schedule's one closure
    computes from the graph alone.
    """
    hier = build_hierarchy(w.graph, max_tile=w.max_tile)
    trace = choose_schedule(hier)
    stages = [Stage("s0.partition", K_PARTITION, ["graph"], ["hier"])]
    numbered: Counter = Counter()

    def add(kind, level, name, inputs, outputs):
        i = numbered[level, name]
        numbered[level, name] += 1
        stages.append(Stage(f"L{level}.{name}.{i}", kind, inputs, outputs))

    for ev in trace.fw_events:
        inputs = ["hier"] + ([f"blocks.L{ev.level - 1}"] if ev.level else [])
        if ev.kind == "close":
            add(K_FW_CLOSE, ev.level, "close", inputs, [f"blocks.L{ev.level}"])
        elif ev.kind == "top" and ev.level:
            add(K_BOUNDARY_FW, ev.level, "top", inputs, [f"closure.L{ev.level - 1}"])
        elif ev.kind == "top":  # direct: the whole graph in one closure
            add(K_BOUNDARY_FW, 0, "top", ["graph"], ["dist"])
    recloses = Counter(ev.level for ev in trace.fw_events if ev.kind == "reclose")
    merges = {li: len(trace.merge_passes(li)[0]) for li in trace.merge_levels}
    for li in range(trace.depth - 1, -1, -1):
        if not recloses[li]:
            continue
        # below an empty top, the upper level's blocks are this level's
        # boundary closure as they stand
        closure = (
            f"closure.L{li}"
            if li == trace.depth - 1 or li + 1 in merges
            else f"blocks.L{li + 1}"
        )
        add(K_INJECT, li, "inject", [closure, f"blocks.L{li}"], [f"injected.L{li}"])
        for _ in range(recloses[li]):
            add(K_FW_CLOSE, li, "reclose", [f"injected.L{li}"], [f"reclosed.L{li}"])
        merged = f"closure.L{li - 1}" if li else "dist"
        for _ in range(merges.get(li, 0)):
            add(K_MERGE, li, "merge", [f"reclosed.L{li}", closure], [merged])
    plan = ExecutionPlan(w, stages)
    plan.validate()
    return plan


def _lower_s2g(w: S2gWorkload) -> ExecutionPlan:
    """One align stage per read batch; a short batch maps onto grouped PEs,
    a long one onto one deep pipeline."""
    stages = [Stage("s0.masks", K_MASK, ["graph"], ["masks"])]
    for i, batch in enumerate(w.batches):
        stages.append(
            Stage(
                f"align.{batch.length_class}",
                K_ALIGN,
                ["graph", "reads", "masks"],
                [f"scores.{i}"],
                mapping=batch_mapping(batch.length_class),
            )
        )
    plan = ExecutionPlan(w, stages)
    plan.validate()
    return plan


def lower(w: ApspWorkload | S2gWorkload) -> ExecutionPlan:
    """Deterministic workload-to-plan lowering."""
    if w.kind == "apsp":
        return _lower_apsp(w)
    return _lower_s2g(w)


def execute(w: ApspWorkload | S2gWorkload, cost_model_on: bool = False) -> dict:
    """Run the workload on its engine.

    apsp closes the graph with :func:`recursive_apsp`; s2g aligns each read
    batch.  The cost model only reads traces, so toggling it cannot perturb
    results.
    """
    if w.kind == "apsp":
        res = recursive_apsp(w.graph, max_tile=w.max_tile)
        out = {"apsp": res}
        if cost_model_on:
            out["cost"] = model_recursive_apsp(res.trace, w.pcm)
        return out

    results = {}
    cost = CostReport()
    for batch in w.batches:
        aligned, bt = batch_align(w.graph, batch, W=w.W)
        results.update(zip(bt.read_ids, aligned))
        if cost_model_on:
            cost = cost + model_traversal(bt, w.hbm)
    out = {"s2g": results}
    if cost_model_on:
        out["cost"] = cost
    return out
