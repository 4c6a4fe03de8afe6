"""Cycle, energy, and traffic models of the two accelerator tiles.

Matrix tile: crossbar units run Floyd-Warshall pivots (bit-serial add and
subtract-compare, a burst-pipelined permutation engine) and min-plus merge
reductions (a fixed-depth comparator tree).  Traversal tile: PE groups over
banked shared SRAM fed by HBM, with state spills once the per-read working
set outgrows the SRAM.

Everything here is an analytic model over execution traces; nothing feeds
back into functional results.  Reports carry a nested phase breakdown and
serialize to JSON (nested) or CSV (one row per phase).
"""

from __future__ import annotations

import heapq
import json
import math
import operator
from dataclasses import dataclass, field, fields, replace
from functools import reduce

import numpy as np

from .apsp import ExecutionTrace, schedule
from .graphs import WeightedGraph, length_class
from .partition import PartitionHierarchy, _structural_graph, build_hierarchy
from .s2g import MODE_LONG, BatchTrace, batch_mapping, classify_self_hop

MP_TREE_INPUTS = 1024  # comparator tree width is a fixed structure
DEFAULT_IMPROVE_FRAC = 0.1  # assumed strict-improvement rate
KNUTH_HASH = 2654435761
LINE_BYTES = 64


class ModelError(ValueError):
    pass


class CapacityError(ModelError):
    pass


class ValidationError(ModelError):
    pass


def _check_constants(params) -> None:
    """Refuse a device constant that is NaN, not positive or infinite, as
    the models divide by rates, widths and counts, and a count (a field
    typed ``int``) that is not an integer."""
    for f in fields(params):
        v = getattr(params, f.name)
        if f.type == "int" and type(v) is not int:  # a bool is no count
            raise ValidationError(f"{f.name} must be an integer")
        if not 0 < v < math.inf:
            raise ValidationError(f"{f.name} must be positive and finite")


@dataclass
class PcmParams:
    """Matrix-tile device constants (crossbar storage + bit-serial logic)."""

    read_energy_pj: float = 0.05
    write_energy_pj: float = 0.56
    clock_hz: float = 500e6
    unit_dim: int = 1024
    units_per_tile: int = 130
    tiles_per_die: int = 128
    bits: int = 32
    add_cycles_per_bit: float = 2
    sub_cycles_per_bit: float = 2
    freq_derate_alpha: float = 1.3
    burst_rows: int = 32  # permutation DMA burst height
    merge_drain_lanes: int = 13312  # die-level merge drain width, rows in flight
    hbm_bandwidth: float = 819.2e9  # B/s, staging stream

    def __post_init__(self):
        _check_constants(self)
        if self.unit_dim & (self.unit_dim - 1):
            raise ValidationError("unit_dim must be a power of two")

    @property
    def total_units(self) -> int:
        return self.units_per_tile * self.tiles_per_die

    def derate(self, dim: int) -> float:
        """Clock multiplier: RC-limited slowdown beyond the 1024 design point."""
        if dim <= 1024:
            return 1.0
        return (dim / 1024.0) ** (-self.freq_derate_alpha)


@dataclass
class HbmParams:
    """Traversal-tile device constants (PEs, banked SRAM, HBM channels)."""

    channels: int = 16
    read_energy_pj: float = 0.4
    write_energy_pj: float = 0.45
    access_latency_ns: float = 15.0  # midpoint of the 10-20 ns range
    pe_per_pu: int = 64
    shared_sram_bytes: int = 262144
    sram_banks: int = 32
    bank_access_cycles: float = 1
    pe_clock_hz: float = 1e9
    hbm_bandwidth: float = 819.2e9  # B/s aggregate
    stream_efficiency: float = 0.5  # strided CSR bursts half-fill lines

    def __post_init__(self):
        _check_constants(self)
        if self.sram_banks & (self.sram_banks - 1):
            raise ValidationError("sram_banks must be a power of two")
        if self.sram_banks > 1 << 32:  # the bank hash has 32 bits
            raise ValidationError("sram_banks must be at most 2^32")

    @property
    def bw_per_pu(self) -> float:
        return self.hbm_bandwidth / self.channels


# the CostReport fields that add up, in constructor order
_SUMMED = ("cycles", "wall_time_s", "energy_j", "hbm_bytes_regular",
           "hbm_bytes_irregular", "pcm_writes")


@dataclass
class CostReport:
    cycles: float = 0.0
    wall_time_s: float = 0.0
    energy_j: float = 0.0
    hbm_bytes_regular: float = 0.0
    hbm_bytes_irregular: float = 0.0
    pcm_writes: float = 0.0
    utilization: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in _SUMMED:
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")

    def __add__(self, other: "CostReport") -> "CostReport":
        return _report_sum([self, other])

    def _as_dict(self) -> dict:
        out = {
            "cycles": self.cycles,
            "ns": self.wall_time_s * 1e9,
            "pJ": self.energy_j * 1e12,
            "bytes_regular": self.hbm_bytes_regular,
            "bytes_irregular": self.hbm_bytes_irregular,
            "writes": self.pcm_writes,
        }
        if self.utilization:
            out["utilization"] = dict(sorted(self.utilization.items()))
        if self.phases:
            out["phases"] = {k: v._as_dict() for k, v in sorted(self.phases.items())}
        return out

    def to_json(self) -> str:
        return json.dumps(self._as_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        cols = "phase,cycles,ns,pJ,bytes_regular,bytes_irregular,writes"
        rows = [cols]

        def emit(name, rep):
            rows.append(
                f"{name},{rep.cycles:.6g},{rep.wall_time_s * 1e9:.6g},"
                f"{rep.energy_j * 1e12:.6g},{rep.hbm_bytes_regular:.6g},"
                f"{rep.hbm_bytes_irregular:.6g},{rep.pcm_writes:.6g}"
            )
            for sub, subrep in sorted(rep.phases.items()):
                emit(f"{name}.{sub}", subrep)

        for k, v in sorted(self.phases.items()):
            emit(k, v)
        emit("total", replace(self, phases={}))
        return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# Matrix tile: Floyd-Warshall block closure
# ---------------------------------------------------------------------------


def model_fw_block(dim: int, p: PcmParams | None = None) -> CostReport:
    """One crossbar unit closing a dim x dim block over all ``dim`` pivots.

    Per pivot: one bit-serial add (operand row + column), one subtract-
    compare against the incumbent, and a burst-pipelined permutation pass
    over all rows.  Energy convention per pivot: three full-block operand
    streams are read (two add inputs and the incumbent); only strict
    improvements are written, estimated at DEFAULT_IMPROVE_FRAC of the cells.
    """
    p = p or PcmParams()
    if dim > p.unit_dim:
        raise CapacityError(f"block dim {dim} exceeds unit dim {p.unit_dim}")
    if dim < 0:
        raise ValidationError("negative dimension")
    if dim == 0:
        return CostReport()

    add_c = p.add_cycles_per_bit * p.bits
    sub_c = p.sub_cycles_per_bit * p.bits
    # pipelined bursts: a 1-cycle read and a 10-cycle write each
    perm_c = math.ceil(dim / p.burst_rows) * (1 + 10)
    cycles = dim * (add_c + sub_c + perm_c)
    clock = p.clock_hz * p.derate(dim)
    wall = cycles / clock

    improved = int(dim * dim * dim * DEFAULT_IMPROVE_FRAC)
    read_bits = 3.0 * dim * dim * dim * p.bits
    write_bits = float(improved) * p.bits
    energy = (read_bits * p.read_energy_pj + write_bits * p.write_energy_pj) * 1e-12

    def sub(cyc, en, writes=0.0):
        return CostReport(cyc, cyc / clock, en, pcm_writes=writes)

    read_e = read_bits * p.read_energy_pj * 1e-12
    write_e = write_bits * p.write_energy_pj * 1e-12
    return CostReport(
        cycles=cycles,
        wall_time_s=wall,
        energy_j=energy,
        pcm_writes=float(improved),
        phases={
            "add": sub(dim * add_c, read_e * 2 / 3),
            "subtract": sub(dim * sub_c, read_e / 3 + write_e, float(improved)),
            "permute": sub(dim * perm_c, 0.0),
        },
    )


def model_mp_merge(rows: int, width: int, p: PcmParams | None = None) -> CostReport:
    """Min-plus merge rows through the fixed comparator tree.

    The tree reduces up to 1024 candidates per row on a fixed 1/6/6 schedule
    (stream-in, compare levels, drain), 13 cycles per row regardless of how
    many of its inputs are populated.  Two bit-serial add phases form the
    candidates before reduction.  One result per row is written back.
    """
    p = p or PcmParams()
    if width > MP_TREE_INPUTS:
        raise CapacityError(f"merge width {width} exceeds {MP_TREE_INPUTS}")
    if rows < 0 or width < 0:
        raise ValidationError("negative merge shape")
    if rows == 0:
        return CostReport()
    clock = p.clock_hz
    add_c = p.add_cycles_per_bit * p.bits
    reduce_cycles = rows * 13
    add_cycles = rows * add_c

    read_bits = 3.0 * rows * width * p.bits  # three operand streams
    write_bits = float(rows) * p.bits  # one masked result per row
    read_e = read_bits * p.read_energy_pj * 1e-12
    write_e = write_bits * p.write_energy_pj * 1e-12

    def sub(cyc, en, writes=0.0):
        return CostReport(cyc, cyc / clock, en, pcm_writes=writes)

    total = reduce_cycles + 2 * add_cycles
    return CostReport(
        cycles=total,
        wall_time_s=total / clock,
        energy_j=read_e + write_e,
        pcm_writes=float(rows),
        phases={
            "add1": sub(add_cycles, read_e / 2),
            "add2": sub(add_cycles, read_e / 2),
            "reduce": sub(reduce_cycles, write_e, float(rows)),
        },
    )


def _mp_split(rows: int, width: int, p: PcmParams) -> CostReport:
    """Merge with widths beyond the tree folded into extra partial rows."""
    if width <= MP_TREE_INPUTS:
        return model_mp_merge(rows, width, p)
    parts = math.ceil(width / MP_TREE_INPUTS)
    partial = model_mp_merge(rows * parts, MP_TREE_INPUTS, p)
    combine = model_mp_merge(rows, parts, p)
    return partial + combine


def _blocked_fw(dim: int, p: PcmParams) -> CostReport:
    """Oversized closure decomposed into unit-sized block operations.

    nb = ceil(dim/unit) pivot rounds; each round touches nb^2 blocks which
    spread over the available units.
    """
    nb = math.ceil(dim / p.unit_dim)
    per_block = model_fw_block(p.unit_dim, p=p)
    waves = nb * math.ceil(nb * nb / p.total_units)
    energy_scale = nb**3 / max(1, waves)
    cycles = per_block.cycles * waves
    return CostReport(
        cycles=cycles,
        wall_time_s=per_block.wall_time_s * waves,
        energy_j=per_block.energy_j * waves * energy_scale,
        pcm_writes=per_block.pcm_writes * nb**3,
    )


def _fw_cost(dim: int, p: PcmParams) -> CostReport:
    """One closure event: blocked past the unit dimension, one block within."""
    return _blocked_fw(dim, p) if dim > p.unit_dim else model_fw_block(dim, p=p)


_NO_PHASE = CostReport()


def _report_sum(reps: list) -> CostReport:
    """``reps[0] + reps[1] + ...``: each field, and each phase by name, adds
    left to right in list order, so one call gives the chain's floats and
    ints without building its intermediate reports.  Equal event shapes
    share one report, so each distinct report is read once and the folds
    index the distinct reports by position."""
    pos: dict = {}
    order = np.array([pos.setdefault(id(r), len(pos)) for r in reps], dtype=np.int64)
    return _fold(list({id(r): r for r in reps}.values()), order)


def _fold(uniq: list, order: np.ndarray) -> CostReport:
    """The sum of ``uniq[i] for i in order``, as :func:`_report_sum` adds it.

    A field whose first value is a float adds as a float64 at every step,
    and ``np.cumsum`` makes the same adds in the same order; any other
    field adds as Python numbers, so ints stay exact.  A phase folds the
    reports that have it, in the same order."""
    rows = [[getattr(r, f) for f in _SUMMED] for r in uniq]
    wide = np.cumsum(np.array(rows, dtype=np.float64)[order], axis=0)[-1].tolist()
    sums = [
        wide[j] if type(first) is float
        else reduce(operator.add, np.array([row[j] for row in rows], dtype=object)[order])
        for j, first in enumerate(rows[order[0]])
    ]
    phases = {}
    for k in dict.fromkeys(k for r in uniq for k in r.phases):
        # a report without the phase holds an empty place that no index reads
        subs = [r.phases.get(k, _NO_PHASE) for r in uniq]
        has = np.array([k in r.phases for r in uniq])
        phases[k] = _fold(subs, order[has[order]])
    return CostReport(*sums, phases=phases)


def _makespan(durations: list, workers: int) -> float:
    """LPT greedy schedule length for independent tasks: longest first,
    each onto the least-loaded worker."""
    loads = [0.0] * min(workers, len(durations))
    for d in sorted(durations, reverse=True):
        heapq.heapreplace(loads, loads[0] + d)
    return max(loads, default=0.0)


def _priced(trace: ExecutionTrace, p: PcmParams) -> tuple:
    """Each distinct shape's report, priced once, with the :func:`_fold`
    order of its uses in schedule order: ``(reports, order)`` over the fw
    events' dimensions, and per merging level ``(rows, reports, order)``
    over its passes' shapes, ``rows`` as :meth:`ExecutionTrace.merge_passes`."""
    dims, fw_order = np.unique([ev.dim for ev in trace.fw_events], return_inverse=True)
    merges = {}
    for level in trace.merge_levels:
        rows, widths = trace.merge_passes(level)
        # rows are at most tile^2 and widths tile: the key fits below 2^63
        key = (rows * (int(widths.max()) + 1) + widths).ravel()
        _, first, order = np.unique(key, return_index=True, return_inverse=True)
        shapes = zip(rows.ravel()[first].tolist(), widths.ravel()[first].tolist())
        merges[level] = rows, [_mp_split(r, w, p) for r, w in shapes], order
    return ([_fw_cost(d, p) for d in dims.tolist()], fw_order), merges


def model_recursive_apsp(
    trace: ExecutionTrace, p: PcmParams | None = None
) -> CostReport:
    """Schedule a recursive-closure trace onto the matrix die.

    Per level: component closures run concurrently across units (parallel
    max over an LPT schedule); the top closure and per-level merges follow.
    Boundary-matrix staging between levels streams at HBM bandwidth and
    overlaps compute (latency takes the max); the base level is assumed
    warm in the crossbars.  Energies and byte counters are summed.  A
    closure wider than the unit is priced as a blocked closure, as the tile
    sweep prices it.  Events are priced by :func:`_priced`; each phase sums
    its events' fields in event order, and the total sums the phases in
    phase order, as a chain of ``+`` would.
    """
    p = p or PcmParams()
    if not isinstance(trace, ExecutionTrace):
        raise ValidationError("model_recursive_apsp needs an ExecutionTrace")
    U = p.total_units
    (fw_uniq, fw_order), merges = _priced(trace, p)
    fw_groups: dict = {}
    for ev, i in zip(trace.fw_events, fw_order.tolist()):
        if ev.dim > 0 or ev.kind == "top":
            fw_groups.setdefault((ev.level, ev.kind), []).append(fw_uniq[i])

    # each phase's report carries its latency as its wall time
    phases = {}
    for (level, kind), reps in sorted(fw_groups.items()):
        if kind == "top":
            phases["top.fw"] = reps[0]
            continue
        span = _makespan([r.wall_time_s for r in reps], U)
        rep = replace(_report_sum([CostReport(), *reps]), wall_time_s=span)
        phases[f"level{level}.{kind}"] = rep
    for level, (rows, reps, order) in sorted(merges.items()):
        span = _makespan(np.array([r.wall_time_s for r in reps])[order].tolist(), U)
        reps, order = [CostReport(), *reps], np.concatenate([[0], order + 1])
        if level >= 1:
            # each merge stages its s1 x s2 result block, added in order
            stage_bytes = float(np.cumsum(rows[:, 1] * (p.bits // 8), dtype=float)[-1])
            reps.append(CostReport(hbm_bytes_regular=stage_bytes))
            order = np.append(order, len(reps) - 1)
            span = max(span, stage_bytes / p.hbm_bandwidth)
        phases[f"level{level}.merge"] = replace(_fold(reps, order), wall_time_s=span)
    if trace.inject_pairs:
        cyc = math.ceil(trace.inject_pairs / 32) * 10
        phases["inject"] = CostReport(
            cycles=cyc,
            wall_time_s=cyc / p.clock_hz,
            energy_j=trace.inject_pairs * p.bits * p.write_energy_pj * 1e-12,
            pcm_writes=float(trace.inject_pairs),
        )

    total = _report_sum([CostReport(), *phases.values()])
    wall = total.wall_time_s
    busy = sum(r.cycles for r in phases.values())
    return replace(
        total,
        cycles=wall * p.clock_hz,
        utilization={"units": busy / (wall * p.clock_hz * U) if wall else 0.0},
        phases=phases,
    )


# ---------------------------------------------------------------------------
# Traversal tile
# ---------------------------------------------------------------------------


# short mode places one read on each PE, in groups of this many PEs that
# share one stream of the topology (the default 64 PEs make 16 groups)
SHORT_GROUP_PES = 4


def working_set_bytes(nodes: int, W: int) -> int:
    """Per-read live state in shared SRAM: one W-bit word per node.

    Carries ride in the per-PE register file and bookkeeping in the
    scratchpad, so the banked SRAM holds exactly the state words."""
    return nodes * (W // 8)


def _bank_conflict_cycles(g, h: HbmParams) -> float:
    """Per-sweep PE cycles: Self nodes forward in one cycle, Hop nodes
    serialize on the worst-hit SRAM bank of their predecessor reads."""
    banks = (np.arange(g.n, dtype=np.uint64) * KNUTH_HASH % (1 << 32)) % h.sram_banks
    node = np.repeat(np.arange(g.n), np.diff(g.pred_ptr))
    # sorted (node, bank) keys of every predecessor read; lexsort is the
    # sort genome_graph already ran (np.unique's adds ~0.4 MiB of peak RSS)
    key = node * h.sram_banks + banks[g.pred_idx].astype(np.int64)
    key = key[np.lexsort((key,))]
    # a run of equal keys is one node's hits on one bank
    run = np.flatnonzero(np.diff(key, prepend=-1))
    hits = np.diff(run, append=key.size)
    run_node = key[run] // h.sram_banks
    first = np.flatnonzero(np.diff(run_node, prepend=-1))
    worst = np.zeros(g.n, dtype=np.int64)
    worst[run_node[first]] = np.maximum.reduceat(hits, first)
    hop = (worst > 0) & ~classify_self_hop(g)
    cycles = np.ones(g.n)
    cycles[hop] += worst[hop] * h.bank_access_cycles
    # a running sum, not a pairwise one: a fractional bank_access_cycles
    # rounds exactly as a node-by-node total would
    return float(np.cumsum(cycles)[-1]) if g.n else 0.0


def model_traversal(batch_trace: BatchTrace, h: HbmParams | None = None) -> CostReport:
    """Latency/energy/traffic of one PU executing a batch trace.

    Compute: per window sweep, every node update costs 1 cycle (Self) or a
    bank-serialized read plus issue (Hop); sweeps spread over the
    ``h.pe_per_pu`` PEs.  Traffic: topology and queries stream as regular
    bytes, the topology once per group load.  Short mode loads
    SHORT_GROUP_PES reads into a PE group at a time, so a batch streams
    the topology ceil(reads / SHORT_GROUP_PES) times whatever the PE
    count; long-mode state fills the SRAM, so the topology re-streams on
    every window sweep.  State spills past the shared SRAM round-trip as
    irregular bytes with per-line HBM latency added to the wall.
    """
    h = h or HbmParams()
    g = batch_trace.graph
    passes = sum(batch_trace.window_passes)
    per_sweep = _bank_conflict_cycles(g, h)
    compute_cycles = per_sweep * passes
    wall_compute = compute_cycles / h.pe_per_pu

    topo_bytes = 4.0 * (g.pred_idx.size + g.n + 1) + g.n
    if batch_trace.mode == MODE_LONG:
        topo_streams = max(1, passes)
    else:
        topo_streams = math.ceil(batch_trace.reads / SHORT_GROUP_PES)
    regular = (
        topo_bytes * topo_streams
        + float(sum(batch_trace.read_lengths))
        + 16.0 * batch_trace.reads
    )
    wall_stream = regular / (h.bw_per_pu * h.stream_efficiency) * h.pe_clock_hz

    ws = working_set_bytes(g.n, batch_trace.W)
    excess = max(0, ws - h.shared_sram_bytes)
    irregular = float(excess) * 2.0 * passes
    spill_cycles = (
        math.ceil(irregular / LINE_BYTES) * h.access_latency_ns * 1e-9 * h.pe_clock_hz
    )

    wall_cycles = max(wall_compute, wall_stream) + spill_cycles
    wall_s = wall_cycles / h.pe_clock_hz
    energy = (
        (regular + irregular) * 8.0 * (h.read_energy_pj + h.write_energy_pj) / 2.0
    ) * 1e-12

    thr = batch_trace.reads / wall_s if wall_s > 0 else 0.0
    return CostReport(
        cycles=wall_cycles,
        wall_time_s=wall_s,
        energy_j=energy,
        hbm_bytes_regular=regular,
        hbm_bytes_irregular=irregular,
        utilization={
            "pe": wall_compute / wall_cycles if wall_cycles else 0.0,
            "bandwidth": wall_stream / wall_cycles if wall_cycles else 0.0,
            "throughput_reads_per_s": thr,
        },
        phases={
            "compute": CostReport(
                cycles=compute_cycles, wall_time_s=wall_compute / h.pe_clock_hz
            ),
            "stream": CostReport(
                wall_time_s=wall_stream / h.pe_clock_hz, hbm_bytes_regular=regular
            ),
            "spill": CostReport(
                cycles=spill_cycles,
                wall_time_s=spill_cycles / h.pe_clock_hz,
                hbm_bytes_irregular=irregular,
            ),
        },
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def make_traversal_trace(g, read_lengths, W: int):
    """Synthesize a BatchTrace without running alignments.

    Window passes assume no early exit (full ceil(len/W) sweeps); the
    Self/Hop split comes from the graph's static classification, and the
    mode from the longest read.  This is the modeling stand-in the sweeps
    use for large synthetic workloads.
    """
    mode = batch_mapping(length_class(max(read_lengths)))
    ids = [f"r{j}" for j in range(len(read_lengths))]
    passes = [math.ceil(le / W) for le in read_lengths]
    return BatchTrace(mode, W, g, ids, list(read_lengths), passes)


def _chain_genome(n: int, seed: int):
    """Long linear backbone with sparse skip edges: the long-read stand-in."""
    from .graphs import genome_graph

    rng = np.random.default_rng(seed)
    bases = "".join(rng.choice(list("ACGT"), size=n))
    edges = [(i, i + 1) for i in range(n - 1)]
    skips = rng.integers(0, n - 2, size=max(1, n // 64))
    for s in np.unique(skips):
        t = int(s) + 2
        if t < n:
            edges.append((int(s), t))
    return genome_graph(bases, edges)


def default_pe_workload():
    """Mixed short+long traversal workload for the PE-density sweep.

    Short reads run at W=32 (fine windows, many sweeps per read) so the
    workload stresses the channel; one long read rides along in pipeline
    mode.
    """
    short_g = _chain_genome(2048, seed=11)
    long_g = _chain_genome(4096, seed=12)
    short = make_traversal_trace(short_g, [150] * 2048, W=32)
    long_ = make_traversal_trace(long_g, [10240], W=128)
    return [short, long_]


def sweep_pe_density(counts, h: HbmParams | None = None):
    """Throughput and bandwidth utilization versus PEs per channel."""
    if not counts:
        raise ValidationError("no PE counts to sweep")
    h = h or HbmParams()
    workload = default_pe_workload()
    rows = []
    for p_count in counts:
        hp = replace(h, pe_per_pu=int(p_count))
        wall = 0.0
        reads = 0
        bw_util = 0.0
        for bt in workload:
            rep = model_traversal(bt, hp)
            wall += rep.wall_time_s
            reads += bt.reads
            bw_util = max(bw_util, rep.utilization.get("bandwidth", 0.0))
        rows.append((int(p_count), reads / wall, min(1.0, bw_util)))
    return rows


def default_sram_workload():
    """Long-read workload whose working set is 192 KB (12288 nodes x 16 B)."""
    g = _chain_genome(12288, seed=21)
    return make_traversal_trace(g, [10240] * 6, W=128)


def sweep_sram(capacities, h: HbmParams | None = None):
    """Traffic split and throughput versus shared SRAM capacity."""
    if not capacities:
        raise ValidationError("no capacities to sweep")
    h = h or HbmParams()
    bt = default_sram_workload()
    rows = []
    for cap in capacities:
        rep = model_traversal(bt, replace(h, shared_sram_bytes=int(cap)))
        thr = bt.reads / rep.wall_time_s
        rows.append((int(cap), rep.hbm_bytes_regular, rep.hbm_bytes_irregular, thr))
    return rows


# ---------------------------------------------------------------------------
# Tile-size sweep: real hierarchy builds feed an occupancy latency model
# ---------------------------------------------------------------------------

# clique-chain benchmark: 16-vertex cliques chained by two-pair necks, with
# gateway necks at each power-of-two scale boundary sized so the severed
# boundary shrinks sublinearly as the tile grows
_TILE_WORKLOAD_N = 131072
_CLIQUE = 16


def _gateway_profile(c: int) -> list | None:
    """Neck pattern at clique boundary c, as (tail offset, head offset) pairs.

    None marks a plain intra-block neck (never on an aligned cut).  Scale
    boundaries carry: 15 spread pairs every 128 cliques, a 3:1 mix of
    shared-tail double pairs and single pairs every 64, and single pairs at
    the 32- and 16-clique grid.
    """
    if c % 16:
        return None
    if c % 128 == 0:
        return [(15 - i, i) for i in range(15)]
    if c % 64 == 0:
        u = (c // 64 - 1) // 2  # ordinal among 64-not-128 boundaries
        if u % 4 != 3:
            return [(15, 0), (15, 1)]
        return [(15, 0)]
    return [(15, 0)]


def make_tile_workload(n: int = _TILE_WORKLOAD_N) -> WeightedGraph:
    """Synthetic graph with planted community structure at every tile scale.

    A chain of 16-vertex cliques (most of the 2M arcs) is stitched by
    two-pair necks; at clique indices on the 16/32/64/128-clique grid the
    neck follows _gateway_profile, so tiling at N severs exactly the grid
    necks of scales >= N/256 and the boundary set shrinks as tiles grow
    while recursion deepens as they shrink.  Only the arcs matter to the
    sweep, so every arc weighs 0; the arcs come sorted by ``(src, dst)``.
    The clique arcs are laid out in that order, and the few neck arcs,
    sorted among themselves, are inserted where they belong.
    """
    cliques = n // _CLIQUE
    starts = np.arange(cliques, dtype=np.int64)[:, None] * _CLIQUE
    ii, jj = np.nonzero(~np.eye(_CLIQUE, dtype=bool))
    src = (starts + ii).ravel()
    dst = (starts + jj).ravel()

    # a plain neck joins tail offsets 14 and 15 of clique c - 1 to head
    # offsets 0 and 1 of clique c; the scale boundaries follow the profile
    head = np.arange(1, cliques, dtype=np.int64)
    head = head[head % 16 != 0] * _CLIQUE
    grid = np.array(
        [
            ((c - 1) * _CLIQUE + ta, c * _CLIQUE + hb)
            for c in range(16, cliques, 16)
            for ta, hb in _gateway_profile(c)
        ],
        dtype=np.int64,
    ).reshape(-1, 2)
    a = np.concatenate([head - 2, head - 1, grid[:, 0]])
    b = np.concatenate([head, head + 1, grid[:, 1]])
    # no arc repeats: clique arcs stay inside one clique, and each neck pair
    # joins two consecutive cliques once per direction
    neck = np.sort(np.concatenate([a * n + b, b * n + a]))
    s, d = np.divmod(neck, n)
    # vertex s's 15 clique arcs start at 15 * s; a neck arc to an earlier
    # clique goes before them, one to a later clique after them
    at = (_CLIQUE - 1) * (s + (d > s))
    src, dst = np.insert(src, at, s), np.insert(dst, at, d)
    return WeightedGraph(n, src, dst, np.zeros(src.size, dtype=np.int64))


def _tile_params(p: PcmParams, N: int) -> PcmParams:
    # the permutation engine sweeps a block in 32 bursts whatever the unit
    # height, so burst rows scale with the unit
    return replace(p, unit_dim=N, burst_rows=max(1, N // 32))


def _hierarchy_cost(hier: PartitionHierarchy, N: int, p: PcmParams):
    """Matrix-die latency and energy for one tile size.

    Prices the lazy schedule of ``hier`` in two pools:
    closure work (component closes, the top and re-closes) spreads over the
    on-die units, whose count scales as (1024/N)^2 at constant area, with
    the clock derated past the 1024 design point.  Boundary assembly
    (cross-component merges at levels above the base) drains through the
    die-level merge lanes, a fixed fixture, so its latency tracks boundary
    volume rather than unit count.  Events are priced by :func:`_priced`
    and summed by :func:`_fold`: cycles per pool, and energy over all
    events, each event by event in schedule order, closures first.
    """
    pn = _tile_params(p, N)
    (fw_uniq, fw_order), merges = _priced(schedule(hier, "lazy"), pn)
    # the sweep reads no phase, so its reports fold without theirs; the
    # passes add in schedule order, their energy after the closes'
    bare = [CostReport(), *(replace(r, phases={}) for r in fw_uniq)]
    closes = _fold(bare, np.concatenate([[0], fw_order + 1]))
    uniq, passes = [CostReport(energy_j=closes.energy_j)], [[0]]
    for _, reps, order in merges.values():
        passes.append(order + len(uniq))
        uniq += [replace(r, phases={}) for r in reps]
    merged = _fold(uniq, np.concatenate(passes))
    units = p.total_units * (1024.0 / N) ** 2
    clock = p.clock_hz * pn.derate(N)
    close_s = closes.cycles / (units * clock)
    return close_s + merged.cycles / (p.merge_drain_lanes * clock), merged.energy_j


def tile_reference(Ns) -> int:
    """The tile size a sweep over ``Ns`` normalizes to: the 1024 design
    point when it is swept, else the upper middle of the sorted sizes."""
    Ns = sorted(int(N) for N in Ns)
    return 1024 if 1024 in Ns else Ns[len(Ns) // 2]


def sweep_tile_size(Ns, g: WeightedGraph | None = None, p: PcmParams | None = None):
    """Normalized latency and energy versus matrix unit size N.

    Builds the real partition hierarchy at each N (exact-cover component
    counts) and prices it with the occupancy model; results are normalized
    to the N that :func:`tile_reference` picks from ``Ns``.  Every N
    partitions the same level-0 graph, so its structural graph is built
    once and shared, with the CSR, the clusters, their bundled cluster
    graph and their merge that the partitioner derives from it: an N
    whose cap does not bind the clusters reuses them, bundles and all,
    and an N whose limit does not bind the merge reuses it and its heavy
    order.
    """
    if not Ns:
        raise ValidationError("no tile sizes to sweep")
    # every N is checked before the first (costly) hierarchy build
    for N in Ns:
        if N < 2 or N & (N - 1):
            raise ValidationError(f"tile size {N} must be a power of two >= 2")
    if len(set(Ns)) != len(Ns):
        raise ValidationError(f"duplicate tile sizes in {list(Ns)}")
    p = p or PcmParams()
    if g is None:
        g = make_tile_workload()
    level0 = _structural_graph(g.n, g.src, g.dst, [])
    points = {}
    for N in Ns:
        hier = build_hierarchy(
            level0,
            max_tile=int(N),
            k_fn=lambda n_, N=N: math.ceil(n_ / int(N)),
            imbalance=0.0,
        )
        points[int(N)] = _hierarchy_cost(hier, int(N), p)
    base = points[tile_reference(Ns)]
    rows = [
        (N, wall / base[0], en / base[1] if base[1] else 0.0)
        for N, (wall, en) in sorted(points.items())
    ]
    return rows


# ---------------------------------------------------------------------------
# Roofline
# ---------------------------------------------------------------------------


@dataclass
class IntensityReport:
    kernel: str
    ops_per_byte: float
    convention: str


def arithmetic_intensity(kernel: str, n: int | None = None) -> IntensityReport:
    """Ops-per-byte under explicit counting conventions.

    FwPartitioned(N): the block is loaded once (4 bytes per cell) and every
    inner update performs 2 ops (add, min): 2*N^3 / 4*N^2 = N/2.
    FwClassic: no reuse, each inner update streams 3 words of 4 bytes for
    its 2 ops: 2/12.  S2G: one 2-op state update touches one 4-byte
    topology word per predecessor (about 1.5 on genome graphs), a 16-byte
    state read and a 16-byte write.
    """
    if kernel == "FwPartitioned":
        if n is None or n < 2:
            raise ValidationError("FwPartitioned needs n >= 2")
        return IntensityReport(
            kernel,
            n / 2.0,
            "load-only: n^2 cells x 4 B loaded once; 2 ops per inner update",
        )
    if kernel == "FwClassic":
        return IntensityReport(
            kernel, 2.0 / 12.0, "3 reads x 4 B per inner update, no reuse"
        )
    if kernel == "S2G":
        bytes_per_update = 4 * 1.5 + 16 + 16
        return IntensityReport(
            kernel,
            2.0 / bytes_per_update,
            "2 ops per update; 1.5 topology words + 16 B state read + 16 B write",
        )
    raise ValidationError(f"unknown kernel {kernel!r}")
