"""Spans around the module-level names each graphdp layer calls through.

The program itself carries no timers, so the traced run replaces, for the
duration of one repetition, the names that one layer looks up in another
module (``graphdp.apsp.floyd_warshall_dense``, ``graphdp.planner.build_hierarchy``
and so on) with wrappers that record a span: name, start, end, parent span
and a few counts read from the call's arguments or result.  Spans are kept in
memory; ``worker.py`` writes them out when the run ends.

A span's self time is its duration minus the durations of its child spans.
Commands run with ``--threads 1``, so child spans never overlap.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# Floyd-Warshall call sites in graphdp.apsp, by the calling function's name
FW_SITES = {"close_one": "close", "reinject": "reclose", "recursive_apsp": "top"}

# a numpy Floyd-Warshall pivot streams the matrix in, writes a candidate
# matrix, reads it back and writes the matrix: four passes over dim^2 cells
FW_PASSES_PER_PIVOT = 4


def _fw(args, kwargs, out):
    dim = int(out.shape[0])
    return {"dim": dim, "itemsize": int(out.itemsize)}


def _merge(args, kwargs, out):
    d1, _db, d2, b1, b2 = args[:5]
    rows, cols, nb1, nb2 = d1.dim, d2.dim, len(b1), len(b2)
    return {"ops": rows * nb1 * nb2 + rows * nb2 * cols}


def _hierarchy(args, kwargs, out):
    st = out.stats()
    n = st["levels"][0]["n"] if st["levels"] else 0
    top = st["levels"][-1]["boundary"] if st["levels"] else 0
    b0 = st["levels"][0]["boundary"] if st["levels"] else 0
    return {
        "max_tile": int(out.max_tile),
        "depth": len(st["levels"]),
        "top_n": top,
        "top_frac": top / n if n else 0.0,
        "boundary_frac0": b0 / n if n else 0.0,
        "truncated": int(bool(st["truncated"])),
    }


def _engine(args, kwargs, out):
    c = out.trace.counts()
    return {
        "close": c["fw"].get("close", 0),
        "reclose": c["fw"].get("reclose", 0),
        "top": c["fw"].get("top", 0),
        "merges": c["merges"],
        "inject_pairs": c["inject_pairs"],
    }


def _align(args, kwargs, out):
    batch = args[1]
    _, bt = out
    passes = sum(bt.window_passes)
    return {
        "batch": batch.length_class,
        "window_passes": passes,
        "node_windows": bt.nodes * passes,
        "self_updates": bt.self_updates,
        "hop_updates": bt.hop_updates,
    }


# (module, attribute, span name, describe(args, kwargs, result) -> attrs)
WRAPS = (
    ("graphdp.cli", "main", "cli.main", None),
    ("graphdp.cli", "load_edge_list", "graphs.load", None),
    ("graphdp.cli", "load_genome_graph", "graphs.load", None),
    ("graphdp.cli", "load_fasta", "graphs.load", None),
    ("graphdp.cli", "lower", "planner.lower", None),
    ("graphdp.cli", "execute", "planner.execute", None),
    ("graphdp.cli", "export_distances", "apsp.export", None),
    ("graphdp.cli", "sweep_tile_size", "costmodel.sweep", None),
    ("graphdp.planner", "build_hierarchy", "partition.build", _hierarchy),
    ("graphdp.apsp", "build_hierarchy", "partition.build", _hierarchy),
    ("graphdp.costmodel", "build_hierarchy", "partition.build", _hierarchy),
    ("graphdp.partition", "kway_partition", "partition.kway", None),
    ("graphdp.apsp", "build_boundary_graph", "partition.boundary_graph", None),
    ("graphdp.planner", "recursive_apsp", "apsp.engine", _engine),
    ("graphdp.apsp", "floyd_warshall_dense", "minplus.fw", _fw),
    ("graphdp.apsp", "min_plus_merge", "minplus.merge", _merge),
    ("graphdp.apsp", "inject", "minplus.inject", None),
    ("graphdp.planner", "model_recursive_apsp", "costmodel.price", None),
    ("graphdp.planner", "model_traversal", "costmodel.price", None),
    ("graphdp.planner", "batch_align", "s2g.align", _align),
)


class Tracer:
    """Records spans while installed; ``uninstall`` restores every name."""

    def __init__(self):
        self.spans: list = []  # [name, parent index, t0, t1, attrs]
        self._stack: list = []
        self._saved: list = []

    def install(self) -> None:
        for modname, attr, name, describe in WRAPS:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name, modname, describe))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, orig, name, modname, describe):
        stack = self._stack

        def wrapper(*args, **kwargs):
            site = sys._getframe(1).f_code.co_name
            span = [name, stack[-1] if stack else -1, 0.0, 0.0,
                    {"via": modname, "site": site}]
            stack.append(len(self.spans))
            self.spans.append(span)
            t0 = perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                span[2] = t0
                stack.pop()
            if describe is not None:
                span[4].update(describe(args, kwargs, out))
            return out

        wrapper.__wrapped__ = orig
        return wrapper


def rep_metrics(spans: list, hierarchy_tile: int | None) -> dict:
    """Per-layer metrics of one traced repetition, by BENCHMARK.json name."""
    child = defaultdict(float)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, _, t0, t1, _) in enumerate(spans):
        total[name] += t1 - t0
        own[name] += t1 - t0 - child[i]
        calls[name] += 1

    m = {}
    # minplus
    fw = defaultdict(float)
    cells = fw_bytes = 0
    for name, _, t0, t1, a in spans:
        if name == "minplus.fw":
            fw[FW_SITES.get(a["site"], "other")] += t1 - t0
            cells += a["dim"] ** 3
            fw_bytes += FW_PASSES_PER_PIVOT * a["itemsize"] * a["dim"] ** 3
    fw_s = total["minplus.fw"]
    m["minplus.fw_close_s"] = fw["close"]
    m["minplus.fw_reclose_s"] = fw["reclose"]
    m["minplus.fw_top_s"] = fw["top"]
    m["minplus.fw_calls"] = calls["minplus.fw"]
    m["minplus.fw_cell_updates"] = cells
    m["minplus.fw_gcups"] = cells / fw_s / 1e9 if fw_s else 0.0
    m["minplus.fw_bytes_computed"] = fw_bytes
    merge_ops = sum(a["ops"] for n_, _, _, _, a in spans if n_ == "minplus.merge")
    merge_s = total["minplus.merge"]
    m["minplus.merge_s"] = merge_s
    m["minplus.merge_calls"] = calls["minplus.merge"]
    m["minplus.merge_ops"] = merge_ops
    m["minplus.merge_gops"] = merge_ops / merge_s / 1e9 if merge_s else 0.0
    m["minplus.inject_s"] = total["minplus.inject"]

    # partition
    m["partition.build_s"] = total["partition.build"]
    m["partition.kway_s"] = total["partition.kway"]
    m["partition.kway_calls"] = calls["partition.kway"]
    m["partition.boundary_graph_s"] = total["partition.boundary_graph"]
    quality = next(
        (a for n_, _, _, _, a in spans
         if n_ == "partition.build" and a["max_tile"] == hierarchy_tile),
        None,
    )
    for key in ("depth", "top_n", "top_frac", "boundary_frac0", "truncated"):
        m[f"partition.{key}"] = quality[key] if quality else 0

    # apsp
    m["apsp.engine_s"] = total["apsp.engine"]
    m["apsp.engine_self_s"] = own["apsp.engine"]
    m["apsp.export_s"] = total["apsp.export"]
    engine = [a for n_, _, _, _, a in spans if n_ == "apsp.engine"]
    for key in ("close", "reclose", "top"):
        m[f"apsp.fw_events.{key}"] = sum(a[key] for a in engine)
    m["apsp.merges"] = sum(a["merges"] for a in engine)
    m["apsp.inject_pairs"] = sum(a["inject_pairs"] for a in engine)

    # planner
    m["planner.lower_s"] = total["planner.lower"]
    m["planner.hierarchy_builds"] = sum(
        1 for n_, _, _, _, a in spans
        if n_ == "partition.build" and a["via"] != "graphdp.costmodel"
    )

    # s2g
    aligns = [(t1 - t0, a) for n_, _, t0, t1, a in spans if n_ == "s2g.align"]
    for batch in ("short", "long"):
        secs = sum(s for s, a in aligns if a["batch"] == batch)
        nw = sum(a["node_windows"] for s, a in aligns if a["batch"] == batch)
        m[f"s2g.{batch}.align_s"] = secs
        m[f"s2g.{batch}.ns_per_node_window"] = secs / nw * 1e9 if nw else 0.0
    for key in ("window_passes", "node_windows", "self_updates", "hop_updates"):
        m[f"s2g.{key}"] = sum(a[key] for _, a in aligns)

    # costmodel, graphs, cli
    m["costmodel.price_s"] = total["costmodel.price"]
    m["costmodel.sweep_price_s"] = own["costmodel.sweep"]
    m["graphs.load_s"] = total["graphs.load"]
    m["cli.self_s"] = own["cli.main"]
    return m


# per-layer metrics that count work and must repeat exactly between reps
EXACT = {
    "minplus.fw_calls", "minplus.fw_cell_updates", "minplus.fw_bytes_computed",
    "minplus.merge_calls", "minplus.merge_ops", "partition.kway_calls",
    "partition.depth", "partition.top_n", "partition.top_frac",
    "partition.boundary_frac0", "partition.truncated",
    "apsp.fw_events.close", "apsp.fw_events.reclose", "apsp.fw_events.top",
    "apsp.merges", "apsp.inject_pairs", "planner.hierarchy_builds",
    "s2g.window_passes", "s2g.node_windows", "s2g.self_updates",
    "s2g.hop_updates",
}


def summarize(per_rep: list) -> tuple:
    """Median of each metric over the traced reps, and the exact counts
    that did not repeat."""
    out = {
        k: per_rep[0][k] if k in EXACT else statistics.median(r[k] for r in per_rep)
        for k in per_rep[0]
    }
    unstable = sorted(k for k in EXACT if len({r[k] for r in per_rep}) > 1)
    return out, unstable
