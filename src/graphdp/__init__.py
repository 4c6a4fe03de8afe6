"""graphdp: exact graph dynamic programming with a PIM-style cost model.

The package pairs two exact engines with an analytic hardware model:

* a recursive partitioned all-pairs shortest path engine built on
  tile-sized Floyd-Warshall closures and min-plus products, and
* a bit-parallel sequence-to-graph matcher for base-labelled DAGs (a
  read-parallel production scorer and a windowed device-fidelity kernel),

plus a partitioner, a parameterized cost/energy model for an in-memory
accelerator, sensitivity sweeps, a workload planner, and a CLI.
"""

from .graphs import (
    INF_SENTINEL,
    WeightedGraph,
    GenomeGraph,
    ReadBatch,
    gen_er,
    gen_nws,
    gen_clustered,
    gen_genome,
    gen_reads,
    genome_graph,
    graph_to_dense,
    distance_init,
    load_edge_list,
    dump_edge_list,
    load_genome_graph,
    parse_gfa,
    load_fasta,
    dump_fasta,
    read_batches,
    topo_sort,
)
from .minplus import floyd_warshall_dense, min_plus_product
from .partition import (
    BoundarySet,
    Partition,
    PartitionHierarchy,
    build_hierarchy,
    find_boundary,
    kway_partition,
)
from .apsp import (
    ApspResult,
    ExecutionTrace,
    export_distances,
    load_distances,
    recursive_apsp,
)
from .s2g import (
    MODE_LONG,
    MODE_SHORT,
    AlignResult,
    align_read_parallel,
    align_reference,
    align_windowed,
    batch_align,
    precompute_masks,
)
from .costmodel import (
    CostReport,
    HbmParams,
    PcmParams,
    arithmetic_intensity,
    model_fw_block,
    model_mp_merge,
    model_recursive_apsp,
    model_traversal,
    sweep_pe_density,
    sweep_sram,
    sweep_tile_size,
    working_set_bytes,
)
from .planner import (
    ApspWorkload,
    ExecutionPlan,
    S2gWorkload,
    execute,
    lower,
)

__version__ = "0.1.0"
