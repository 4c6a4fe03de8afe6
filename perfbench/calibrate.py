"""Host-speed calibration for the end-to-end times.

Shared machines change speed by up to 1.7x over tens of seconds, and not
evenly: interpreted Python slows down more than numpy's memory-bound loops.
Two fixed kernels, which do not change with graphdp's sources, track the
two kinds of work:

* ``py``: a pure-Python bit-parallel sweep over a 20,000-node DAG with
  128-bit state words, like the aligner's and the partitioner's loops;
* ``np``: eight Floyd-Warshall pivots of an int64 1000 x 1000 matrix, like
  the engine's closures and merges.

If a repetition spends the share ``w`` of its time in work like ``py`` and
the rest in work like ``np``, and the host runs them ``s_py`` and ``s_np``
times slower than the reference host, its time is multiplied by
``w * s_py + (1 - w) * s_np``.  ``host_factor`` estimates that multiplier
from samples taken around the repetition; dividing by it gives the time at
the reference host's speed.
"""

from __future__ import annotations

import functools
import statistics
import time

# median seconds of each kernel on a quiet 2-core Xeon host (Python 3.11,
# numpy 2.4)
REFERENCE_S = {"py": 0.0075, "np": 0.021}

PY_NODES = 20000
PY_PREDS = [[(v * 7 + j) % v for j in range(1 + v % 2)] if v else []
            for v in range(PY_NODES)]
PY_MASK = (1 << 128) - 1
NP_DIM = 1000
NP_PIVOTS = 8


def sample_py() -> float:
    state = [0] * PY_NODES
    t0 = time.perf_counter()
    for _ in range(2):
        for v in range(PY_NODES):
            d = 0
            for u in PY_PREDS[v]:
                d |= state[u]
            state[v] = ((d << 1) | 1) & PY_MASK
    return time.perf_counter() - t0


@functools.cache
def _np_matrix():
    # numpy is imported here, not at module level, so that the set-up
    # timer still sees graphdp's first import of it
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.integers(1, 100, size=(NP_DIM, NP_DIM), dtype=np.int64)


def sample_np() -> float:
    import numpy as np

    d = _np_matrix().copy()
    t0 = time.perf_counter()
    for k in range(NP_PIVOTS):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return time.perf_counter() - t0


def sample() -> dict:
    """One sample of each kernel, in seconds."""
    return {"py": sample_py(), "np": sample_np()}


def host_factor(samples: list, py_share: float) -> float:
    """How many times slower than the reference host the samples ran, for
    work that is ``py_share`` Python-like and the rest numpy-like."""
    slow = {k: statistics.median(s[k] for s in samples) / ref
            for k, ref in REFERENCE_S.items()}
    return py_share * slow["py"] + (1.0 - py_share) * slow["np"]

