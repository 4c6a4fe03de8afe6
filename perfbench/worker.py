"""Child process of ``run.py``: one set-up, or one measured run.

    worker.py setup   --workload W --seed N --work DIR
    worker.py measure --workload W --seed N --work DIR --seconds S --trace 0|1

``setup`` times the first import of ``graphdp.cli`` plus writing the
workload's input files, then samples the calibration kernels, and prints
``{"setup_s": ..., "calibration_s": [...]}``.  ``measure`` runs
repetitions of the workload's commands in-process through
``graphdp.cli.main`` until ``--seconds`` have passed (and at least two
repetitions ran), hashes every repetition's output files, and writes
``result.json`` into the work directory.  With ``--trace 1`` it alternates
untraced and traced repetitions and writes the traced spans to
``spans.json``.  Each run is a fresh process, so its peak RSS belongs to
one workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import calibrate
import tracer
import workloads

MIN_REPS = 2

CAL_SHARE = 0.1  # of each repetition's time, spent calibrating after it
CAL_SETUP = 5  # samples after a set-up


def _digest(outdir: str) -> str:
    h = hashlib.sha256()
    for base, _, files in sorted(os.walk(outdir)):
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, outdir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def cmd_setup(args) -> int:
    t0 = time.perf_counter()
    import graphdp.cli  # noqa: F401  (the first import is part of set-up)

    workloads.generate(args.workload, args.seed, os.path.join(args.work, "inputs"))
    setup_s = time.perf_counter() - t0
    cal = [calibrate.sample() for _ in range(CAL_SETUP)]
    print(json.dumps({"setup_s": setup_s, "calibration_s": cal}))
    return 0


def cmd_measure(args) -> int:
    import graphdp.cli as cli

    indir = os.path.join(args.work, "inputs")
    outdir = os.path.join(args.work, "out")
    cmds = workloads.commands(args.workload, args.seed, indir, outdir)
    tr = tracer.Tracer() if args.trace else None
    reps = []
    traced_metrics = []
    all_spans = []

    def run_rep(traced: bool) -> None:
        gc.collect()
        if traced:
            tr.install()
        rep = {"traced": traced, "s": {}, "rc": {}}
        try:
            for label, argv in cmds:
                t0 = time.perf_counter()
                try:
                    rc = cli.main(argv)
                except Exception:  # noqa: BLE001 - a crash is a failed command
                    traceback.print_exc()
                    rc = -1
                rep["s"][label] = time.perf_counter() - t0
                rep["rc"][label] = rc
        finally:
            if traced:
                tr.uninstall()
        if traced:
            spans = tr.take()
            all_spans.append(spans)
            tile = workloads.HIERARCHY_TILE.get(args.workload)
            traced_metrics.append(tracer.rep_metrics(spans, tile))
        rep["digest"] = _digest(outdir)
        reps.append(rep)

    # host speed drifts on shared machines, so a round of calibration
    # samples follows every repetition and run.py scales each repetition by
    # the rounds on both sides of it; the first repetition runs before any
    # calibration, so the peak RSS read after it is that of one command
    # invocation in a fresh process, without the kernels' memory
    start = time.perf_counter()
    run_rep(False)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal = []
    while True:
        budget = CAL_SHARE * sum(reps[-1]["s"].values())
        cal.append([])
        while not cal[-1] or sum(sum(c.values()) for c in cal[-1]) < budget:
            cal[-1].append(calibrate.sample())
        n_traced = sum(r["traced"] for r in reps)
        n_plain = len(reps) - n_traced
        done = time.perf_counter() - start >= args.seconds
        if done and len(reps) >= MIN_REPS and (not args.trace or n_traced):
            break
        # a traced run alternates so both halves see the same machine state
        run_rep(bool(args.trace) and n_traced < n_plain)

    doc = {
        "reps": reps,
        "peak_rss_mib": peak_rss_mib,
        "calibration_rounds_s": cal,
    }
    if args.trace:
        layers, unstable = tracer.summarize(traced_metrics)
        plain = [sum(r["s"].values()) for r in reps if not r["traced"]]
        traced = [sum(r["s"].values()) for r in reps if r["traced"]]
        layers["trace.untraced_rep_s"] = statistics.median(plain)
        layers["trace.traced_rep_s"] = statistics.median(traced)
        layers["trace.overhead_s"] = (
            layers["trace.traced_rep_s"] - layers["trace.untraced_rep_s"]
        )
        doc["layers"] = layers
        doc["unstable_counts"] = unstable
        with open(os.path.join(args.work, "spans.json"), "w") as fh:
            json.dump(all_spans, fh)
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["setup", "measure"])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    return cmd_setup(args) if args.mode == "setup" else cmd_measure(args)


if __name__ == "__main__":
    sys.exit(main())
