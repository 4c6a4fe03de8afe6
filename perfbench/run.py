#!/usr/bin/env python3
"""graphdp benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/graphdp``.  The run sets
the workload up several times in fresh processes (timing the first import
and the input generation), then measures it in one more fresh process for
``--seconds`` seconds, checks every output against an independent oracle,
and prints one JSON line last on stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are BENCHMARK.json's ``end_to_end`` list,
with ``--trace 1`` its ``per_layer`` list.  Details (every repetition's
time, each check, run metadata) go to stderr and to
``perfbench/.work/<workload>/detail.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
DEADLINE_S = 170.0


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(mode: str, args, work: str, deadline: float, capture: bool):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), "--work", work]
    if mode == "measure":
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    # the worker's own stdout (graphdp's progress lines) goes to our stderr,
    # so the result line stays last on stdout
    proc = subprocess.run(
        cmd, env=_child_env(), cwd=ROOT, timeout=max(1.0, deadline - time.time()),
        stdout=subprocess.PIPE if capture else sys.stderr, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return proc.stdout


def _metadata() -> dict:
    import numpy
    import scipy

    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    pkg = os.path.join(ROOT, "src", "graphdp")
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "git_revision": rev,
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "src_graphdp_lines": lines,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="graphdp benchmark, one run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    deadline = time.time() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "graphdp", "cli.py")):
        return _fail(f"no graphdp sources under {os.path.join(ROOT, 'src')}")
    if args.workload not in workloads.NAMES:
        return _fail(f"unknown workload {args.workload!r}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(HERE, ".work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setups = [
            json.loads(_worker("setup", args, work, deadline, True)
                       .strip().splitlines()[-1])
            for _ in range(SETUP_REPEATS)
        ]
        _worker("measure", args, work, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        return _fail(str(e))
    with open(os.path.join(work, "result.json")) as fh:
        res = json.load(fh)
    reps = res["reps"]

    # failures: every command run, every repetition's byte identity, every
    # oracle check, and (traced) every work count that must repeat exactly
    results = []
    for i, rep in enumerate(reps):
        for label, rc in rep["rc"].items():
            results.append((f"rep{i}.{label}.exit", rc == 0, f"exit {rc}"))
        if i:
            results.append((f"rep{i}.bytes_identical",
                            rep["digest"] == reps[0]["digest"], rep["digest"][:12]))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    indir = os.path.join(work, "inputs")
    outdir = os.path.join(work, "out")
    try:
        results += checks.check_outputs(args.workload, args.seed, indir, outdir)
    except (OSError, ValueError) as e:
        results.append(("outputs.readable", False, str(e)))
    if args.trace:
        unstable = res["unstable_counts"]
        results.append(("trace.counts_repeat", not unstable,
                        ",".join(unstable) or "all equal"))
    failed = sum(1 for _, ok, _ in results if not ok)

    plain = [sum(r["s"].values()) for r in reps if not r["traced"]]
    # round i of calibration samples follows repetition i; each repetition
    # is scaled by the rounds on both sides of it
    rounds = res["calibration_rounds_s"]
    share = workloads.PY_SHARE[args.workload]
    scaled = [
        sum(r["s"].values())
        / calibrate.host_factor(rounds[i] + (rounds[i - 1] if i else []), share)
        for i, r in enumerate(reps) if not r["traced"]
    ]
    factor = calibrate.host_factor([c for rnd in rounds for c in rnd], share)
    if args.trace:
        values = dict(res["layers"])
        values["host.factor"] = factor
        values["costmodel.device_s"], values["costmodel.device_j"] = (
            checks.device_totals(outdir))
    else:
        values = {
            "setup_s": statistics.median(
                st["setup_s"] / calibrate.host_factor(
                    st["calibration_s"], workloads.SETUP_PY_SHARE)
                for st in setups),
            "solve_s": statistics.median(scaled),
            "peak_rss_mib": res["peak_rss_mib"],
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": _metadata(),
        "setup_s": setups,
        "calibration_rounds_s": rounds,
        "reps": [{"traced": r["traced"], "s": r["s"]} for r in reps],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in results],
        "metrics": metrics,
    }
    with open(os.path.join(work, "detail.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    shutil.rmtree(outdir, ignore_errors=True)
    shutil.rmtree(indir, ignore_errors=True)

    print(f"{args.workload} seed={args.seed}: {len(plain)} untraced reps, "
          f"solve_s median {statistics.median(plain):.4f} "
          f"[{min(plain):.4f}, {max(plain):.4f}], "
          f"setup_s median of {len(setups)} "
          f"{statistics.median(st['setup_s'] for st in setups):.4f}; "
          f"host factor {factor:.4f}, "
          f"scaled solve median {statistics.median(scaled):.4f}",
          file=sys.stderr)
    for name, ok, d in results:
        if not ok or not name.startswith("rep"):
            print(f"  {'PASS' if ok else 'FAIL'} {name}: {d}", file=sys.stderr)
    print(f"  meta: {json.dumps(detail['meta'], sort_keys=True)}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
