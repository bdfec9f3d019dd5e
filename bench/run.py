#!/usr/bin/env python3
"""predcut benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N --seconds S --trace 0|1]   # all four workloads

Run from the repository root; predcut is imported from ./src. With one
workload, the last line of standard output is a JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Without --workload every
workload runs in a fresh process of its own, one after another. The exit
code is non-zero when any correctness check fails. See bench/README.md.
"""

import os

# fixed before numpy loads: on a 2-core machine, two BLAS threads spread
# four plain GW solves over 2.83-3.80 s, one thread over 3.55-3.70 s
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
SETUP_REPEATS = 5


def _import_program():
    """Import predcut from this checkout's src, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import predcut
    if Path(predcut.__file__).resolve().parent != ROOT / "src" / "predcut":
        sys.exit(f"predcut imported from {predcut.__file__}, not from {ROOT / 'src'}")
    return predcut


def _warm_up(pc):
    """Tiny LP, SDP and rounding calls, so lazy loading is not timed."""
    g = pc.Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    pc.rt_round(pc.solve_sdp(g), 0)
    pc.solve_lp(pc.AbsSumLp(objective=np.ones(2),
                            groups=[pc.LpGroup(np.eye(2), np.zeros(2), 1.0)]))


def _same(a, b):
    """Equal cuts and tags, bit for bit; SDP solutions are not compared."""
    if a.keys() != b.keys():
        return False
    for key, va in a.items():
        vb = b[key]
        if hasattr(va, "values"):
            if not np.array_equal(va.values, vb.values):
                return False
        elif key != "sdp" and va != vb:
            return False
    return True


def _ops(out):
    return sum(1 for v in out.values() if hasattr(v, "values"))


def run_workload(name, seed, seconds, traced):
    pc = _import_program()
    from tracing import Trace
    from workloads import WORKLOADS, Checker
    wl = WORKLOADS[name]
    ck = Checker()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        setup_trace = Trace()
        instances = None         # one set of inputs in memory at a time
        gc.collect()
        t0 = time.perf_counter()
        instances = wl.setup(seed, setup_trace)
        _warm_up(pc)
        setup_times.append(time.perf_counter() - t0)

    def composed_round():
        """Every instance solved once; returns the outputs and each solve's time."""
        outs, times = [], []
        for inst in instances:
            gc.collect()
            t0 = time.perf_counter()
            outs.append(wl.solve(inst))
            times.append(time.perf_counter() - t0)
        return outs, times

    attempted = 0
    if not traced:
        round_times = []
        first = None
        start = time.perf_counter()
        while True:
            outs, times = composed_round()
            round_times.append(sum(times))
            attempted += sum(_ops(out) for out in outs)
            if first is None:
                first = outs
            else:
                ck.require(all(_same(a, b) for a, b in zip(first, outs)),
                           "a repeated round gave different results")
            if time.perf_counter() - start + statistics.median(round_times) > seconds:
                break
        # a few instances layer by layer, untimed: checks the contracts the
        # composed solvers do not expose and that the decomposition agrees
        for k in wl.spot_checked:
            dec = wl.decompose(instances[k], Trace(), ck)
            ck.require(_same(first[k], dec), f"{instances[k].name}: decomposition differs")
        # an output that fails its shape check has no ratio; the failure is recorded
        ratios = [r for r in wl.check(ck, instances, first) if r is not None]
        metrics = {
            "wall_s": statistics.median(round_times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ratio_mean": statistics.fmean(ratios) if ratios else float("nan"),
            "ratio_min": min(ratios) if ratios else float("nan"),
        }
        units = END_TO_END
        print(f"{name}: {len(round_times)} rounds of {len(instances)} instances, "
              f"round times {', '.join(f'{r:.3f}' for r in round_times)} s")
    else:
        first, times = composed_round()
        untraced_wall = sum(times)
        trace = setup_trace      # the last set-up's spans go into the same file
        decomposed = []
        traced_wall = 0.0
        for inst in instances:
            trace.instance = inst.name
            gc.collect()
            t0 = time.perf_counter()
            decomposed.append(wl.decompose(inst, trace, ck))
            traced_wall += time.perf_counter() - t0
        for inst in instances:
            trace.instance = inst.name
            wl.probe(inst, trace)
        attempted = 2 * sum(_ops(out) for out in first)
        for inst, a, b in zip(instances, first, decomposed):
            ck.require(_same(a, b), f"{inst.name}: decomposition differs from the composed solver")
        wl.check(ck, instances, first)
        # layers this workload never calls read 0
        metrics = {key: 0.0 if PER_LAYER[key] == "s" else 0 for key in PER_LAYER}
        for key, seconds_in in trace.totals().items():
            metrics[key + "_s"] = seconds_in
        metrics.update(trace.counts)
        metrics["graph.adjacency_mb"] = sum(i.n ** 2 * 8 for i in instances if hasattr(i, "g")) / 2 ** 20
        metrics["graph.edges"] = sum(i.g.num_edges for i in instances if hasattr(i, "g"))
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        units = PER_LAYER
        out = ROOT / "bench" / "out" / f"trace-{name}-{seed}.json"
        trace.write(out, workload=name, seed=seed, untraced_wall_s=untraced_wall,
                    traced_wall_s=traced_wall)
        print(f"{name}: spans and counts written to {out.relative_to(ROOT)}")

    for key, value in metrics.items():
        print(f"  {key} = {value} {units[key]}")
    for failure in ck.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    result = {"correct": not ck.failures, "attempted": attempted, "failed": 0,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if not ck.failures else 1


def run_all(args):
    """Each workload in a fresh process, one at a time."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return 1 if status else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload is None:
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
