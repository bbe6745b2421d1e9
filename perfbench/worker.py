"""One measurement in a fresh interpreter, so that every module cache is cold.

    python3 perfbench/worker.py setup --workload W
    python3 perfbench/worker.py sweep --workload W --seed N --seconds S
                                      [--trace PATH] [--limit K] [--no-gate]

`setup` times import plus input construction and validation.  `sweep` does
the same, then runs the seeded sample one instance at a time (closed loop,
one caller) until it is done or the measured time reaches --seconds, then
checks the results outside the timed region.  With
--trace the library is traced during set-up and the loop, and the spans are
written to PATH.  The last stdout line is one JSON object.  run.py starts
this script; every time it reports is in reference seconds (speed.py).
"""

import argparse
import gc
import importlib
import json
import os
import resource
import sys
import time

import speed
from workloads import WORKLOADS, sample_order

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_library():
    sys.path.insert(0, SRC)
    ft = importlib.import_module("flagtutte")
    where = os.path.dirname(os.path.abspath(ft.__file__))
    if where != os.path.join(SRC, "flagtutte"):
        raise SystemExit("flagtutte imported from %s, not from %s"
                         % (where, SRC))
    return ft


def cache_counters(ft):
    """Hit counters and sizes of the library's caches, read, never reset."""
    tri = ft.cones._triangulate_cells.cache_info()
    flip = ft.genfun._flipped_cached.cache_info()
    return {
        "cones.triangulate.hits": tri.hits,
        "cones.triangulate.misses": tri.misses,
        "cones.triangulate_cache.entries": tri.currsize,
        "genfun.flip.hits": flip.hits,
        "genfun.flip.misses": flip.misses,
        "genfun.flip_cache.entries": flip.currsize,
        "genfun.member_cache.entries": len(ft.genfun._member_cache),
        "genfun.box_cache.entries": len(ft.genfun._box_cache),
        "invariants.cells_cache.entries": len(ft.invariants._CELLS_CACHE),
        "invariants.value_cache.entries": len(ft.invariants._VALUE_CACHE),
        "invariants.support_cache.entries":
            len(ft.invariants._SUPPORT_CACHE),
    }


def timed_setup(workload, meter, tracer=None):
    """Import, build and validate the inputs.  Returns (ft, instances,
    reference seconds, reference seconds per wall second)."""
    token = meter.mark()
    ft = import_library()
    if tracer is not None:
        tracer.install()
    instances = workload.load(ft)
    setup_s, scale = meter.elapsed(token)
    return ft, instances, setup_s, scale


def sweep(args, workload):
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    times, factors, kept, errors = [], [], [], []
    raised = 0
    measured = 0.0
    with speed.Meter() as meter:
        ft, instances, setup_s, setup_factor = timed_setup(workload, meter,
                                                           tracer)
        order = sample_order(workload, instances, args.seed)
        if args.limit is not None:
            order = order[:args.limit]
        before = cache_counters(ft)
        gc.collect()
        start = time.perf_counter()
        for pos, idx in enumerate(order):
            if measured >= args.seconds:
                break
            if tracer is not None:
                tracer.instance = pos
            inst = instances[idx]
            token = meter.mark()
            try:
                out = workload.call(ft, inst)
                err = None
            except Exception as exc:  # a failed instance is counted
                err = "instance %d: %s: %s" % (idx, type(exc).__name__, exc)
            seconds, factor = meter.elapsed(token)
            times.append(seconds)
            factors.append(factor)
            measured += seconds
            if err is None:
                kept.append(workload.digest(out))
            else:
                kept.append(None)
                raised += 1
                errors.append(err)
        loop_wall_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = cache_counters(ft)

    result = {
        "setup_s": setup_s,
        "sample": len(order),
        "attempted": len(times),
        "times": times,
        "loop_wall_s": loop_wall_s,
        "rss_mb": rss_mb,
        "counters": after,
        "counter_deltas": {k: after[k] - before[k] for k in after},
    }
    if tracer is not None:
        tracer.uninstall()

        def factor_of(instance):
            return setup_factor if instance < 0 else factors[instance]

        result["layers"] = tracer.layer_totals(factor_of, lambda i: i >= 0)
        result["setup_layers"] = tracer.layer_totals(factor_of,
                                                     lambda i: i < 0)
        result["spans"] = len(tracer.spans)
        tracer.write(args.trace, {
            "workload": workload.name, "seed": args.seed,
            "reference_probe_s": speed.REFERENCE_PROBE_S,
            "setup_factor": setup_factor, "instance_factors": factors,
            "order": order[:len(times)],
        })

    failed = raised
    if not args.no_gate:
        for pos, result_kept in enumerate(kept):
            if result_kept is None:
                continue
            idx = order[pos]
            try:
                ok = workload.gate(ft, instances[idx], result_kept)
            except Exception as exc:  # a crashing check is a failed check
                ok = False
                errors.append("instance %d: gate raised %s: %s"
                              % (idx, type(exc).__name__, exc))
            if not ok:
                failed += 1
                errors.append("instance %d: wrong result" % idx)
    result["raised"] = raised
    result["failed"] = failed
    result["errors"] = errors[:10]
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "sweep"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument("--no-gate", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        with speed.Meter() as meter:
            _, _, setup_s, _ = timed_setup(workload, meter)
        result = {"setup_s": setup_s}
    else:
        result = sweep(args, workload)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
