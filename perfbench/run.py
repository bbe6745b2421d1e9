"""Benchmark of flagtutte: cold corpus sweeps of its three routes.

    python3 perfbench/run.py --workload kt-corpus --seed 1 --seconds 40 --trace 0

Run from the repository root.  Workloads (BENCHMARK.json says why each):
kt-corpus, equivariant-corpus, corank-nullity.  Each run starts fresh
interpreters (perfbench/worker.py), one at a time and single-threaded, so
every module cache of the library starts cold.

--trace 0 prints the end-to-end metrics: the median set-up time over
SETUP_SAMPLES fresh interpreters, then throughput, median and tail latency,
peak memory and the share of correct results of one sweep.  --trace 1
re-runs the sweep with the tracer (perfbench/tracer.py) and prints the
per-layer metrics, the tracing overhead against an untraced run of its
first quarter, and checks the exact bypass counts of perfbench/model.json.
Times are reference seconds (perfbench/speed.py).  Human-readable lines come
first; the last stdout line is the JSON result.  Exit code 0 on a finished
run (also when a result is wrong: see "correct"), 2 when the run could not
be made.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
TRACE_DIR = os.path.join(ROOT, ".perfbench-out")

SETUP_SAMPLES = 3
TAIL_BEYOND = 10
RUN_BUDGET_S = 170.0

# One process at a time and one thread in it; numpy must not start a pool.
_CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "FLAGTUTTE_THREADS": "1",
}


class RunError(Exception):
    pass


class Children:
    """Starts worker processes one after another within one time budget."""

    def __init__(self, budget_s):
        self.deadline = time.monotonic() + budget_s
        self.env = dict(os.environ, **_CHILD_ENV)

    def run(self, *args):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunError("time budget spent before %s" % (args,))
        try:
            proc = subprocess.run(
                [sys.executable, WORKER] + [str(a) for a in args],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=left)
        except subprocess.TimeoutExpired:
            raise RunError("worker %s did not finish in time" % (args,))
        if proc.returncode != 0:
            raise RunError("worker %s exited %d:\n%s" % (
                args, proc.returncode, proc.stderr[-2000:]))
        lines = proc.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1])
        except (IndexError, ValueError):
            raise RunError("worker %s printed no result" % (args,))


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise RunError("cannot read %s: %s" % (path, exc))


def tail(times):
    """(value, percentile): the highest percentile with TAIL_BEYOND
    instances beyond it, or the maximum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(children, args):
    setups = [children.run("setup", "--workload", args.workload)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    sweep = children.run("sweep", "--workload", args.workload,
                         "--seed", args.seed, "--seconds", args.seconds)
    setups.append(sweep["setup_s"])
    times = sweep["times"]
    if not times:
        raise RunError("the sweep measured no instance")
    tail_s, tail_pct = tail(times)
    attempted = sweep["attempted"]
    values = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": (attempted - sweep["raised"]) / sum(times),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": sweep["rss_mb"],
        "ok_frac": (attempted - sweep["failed"]) / attempted,
    }
    notes = [
        "sample %d of the corpus, %d attempted, measured %.2f s "
        "(%.2f s wall)" % (sweep["sample"], attempted, sum(times),
                           sweep["loop_wall_s"]),
        "latency_tail_ms is p%.2f of %d instances" % (tail_pct, len(times)),
        "failed_frac %.6f (%d of %d)" % (sweep["failed"] / attempted,
                                         sweep["failed"], attempted),
        "setup_s samples: %s" % ", ".join("%.3f" % s for s in setups),
    ]
    return sweep, values, notes


def layer_value(name, sweep):
    """Resolve a per-layer metric name against the traced sweep."""
    if name == "trace.overhead_frac":
        return sweep["overhead"]
    if name == "trace.instances":
        return sweep["attempted"]
    if name == "trace.spans":
        return sweep["spans"]
    if name.endswith(".entries"):
        return sweep["counters"][name]
    layers = sweep["layers"]
    if name.startswith("setup."):
        layers = sweep["setup_layers"]
        name = name[len("setup."):]
    layer, _, stat = name.rpartition(".")
    if stat == "calls":
        return layers.get(layer, [0, 0.0])[0]
    if stat == "self_s":
        return layers.get(layer, [0, 0.0])[1]
    if stat == "hit_ratio":
        deltas = sweep["counter_deltas"]
        hits = deltas[layer + ".hits"]
        lookups = hits + deltas[layer + ".misses"]
        return hits / lookups if lookups else 0.0
    raise RunError("no rule for per-layer metric %r" % name)


def bypass_violations(workload, layers, rules):
    """Rules of model.json that the traced sweep breaks."""
    out = []
    for rule in rules:
        if rule["workload"] != workload:
            continue
        for prefix in rule["layers"]:
            calls = sum(c for name, (c, _) in layers.items()
                        if name == prefix or name.startswith(prefix + "."))
            if calls != rule["calls"]:
                out.append("%s calls on %s: %d, predicted %d"
                           % (prefix, workload, calls, rule["calls"]))
    return out


def traced(children, args, names):
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, "trace-%s-seed%d.jsonl.gz"
                        % (args.workload, args.seed))
    sweep = children.run("sweep", "--workload", args.workload,
                         "--seed", args.seed, "--seconds", args.seconds,
                         "--trace", path)
    if not sweep["times"]:
        raise RunError("the traced sweep measured no instance")
    # the first quarter of the same cold instances, untraced: enough to
    # price the tracer while the traced run stays well inside its budget
    part = max(1, sweep["attempted"] // 4)
    plain = children.run("sweep", "--workload", args.workload,
                         "--seed", args.seed, "--seconds", args.seconds,
                         "--limit", part, "--no-gate")
    part = min(part, plain["attempted"])
    sweep["overhead"] = (sum(sweep["times"][:part])
                         / sum(plain["times"][:part]) - 1.0)
    values = {name: layer_value(name, sweep) for name in names}
    rules = load_json(os.path.join(BENCH, "model.json"))["bypass"]
    violations = bypass_violations(args.workload, sweep["layers"], rules)
    notes = ["spans written to %s" % os.path.relpath(path, ROOT),
             "tracing overhead %.1f%% over the first %d instances"
             % (100 * sweep["overhead"], part)]
    notes += ["BYPASS VIOLATED: " + v for v in violations]
    notes.append("all traced layers (calls, self s):")
    for name, (calls, self_s) in sorted(sweep["layers"].items(),
                                        key=lambda kv: -kv[1][1]):
        notes.append("  %-34s %10d %10.4f" % (name, calls, self_s))
    return sweep, values, notes, violations


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 1)[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "flagtutte",
                                           "__init__.py")):
            raise RunError("no flagtutte sources under %s"
                           % os.path.join(ROOT, "src"))
        spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise RunError("unknown workload %r" % args.workload)
        if args.seconds < 1 or args.seed < 0:
            raise RunError("--seconds must be >= 1 and --seed >= 0")
        children = Children(RUN_BUDGET_S)
        listed = spec["per_layer"] if args.trace else spec["end_to_end"]
        names = [m["name"] for m in listed]
        violations = []
        if args.trace:
            sweep, values, notes, violations = traced(children, args, names)
        else:
            sweep, values, notes = end_to_end(children, args)
            if sorted(values) != sorted(names):
                raise RunError("metrics %s differ from BENCHMARK.json"
                               % sorted(values))
    except RunError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2

    print("workload %s, seed %d, machine: %d CPUs seen, one worker process "
          "at a time, one thread" % (args.workload, args.seed,
                                     os.cpu_count() or 0))
    for line in notes:
        print(line)
    for error in sweep["errors"]:
        print("error: " + error)
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%-36s %14.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    print(json.dumps({
        "correct": sweep["failed"] == 0 and not violations,
        "attempted": sweep["attempted"],
        "failed": sweep["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
