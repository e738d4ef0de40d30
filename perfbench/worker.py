"""One benchmark process: set up a workload, then time it or trace it.

Started by run.py, which pins BLAS threads, the hash seed and malloc
thresholds in the environment before this process starts.  Prints one JSON
object as its last stdout line.

    python3 perfbench/worker.py --root . --workload sweep-grid --seed 1 \
        --seconds 20 --mode timed|traced|probe
"""

import time

T0 = time.perf_counter()  # set-up time starts before numpy or mapcert load

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def run_pass(workload, failures, tracer=None):
    """One closed-loop pass over the fixed input set.

    Returns ((start, end) of each call, items, labels of the failed items).
    Each call's output is checked after its end is taken.
    """
    calls, items, failed = [], 0, set()
    for op_id, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.begin_op(op_id)
        start = time.perf_counter()
        outcome = op.invoke()
        calls.append((start, time.perf_counter()))
        bad = op.check(outcome)
        items += op.items
        failed.update(bad)
        for label, reason in bad.items():
            failures.setdefault(label, [reason, 0])[1] += 1
    return calls, items, failed


def tail(latencies):
    """Highest percentile with at least ten calls above it: (value, pct, n)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def timed(workload, seconds):
    """Closed-loop passes for ``seconds``, with the reference clock running.

    Latencies are net of the reference reps inside each call.  The reported
    ones are at reference speed (net * local scale, see refclock.py); the
    wall-clock ones are returned beside them for the log.
    """
    from refclock import Sampler

    failures, calls, items, failed, passes, fail_sets = {}, [], 0, 0, 0, set()
    sampler = Sampler(workload.reference)
    sampler.start()
    try:
        start = time.perf_counter()
        while passes == 0 or time.perf_counter() - start < seconds:
            pass_calls, n_items, bad = run_pass(workload, failures)
            if passes == 0:
                # Peak memory of one call per input.  Later passes only add
                # allocator fragmentation, which varies with the pass count.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            calls += pass_calls
            items += n_items
            failed += len(bad)
            passes += 1
            fail_sets.add(frozenset(bad))
        wall_s = time.perf_counter() - start
    finally:
        sampler.stop()
    wall = [sampler.net(s, e) for s, e in calls]
    latencies = [w * sampler.scale(s, e) for w, (s, e) in zip(wall, calls)]
    reps = sampler.durations()
    tail_value, tail_pct, n_calls = tail(latencies)
    return {
        "attempted": items,
        "failed": failed,
        "reproducible": len(fail_sets) == 1,
        "failures": failures,
        "passes": passes,
        "wall_s": wall_s,
        "items_per_s": items / sum(latencies),
        "call_p50_s": statistics.median(latencies),
        "call_tail_s": tail_value,
        "tail_percentile": tail_pct,
        "calls": n_calls,
        "peak_rss_mb": peak_rss_mb,
        "wall_items_per_s": items / sum(wall),
        "wall_call_p50_s": statistics.median(wall),
        "wall_call_tail_s": tail(wall)[0],
        "reps": len(reps),
        "rep_kind": workload.reference,
        "rep_nominal_s": sampler.reference.nominal_s,
        "rep_p50_s": statistics.median(reps),
        "rep_share": sum(reps) / wall_s,
    }


def traced(workload, outdir, name, seed):
    import numpy
    import mapcert
    from spans import Tracer

    failures = {}
    start = time.perf_counter()
    _, items, bad = run_pass(workload, failures)
    plain_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install(mapcert, numpy)
    try:
        start = time.perf_counter()
        _, t_items, t_bad = run_pass(workload, failures, tracer)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(outdir, f"spans-{name}-seed{seed}.jsonl"))
    return {
        "attempted": items + t_items,
        "failed": len(bad) + len(t_bad),
        "reproducible": bad == t_bad,
        "failures": failures,
        "passes": 2,
        "untraced_pass_s": plain_s,
        "traced_pass_s": traced_s,
        "metrics": tracer.metrics((traced_s - plain_s) / plain_s),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "traced", "probe"), default="timed")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mapcert", "__init__.py")):
        print(f"error: no mapcert sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import mapcert

    if not os.path.abspath(mapcert.__file__).startswith(src + os.sep):
        print(f"error: imported mapcert from {mapcert.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    outdir = os.path.join(root, ".perfbench_out")
    workdir = os.path.join(outdir, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        workload.warmup()
        setup_s = time.perf_counter() - T0
        if args.mode == "probe":
            result = {}
        elif args.mode == "traced":
            result = traced(workload, outdir, args.workload, args.seed)
        else:
            result = timed(workload, args.seconds)
    finally:
        for entry in os.listdir(workdir):
            os.remove(os.path.join(workdir, entry))
        os.rmdir(workdir)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
