"""mapcert benchmark launcher: four closed-loop, truth-checked workloads.

    python3 perfbench/run.py --workload analyze-large --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones; the last stdout line is the JSON result.  Each measurement runs in a
fresh worker process (worker.py) with BLAS threads, the hash seed and malloc
thresholds pinned; timed runs report their timings at reference speed
(refclock.py).  See README.md for the workloads, the truth table and every
metric.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 6  # fresh processes that only set up; the timed one makes seven
TIMEOUT_S = 170

# One BLAS thread: on a small machine the default pool costs about a second
# on its first call and widens the spread of every timing.  One hash seed, so
# every process lays out its dicts and sets alike.  Fixed malloc
# thresholds at the top of glibc's sliding range: with the sliding ones, the
# peak RSS of analyze-large depended on the byte size of the environment and
# arguments (211 or 260 MB for the same inputs).  These keep the speed of the
# default; a low fixed mmap threshold cost analyze-large about 9 %.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
          "MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "67108864"}


def _worker(args, mode, deadline):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    pins = " ".join(f"{k}={v}" for k, v in PINNED.items())
    return (f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, BLAS {blas}, {pins}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mapcert benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "mapcert", "__init__.py")):
        print(f"error: {ROOT} holds no mapcert sources (src/mapcert)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    os.environ.update(PINNED)

    print(f"environment: {_environment()}")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else f'{args.seconds:g} s timed'}, closed loop, 1 client")
    if args.trace:
        result = _worker(args, "traced", deadline)
        metrics = result["metrics"]
        print(f"untraced pass {result['untraced_pass_s']:.3f} s, traced pass {result['traced_pass_s']:.3f} s")
    else:
        setups = [_worker(args, "probe", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        result = _worker(args, "timed", deadline)
        setups.append(result["setup_s"])
        attempted, failed = result["attempted"], result["failed"]
        metrics = {
            "items_per_s": {"value": result["items_per_s"], "unit": "1/s"},
            "call_p50_s": {"value": result["call_p50_s"], "unit": "s"},
            "call_tail_s": {"value": result["call_tail_s"], "unit": "s"},
            "pass_ratio": {"value": 1.0 - failed / attempted, "unit": "1"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        print(f"{result['passes']} passes, {result['calls']} calls in {result['wall_s']:.2f} s; "
              f"set-up samples {', '.join(f'{s:.3f}' for s in setups)} s")
        print(f"call_tail_s is p{result['tail_percentile']:.1f} of {result['calls']} calls")
        print(f"reference clock: {result['reps']} {result['rep_kind']} reps, median "
              f"{result['rep_p50_s'] * 1e3:.3f} ms (nominal {result['rep_nominal_s'] * 1e3:g} ms), "
              f"{100 * result['rep_share']:.1f} % of the run")
        print(f"wall clock, net of reps: items_per_s {result['wall_items_per_s']:.6g} 1/s, "
              f"call_p50_s {result['wall_call_p50_s']:.6g} s, call_tail_s {result['wall_call_tail_s']:.6g} s")
        print(f"fail_ratio {failed / attempted:.6f} 1 ({failed} of {attempted} items failed)")
    for label, (reason, count) in sorted(result["failures"].items()):
        print(f"FAILED x{count}: {label}: {reason}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": bool(result["reproducible"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
