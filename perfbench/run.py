"""eqgen benchmark: one workload per run, closed loop, one BLAS thread.

    python3 perfbench/run.py --workload mle_train --seed 1 --seconds 10 --trace 0

Run from the root of an eqgen checkout; eqgen is imported from ./src.
The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 it holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run. The line before it records
the run's conditions and the workload's own metric names.
"""

import os

# Pinned before numpy loads: at these matrix sizes extra BLAS threads add
# CPU time and run-to-run spread, not speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
CACHE_DIR = ROOT / ".perfbench_cache"

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "inst_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "quality": "frac",
}


def blas_info() -> dict:
    """BLAS library name from numpy's build record, and the thread count
    the loaded OpenBLAS reports."""
    import numpy as np

    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "unknown")
    threads, libs = None, set()
    with contextlib.suppress(OSError), open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": name, "threads": threads}


def conditions(seed: int, sub_seeds: dict) -> dict:
    import numpy as np

    from workloads import source_digest

    commit = None  # a checkout exported without .git records only the source digest
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    return {
        "commit": commit,
        "source_sha256": source_digest(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "sub_seeds": sub_seeds,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--train-model", metavar="PATH", help="train the decode/RL model into PATH and exit")
    args = p.parse_args()

    if not (ROOT / "src" / "eqgen" / "__init__.py").is_file():
        print(f"perfbench: no eqgen sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    import workloads
    from spans import PER_LAYER, Tracer, layer_metrics

    if args.train_model:
        workloads.train_model(args.train_model)
        return 0
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    threads = blas_info()["threads"]
    if threads not in (None, 1):
        print(f"perfbench: BLAS runs {threads} threads, expected 1", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    ctx = {"root": ROOT, "out_dir": OUT_DIR}
    if args.workload in ("decode_beam10", "rl_beam6"):
        ctx["model"] = workloads.ensure_model(ROOT, CACHE_DIR)

    tracer = Tracer()
    if args.trace:
        tracer.install()
    try:
        out = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer, ctx)
    finally:
        tracer.uninstall()

    latency = out.op_latency_ms() if out.latency_ms is None else out.latency_ms
    p50, p90 = (float(v) for v in np.percentile(latency, [50, 90])) if latency else (0.0, 0.0)
    end_to_end = {
        "setup_s": out.setup_s,
        "peak_rss_mb": out.peak_rss_mb,
        "inst_per_s": out.inst_per_s,
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "quality": out.quality,
    }
    named = {
        "setup_s": (out.setup_s, "s"),
        "peak_rss_mb": (end_to_end["peak_rss_mb"], "MB"),
        **out.named,
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "timed_calls": len(out.op_ms),
        "operations": len(out.round_ms),
        "round_s": [sum(out.op_ms[a:b]) / 1e3 for a, b in zip(out.round_starts, out.round_starts[1:])],
        "conditions": conditions(args.seed, out.seeds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }
    if args.trace:
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        # untraced figures come only from --trace 0; these show tracing overhead
        record["traced_end_to_end"] = end_to_end
        layers = layer_metrics(tracer.spans, out.steps, out.insts)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
