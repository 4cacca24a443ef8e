"""Wall-clock benchmark of the PEDAL reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pedal_unique --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same workload with the outside-in layer tracer
(``tracer.py``) and reports per-layer metrics; its spans are written to
``perfbench/out/``.  The last line of standard output is the result
object; the line before it carries host/config metadata and the BLAKE2b
digest of every compressed output.  See ``NOTES.md`` for the workloads
and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# Set-up is timed in this many fresh interpreters plus the run's own.
SETUP_PROBES = 5
# A seed kept out of tuning, for confirming a claimed gain later.
CONFIRM_SEED = 20261017


def _setup_probe_times(workload: str) -> "list[tuple[float, float]]":
    """(raw, reference-host) set-up seconds from fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe failed with code {proc.returncode}")
        raw, norm = proc.stdout.split()[-2:]
        times.append((float(raw), float(norm)))
    return times


def _git_commit() -> "str | None":
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _metadata(args, meter, tally, n_ops) -> dict:
    import numpy

    from repro import obs
    from repro.util.kernels import ENV_VAR, kernel_mode

    return {
        "workload": args.workload,
        "seed": args.seed,
        "confirm_seed": CONFIRM_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": n_ops,
        "failed_frac": tally.failed_frac,
        "failures": tally.reasons,
        "output_digest": meter.digest.hexdigest(),
        **meter.extra,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_mode": kernel_mode(),
        "scalar_kernels_env_set": ENV_VAR in os.environ,
        "git_commit": _git_commit(),
        # The program's own telemetry stays at its default (off).
        "program_telemetry": {
            "metrics": obs.get_metrics().recording,
            "tracer": obs.get_tracer().recording,
            "profiler": obs.get_profiler().recording,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # stdlib only at import: set-up timing starts below

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    setup, make_inputs, run = workloads.WORKLOADS[args.workload]

    if args.trace:
        import repro  # noqa: F401  (the tracer resolves targets in loaded modules)
        from tracer import Tracer

        trace = Tracer()
        with trace.window():
            state = setup()
    else:
        setup_times = _setup_probe_times(args.workload)
        before = workloads.probe_scale()
        start = perf_counter()
        state = setup()
        raw = perf_counter() - start
        setup_times.append((raw, raw * (before + workloads.probe_scale()) / 2))
        trace = workloads.NoTrace()

    ops = make_inputs(args.seed, args.seconds)
    meter, tally = run(state, ops, trace)

    meta = _metadata(args, meter, tally, len(ops))
    if args.trace:
        metrics = trace.metrics(meter.tracing_overhead())
        OUT_DIR.mkdir(exist_ok=True)
        trace.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", meta)
    else:
        summary = meter.summary()
        meta.update(setup_samples_s=[list(t) for t in setup_times], timing=summary)
        norm = summary["norm"]
        metrics = {
            "setup_s": (statistics.median(norm for _, norm in setup_times), "s"),
            "norm_throughput_mbps": (norm["throughput_mbps"], "MB/s"),
            "norm_op_p50_ms": (norm["op_p50_ms"], "ms"),
            "norm_op_p90_ms": (norm["op_p90_ms"], "ms"),
            "ratio": (meter.comp_in / meter.comp_out if meter.comp_out else 0.0, "x"),
            "sim_s": (meter.sim_total, "s"),
            "sim_p99_ms": (workloads.percentile(meter.sim_samples, 99) * 1e3
                           if meter.sim_samples else 0.0, "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
