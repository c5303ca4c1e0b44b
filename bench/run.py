"""Benchmark of the GDA pipeline, one workload per run.

    python3 bench/run.py --workload train-source --seed 1 --seconds 10 --trace 0

Workloads: ``train-source`` (stage-1 training), ``adapt-full`` (stage-2
adaptation with the full objective) and ``score`` (inference and the
discrepancy analyses). A run sets the workload up several times, repeats
its rounds until ``--seconds`` have passed, then checks the outputs. The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``. A human-readable report goes to stderr.

The program is imported from ``src/`` next to this directory and nowhere
else; all files the run writes live under ``.bench_out/`` and are removed
before it exits. See README.md in this directory.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _status(field: str) -> int:
    """An integer field of /proc/self/status (kB for memory fields)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-source", "adapt-full", "score"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _import_program():
    """Make the process run the same way every time, then import `gdafas`
    from this checkout.

    BLAS runs on one thread and the data module renders on the calling
    thread, so all work happens on a single thread. With two BLAS threads
    on this 2-core machine, equal stage-2 runs took 296 to 414 ms per step,
    and the scoring peak RSS jumped between 323 and 411 MB depending on
    which OpenBLAS buffers the threads happened to touch. numpy's advice
    to use transparent huge pages is off too: the kernel granted them in
    some batches of runs and not in others.
    """
    if not os.path.isfile(os.path.join(SRC, "gdafas", "__init__.py")):
        raise SystemExit(f"error: no program at {SRC}/gdafas")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "GDA_THREADS"):
        os.environ[var] = "1"
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path.insert(0, SRC)
    import gdafas
    if not os.path.abspath(gdafas.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: gdafas imported from {gdafas.__file__}")


def run(name, seed, seconds, trace, work_dir):
    import numpy as np
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]()
    tracer = spans.Tracer(spans=bool(trace))
    setup_s, digests, errors, hwm_mb = [], [], [], {}
    last = None
    attempted = failed = threads = 0
    with tracer.installed():
        for i in range(workload.setups):
            with tracer.span(spans.SETUP):
                t0 = time.perf_counter()
                state = workload.setup(os.path.join(work_dir, f"setup{i}"), seed)
                setup_s.append(time.perf_counter() - t0)
        workload.baseline(state, tracer)
        threads = max(threads, _status("Threads"))
        hwm_mb["setup"] = _status("VmHWM") / 1024.0
        with tracer.span("bench.measure"):
            start = time.perf_counter()
            while attempted == 0 or time.perf_counter() - start < seconds:
                attempted += workload.ops
                try:
                    with tracer.round(steps=workload.unit == "step"):
                        last = workload.round(state)
                    digests.append(workload.digest(last))
                except Exception:           # a failed round counts, the run goes on
                    failed += workload.ops
                    errors.append(traceback.format_exc())
            measured_s = time.perf_counter() - start
        threads = max(threads, _status("Threads"))
        # the checks' own reference computations must not count as the
        # program's memory
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        hwm_mb["measure"] = _status("VmHWM") / 1024.0
        with tracer.span("bench.check"):
            if digests:
                bad, quality = workload.check(state, last, digests)
            else:
                bad, quality = ["every round failed"], {"auc": 0.0}
        hwm_mb["check"] = _status("VmHWM") / 1024.0

    if workload.unit == "step":
        samples = tracer.step_times()
    else:
        samples = [end - start for start, _, end in tracer.rounds]
    op_ms = 1e3 * statistics.median(samples) if samples else 0.0
    tail = spans.tail_percentile(samples)
    report = {
        "workload": name, "seed": seed, "trace": trace,
        "rounds": len(tracer.rounds), "op_samples": len(samples),
        "op_ms": op_ms, "op_p90_ms": None if tail is None else 1e3 * tail,
        "measured_s": measured_s, "setup_s": setup_s,
        "peak_rss_mb_after": hwm_mb,
        "quality": quality, "failed_checks": list(bad), "errors": errors,
        "threads": threads, "cores": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
    }
    print(json.dumps(report, indent=1, default=str), file=sys.stderr)
    if trace:
        metrics = spans.layer_metrics(
            tracer.spans, spans.STEP if workload.unit == "step" else spans.ROUND)
    else:
        metrics = {
            "op_ms": (op_ms, "ms"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "auc": (quality["auc"], "1"),
        }
    return {
        "correct": not bad and bool(digests),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    _import_program()
    out_root = os.path.join(ROOT, ".bench_out")
    work_dir = os.path.join(out_root, f"{args.workload}-{os.getpid()}")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(out_root)
        except OSError:
            pass                            # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
