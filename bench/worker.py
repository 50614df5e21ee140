"""
Benchmark worker: runs one pass of a workload in a fresh process
================================================================
Started by run.py with PYTHONPATH pointing at the checkout's ``src``.
One pass per process, as a user runs one ``risfbl`` command per
process, so the peak RSS is that of one pass and not of the allocator
state that earlier passes left behind.  With ``--trace 1`` the pass runs with the
tracer installed and the per-layer metrics of that pass are included.
Before each op, and once after the last, the worker times the
workload's reference kernel (yardstick.py) in the same thread, so every
op is reported both as its raw wall time and scaled to the reference
host's speed.  Prints one JSON object on the last line of stdout.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import threading
import time

import numpy
import scipy

import risfbl
from risfbl import channel, fbl, montecarlo
from risfbl.experiments import ScenarioConfig

import workloads as wl
import yardstick
from tracer import Tracer, layer_metrics

_MAX_FAILURE_MESSAGES = 20


class ThreadCounter:
    """Peak number of threads alive that were started inside the block."""

    def __init__(self):
        self.peak = 0
        self._start = threading.Thread.start

    def __enter__(self):
        counter, start = self, self._start
        base = threading.active_count()

        def counted_start(thread):
            start(thread)
            counter.peak = max(counter.peak, threading.active_count() - base)

        threading.Thread.start = counted_start
        return self

    def __exit__(self, *exc):
        threading.Thread.start = self._start


def _blas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed, worker_threads):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
        "worker_threads": worker_threads,
        "risfbl_file": risfbl.__file__,
    }


def warm_up():
    """Load lazily imported code paths once, outside the timed passes."""
    s = ScenarioConfig()
    fit = channel.fit_snr(s.gains(), 16, s.phase, s.rho())
    fbl.avg_rate_exact(fit, s.packet.blocklength, s.packet.target_bler, s.policy)
    fbl.avg_bler(fit, s.packet.blocklength, s.packet.info_bits)
    montecarlo.sample_snr(s.gains(), 16, s.phase, s.rho(),
                          montecarlo.McConfig(n_samples=100))


def run_pass(ops, kernel, tracer=None):
    """Run every op once, timing reference kernel ``kernel`` around each.

    Returns ({op name: (start, end, scale)}, failed op count, messages).
    ``scale`` is REF_S over the mean kernel time just before and just
    after the op.  Only the library call is timed, not its check; an op
    that raises has no times.
    """
    times, failed, messages = {}, 0, []
    ref = yardstick.ref_s(kernel)
    before = yardstick.measure(kernel)
    for op in ops:
        try:
            t0 = time.perf_counter()
            if tracer is not None and op.span:
                with tracer.span(op.span):
                    out = op.call()
            else:
                out = op.call()
            t1 = time.perf_counter()
            after = yardstick.measure(kernel)
            times[op.name] = (t0, t1, 2.0 * ref / (before + after))
            before = after
            errs = op.check(out)
        except Exception as exc:  # an op that raises is counted, not fatal
            errs = [f"{op.name}: {type(exc).__name__}: {exc}"]
        if errs:
            failed += 1
            messages += errs
    return times, failed, messages


def run(workload, seed, trace, small=False, spans_path=None, cpu=None):
    """One pass of ``workload``, traced or not, as a JSON-ready dict.

    The process is pinned to ``cpu`` when one is given.
    """
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    ref = wl.load_reference()
    ops = wl.build_ops(workload, seed, ref, small=small)
    kernel = wl.KERNEL[workload]
    warm_up()
    yardstick.measure(kernel)
    tracer = Tracer() if trace else None
    with ThreadCounter() as threads, (
            tracer.installed() if tracer else contextlib.nullcontext()):
        times, failed, messages = run_pass(ops, kernel, tracer)
    latencies = {k: (t1 - t0) * 1e3 for k, (t0, t1, _) in times.items()}
    result = {
        "latencies_ms": latencies,
        "scaled_ms": {k: ms * times[k][2] for k, ms in latencies.items()},
        "queries": [op.name for op in ops if op.is_query],
        "attempted": len(ops),
        "failed": failed,
        "failures": messages[:_MAX_FAILURE_MESSAGES],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(seed, threads.peak),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, sum(latencies.values()) / 1e3)
        if spans_path:
            tracer.write(spans_path)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=sorted(wl.KERNEL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", help="write the traced spans here (JSON lines)")
    ap.add_argument("--cpu", type=int, help="pin the process to this CPU")
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.trace, spans_path=args.spans,
                 cpu=args.cpu)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
