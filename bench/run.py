"""
risfbl benchmark
================
    python3 bench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Runs one workload named in BENCHMARK.json against the library in this
checkout's ``src/``, one pass after another for up to ``--seconds``
(at least one pass).  Each pass runs in a fresh single-threaded worker
process (worker.py), pinned to one CPU, so its peak RSS is its own.
Every time is scaled to the reference host's speed by a reference
kernel timed around it on the same CPU (yardstick.py), and each op
keeps the median of its scaled times over the run's passes.  With ``--trace 0`` the run
reports the end-to-end metrics; ``setup_s`` is the median over several
fresh processes that start, import risfbl and build a ScenarioConfig.
With ``--trace 1`` it reports the per-layer metrics of traced passes.

Every child runs with one BLAS thread, so a run computes on one thread
at a time.  The last line of stdout is the
result object; the full result, with its environment block, goes to
``.bench_out/`` in the checkout.  Exits with code 2, printing no
result, when the checkout has no ``src/risfbl``.
"""

import argparse
import hashlib
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 7
SETUP_CODE = ("import risfbl\n"
              "from risfbl.experiments import ScenarioConfig\n"
              "ScenarioConfig()\n")
RUN_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def timed_setup(cmd, env):
    """Wall time from spawning ``cmd`` until it has exited.

    Waits in a blocking waitpid: subprocess's own timeout polls the child
    in steps of up to 50 ms, which would round every time up to that step.
    A timer kills a child that hangs.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env)
    guard = threading.Timer(60.0, proc.kill)
    guard.start()
    try:
        code = proc.wait()
    except BaseException:  # SIGTERM: end the child before unwinding
        proc.kill()
        proc.wait()
        raise
    finally:
        guard.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        fail(f"set-up process exited with code {code}")
    return elapsed


def measure_setup(env, cpu):
    """Median scaled wall time of fresh processes that import risfbl.

    This process and its children run on ``cpu`` meanwhile; each child's
    time is scaled by the series kernel timed here just before and just
    after it.  Returns the median and the raw and scaled times.
    """
    import yardstick  # numpy, so only once main() has set the BLAS threads

    def kernel_time():
        return statistics.median(yardstick.measure("series") for _ in range(3))

    cmd = [sys.executable, "-c", SETUP_CODE]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        timed_setup(cmd, env)  # fills __pycache__
        before = kernel_time()
        raw, scaled = [], []
        for _ in range(SETUP_RUNS):
            t = timed_setup(cmd, env)
            after = kernel_time()
            raw.append(t)
            scaled.append(t * 2.0 * yardstick.ref_s("series") / (before + after))
            before = after
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(scaled), raw, scaled


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else None
    return ref


def source_sha256():
    h = hashlib.sha256()
    for p in sorted((SRC / "risfbl").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_worker(args, trace, env, cpu, spans, t_begin):
    """One pass in a fresh worker process, pinned to ``cpu``."""
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"),
           "--workload", args.workload, "--trace", str(trace),
           "--seed", str(args.seed), "--cpu", str(cpu)]
    if trace:
        cmd += ["--spans", str(spans)]
    budget = RUN_LIMIT_S - (time.perf_counter() - t_begin)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish within {RUN_LIMIT_S:.0f} s of the start")
    if proc.returncode != 0:
        fail(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def op_latencies(passes, key="scaled_ms"):
    """Each op's median latency (ms) over the passes it completed in."""
    seen = {}
    for r in passes:
        for name, ms in r[key].items():
            seen.setdefault(name, []).append(ms)
    return {name: statistics.median(v) for name, v in seen.items()}


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def pass_wall(passes, key="scaled_ms"):
    """Wall time of one pass, each op at its median latency, in seconds."""
    return sum(op_latencies(passes, key).values()) / 1e3


def query_latencies(passes):
    lat = op_latencies(passes)
    return [lat[q] for q in passes[0]["queries"] if q in lat]


def end_to_end_metrics(passes, setup_s):
    queries = query_latencies(passes)
    return {
        "wall_s": pass_wall(passes),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in passes) / 1024,
        "query_p50_ms": percentile(queries, 50),
        "query_p90_ms": percentile(queries, 90),
    }


def trace_overhead_pct(passes, traced):
    """Median extra latency of an op in a traced pass, in percent.

    Each traced pass ran right after an untraced one on the same CPU;
    every op of such a pair gives one traced/untraced ratio of scaled
    latencies.  Pairing cancels host speed changes between pairs, and
    the median over ops damps the ones within a pass.
    """
    ratios = [t["scaled_ms"][op] / u["scaled_ms"][op]
              for u, t in zip(passes, traced)
              for op in u["scaled_ms"].keys() & t["scaled_ms"].keys()]
    return 100.0 * (statistics.median(ratios) - 1.0)


def per_layer_metrics(passes, traced):
    """Median over the traced passes, plus the tracer's own cost."""
    values = {k: statistics.median(r["layers"][k] for r in traced)
              for k in traced[0]["layers"]}
    values["traced_wall_s"] = pass_wall(traced)
    values["trace_overhead_pct"] = trace_overhead_pct(passes, traced)
    return values


def main(argv=None):
    # SIGTERM unwinds like an exception, so running workers are killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path.name} not found next to bench/")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description="risfbl benchmark")
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=None,
                    help="Monte Carlo seed / point order (default McConfig().seed)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "risfbl" / "__init__.py").is_file():
        fail(f"no risfbl sources under {SRC}; run from a full checkout")
    t_begin = time.perf_counter()
    env = child_env()
    # the workload table imports numpy here too; keep it to one BLAS thread
    os.environ.update({k: env[k] for k in BLAS_THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import workloads as wl
    if args.seed is None:
        args.seed = wl.McConfig().seed
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)

    cpus = sorted(os.sched_getaffinity(0))
    setup = setup_raw = setup_scaled = None
    if args.trace == 0:
        setup, setup_raw, setup_scaled = measure_setup(env, cpus[0])

    # Untraced passes; with --trace 1 each is followed by a traced one
    # on the same CPU.  The passes take the CPUs in turn, one per round,
    # and each op keeps the median of its scaled times over the passes.
    # Rounds repeat while the next one should end within --seconds.
    passes, traced = [], []
    modes = (0, 1) if args.trace else (0,)
    t_passes = time.perf_counter()
    for n in itertools.count():
        t_round = time.perf_counter()
        for mode in modes:
            cpu = cpus[n % len(cpus)]
            spans = OUT / f"spans-{tag}-pass{n}.jsonl"
            (traced if mode else passes).append(
                run_worker(args, mode, env, cpu, spans, t_begin))
        # stop before a round that, as long as the last, would end late
        now = time.perf_counter()
        if now + (now - t_round) - t_passes > args.seconds:
            break
        if now + (now - t_round) - t_begin > RUN_LIMIT_S:
            break
    res = passes[0]
    if not Path(res["env"]["risfbl_file"]).resolve().is_relative_to(SRC):
        fail(f"worker imported risfbl from {res['env']['risfbl_file']}, not {SRC}")
    queries = query_latencies(passes)
    attempted = sum(r["attempted"] for r in passes + traced)
    failed = sum(r["failed"] for r in passes + traced)
    failures = [m for r in passes + traced for m in r["failures"]]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace == 0:
        values = end_to_end_metrics(passes, setup)
        wanted = [m["name"] for m in spec["end_to_end"]]
    else:
        values = per_layer_metrics(passes, traced)
        wanted = [m["name"] for m in spec["per_layer"]]
    if sorted(values) != sorted(wanted):
        fail(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(wanted)}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in wanted}

    env_block = dict(res["env"], nproc=len(cpus),
                     threads_started=max(1, res["env"]["worker_threads"]),
                     cpu_model=cpu_model(), git_commit=git_commit(),
                     source_sha256=source_sha256())
    full = {"workload": args.workload, "trace": args.trace,
            "seconds": args.seconds, "env": env_block, "metrics": metrics,
            "untraced_wall_s": pass_wall(passes),
            "raw_wall_s": pass_wall(passes, "latencies_ms"),
            "pass_walls_s": [sum(r["scaled_ms"].values()) / 1e3 for r in passes],
            "pass_raw_walls_s": [sum(r["latencies_ms"].values()) / 1e3
                                 for r in passes],
            "traced_pass_walls_s": [sum(r["scaled_ms"].values()) / 1e3
                                    for r in traced],
            "pass_peak_rss_mb": [r["peak_rss_kb"] / 1024 for r in passes],
            "query_samples": len(queries),
            "setup_raw_s": setup_raw,
            "setup_scaled_s": setup_scaled,
            "attempted": attempted, "failed": failed, "failures": failures}
    (OUT / f"result-{tag}.json").write_text(json.dumps(full, indent=1) + "\n")

    print("env " + json.dumps(env_block, sort_keys=True))
    for msg in failures[:20]:
        print(f"FAILED {msg}")
    print(f"{args.workload}: {len(passes)} untraced and {len(traced)} traced "
          f"pass(es), {len(queries)} queries, {attempted} ops, {failed} failed")
    for k in wanted:
        print(f"  {k:48s} {values[k]:.6g} {units[k]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
