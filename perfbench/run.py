"""minqc benchmark: one workload per fresh process, every output checked by an oracle.

    python3 perfbench/run.py --workload synth_haar --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

minqc is imported from the ``src/`` directory beside ``perfbench/``, never
from an installed copy.  ``--workload all`` runs each workload in its own child process,
one after another.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it give the same numbers by name and unit, plus the environment.

A pass is a fixed list of ops whose length depends only on ``--seconds``
(see ``Workload.nominal_op_s``); untraced runs repeat whole passes while one
more still fits in ``--seconds``.  A traced run does one untraced pass, the
same pass traced, and a traced repeat of its first ops, whose exact counts
must match the first time.  Oracle work is never timed.  End-to-end times are
corrected for the host's speed by reference tasks timed all through the run
(``calibrate.py``); the raw times are printed beside them.  BLAS
threading is left as found and recorded.
"""
import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ["verify_all", "synth_haar", "sched_wide", "sched_small"]  # as in workloads.WORKLOADS
SETUP_REPEATS = 9
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_program():
    """A fresh import of minqc (any earlier import is dropped), from src/ only."""
    for name in [n for n in sys.modules if n == "minqc" or n.startswith("minqc.")]:
        del sys.modules[name]
    import minqc
    import minqc.cli  # noqa: F401

    if Path(minqc.__file__).resolve().parent != (SRC / "minqc").resolve():
        raise SystemExit(f"perfbench: imported minqc from {minqc.__file__}, not {SRC}")
    return minqc


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "minqc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def run_pass(wl, indices, tracer=None):
    """Run ops in order; returns [(latency_s, failure reasons, start, end)] and the op span ids."""
    results, op_spans = [], []
    for i in indices:
        wl.before(i)
        out, error = None, None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.op(i)
            else:
                with tracer.span("bench.op") as idx:
                    op_spans.append(idx)
                    out = wl.op(i)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            error = f"op {i}: {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        results.append((t1 - t0, [error] if error else [f"op {i}: {r}" for r in wl.check(i, out)], t0, t1))
    return results, op_spans


def tail(latencies):
    """Highest percentile with at least 10 ops beyond it: (value, percentile, ops beyond).

    With 10 ops or fewer no percentile qualifies, and the maximum is reported.
    """
    ordered = sorted(latencies)
    rank = len(ordered) - 10
    if rank < 1:
        return ordered[-1], 100.0, 0
    return ordered[rank - 1], 100.0 * rank / len(ordered), 10


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(wl, seconds, numpy_import_s):
    """Untraced run; times are corrected for the host's speed (calibrate.py)."""
    import calibrate

    # set-up is a fresh import of minqc, the registry and the inputs,
    # repeated; numpy's one import is timed apart and reported as a detail
    with calibrate.Reference(wl.reference_mix) as ref:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.make_inputs(import_program())
            setups.append((t0, time.perf_counter()))
        wl.prepare_oracle()
        indices = range(wl.count)
        results, passes = [], []
        phase_start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            pass_results, _ = run_pass(wl, indices)
            results += pass_results
            passes.append(len(pass_results))
            now = time.perf_counter()
            if (now - phase_start) + (now - pass_start) > seconds:
                break
    setup_s = statistics.median(ref.corrected(*s) for s in setups)
    raw_setup_s = statistics.median(ref.pure(*s) for s in setups)
    raw = [ref.pure(t0, t1) for _, _, t0, t1 in results]
    latencies = [ref.corrected(t0, t1) for _, _, t0, t1 in results]
    results = [(lat, reasons, t0, t1) for lat, (_, reasons, t0, t1) in zip(raw, results)]

    def per_pass(values):
        ends = [sum(passes[:k + 1]) for k in range(len(passes))]
        return statistics.median(sum(values[end - n:end]) for end, n in zip(ends, passes))

    op_time = sum(latencies)
    tail_s, tail_pct, tail_beyond = tail(latencies)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(per_pass(latencies), "s"),
        "ops_per_s": metric(len(results) / op_time, "1/s"),
        "op_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": metric(tail_s * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    failed = sum(1 for _, reasons, *_ in results if reasons)
    details = {
        "failed_frac": metric(failed / len(results), "1"),
        "op_tail_pct": metric(tail_pct, "%"),
        "op_tail_ops_beyond": metric(tail_beyond, "count"),
        "ops": metric(len(results), "count"),
        "passes": metric(len(passes), "count"),
        "ref_samples": metric(len(ref.starts), "count"),
        **{f"ref_{name}_median_ms": metric(m * 1e3, "ms") for name, m in ref.medians().items()},
        "raw_setup_s": metric(raw_setup_s, "s"),
        "raw_wall_s": metric(per_pass(raw), "s"),
        "raw_ops_per_s": metric(len(results) / sum(raw), "1/s"),
        "raw_op_p50_ms": metric(statistics.median(raw) * 1e3, "ms"),
        "raw_op_tail_ms": metric(tail(raw)[0] * 1e3, "ms"),
        "numpy_import_s": metric(numpy_import_s, "s"),
    }
    colsteps = sum(wl.colsteps(i) for i in indices) * len(passes)
    if colsteps:
        details["colsteps_per_s"] = metric(colsteps / op_time, "1/s")
    trail = {"op_corrected_s": latencies, "op_span_s": [(t0, t1) for _, _, t0, t1 in results],
             "ref_samples_s": {"start": ref.starts, **ref.samples}}
    return results, metrics, details, [], trail


def run_traced(wl):
    import numpy as np
    from layers import EXACT_COUNTS, exact_counts_per_op, layer_metrics
    from tracer import Tracer

    mq = import_program()
    tracer = Tracer()
    tracer.install()
    with tracer.span("bench.setup") as setup_span:
        wl.make_inputs(mq)
    tracer.uninstall()
    wl.prepare_oracle()

    indices = range(wl.count)
    prefix = range(max(1, wl.count // 8))
    untraced, _ = run_pass(wl, indices)
    tracer.install()
    try:
        traced, op_spans = run_pass(wl, indices, tracer)
        repeat, repeat_spans = run_pass(wl, prefix, tracer)
    finally:
        tracer.uninstall()

    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"trace-{wl.name}.npz")
    spans = tracer.spans()
    keep = np.isin(spans.root, [setup_span] + op_spans)
    metrics = {name: metric(v, unit) for name, (v, unit) in layer_metrics(spans, keep).items()}
    overhead = sum(lat for lat, *_ in traced) / sum(lat for lat, *_ in untraced) - 1
    metrics["trace.overhead_frac"] = metric(overhead, "ratio")

    first = exact_counts_per_op(spans, op_spans[: len(prefix)])
    again = exact_counts_per_op(spans, repeat_spans)
    problems = [
        f"op {i}: exact counts {dict(zip(EXACT_COUNTS, a))} on repeat, {dict(zip(EXACT_COUNTS, b))} before"
        for i, (a, b) in enumerate(zip(again, first)) if a != b
    ]
    details = {"spans": metric(len(spans.name), "count"), "repeated_ops": metric(len(prefix), "count")}
    return untraced + traced + repeat, metrics, details, problems, {}


def print_report(env, results, metrics, details, problems, trail):
    failed = sum(1 for _, reasons, *_ in results if reasons)
    print(f"perfbench {env['workload']} seed={env['seed']} trace={env['trace']}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in {**metrics, **details}.items():
        print(f"  {name:40s} {m['value']!s:>24} {m['unit']}")
    for _, reasons, *_ in results:
        for reason in reasons[:3]:
            print("FAILED " + reason)
    for problem in problems:
        print("NONDETERMINISTIC " + problem)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {**result, "details": details, "env": env, "problems": problems,
              "op_latencies_s": [lat for lat, *_ in results], **trail}
    out = OUT_DIR / f"result-{env['workload']}-seed{env['seed']}-trace{env['trace']}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        print(child.stdout, end="", flush=True)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "minqc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no minqc sources at {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    numpy_import_s = time.perf_counter() - t0
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    if args.trace:
        outcome = run_traced(wl)
    else:
        outcome = run_untraced(wl, args.seconds, numpy_import_s)
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    print_report(env, *outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
