"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads sched_wide synth_haar --seeds 1-10

Runs ``run.py`` once per (workload, seed), one process at a time, and prints
for each metric its median and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the bound in BENCHMARK.json, and the same for the uncorrected
``raw_<metric>`` figures of the run records.  Results also go to
``.perfbench_out/spread-<workload>.json``.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            record = ROOT / ".perfbench_out" / f"result-{workload}-seed{seed}-trace0.json"
            details = json.loads(record.read_text())["details"]
            result["raw"] = {k: v for k, v in details.items() if k.startswith("raw_")}
            ok = ok and result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread <= m["bound"] / 3 else "  above bound/3"
            print(f"  {workload:12s} {m['name']:12s} median {median:.5g} {m['unit']:4s} "
                  f"spread {spread:.3f} (bound {m['bound']}){flag}")
        for name in runs[0]["raw"]:
            q1, median, q3 = statistics.quantiles([r["raw"][name]["value"] for r in runs], n=4)
            print(f"  {workload:12s} {name:16s} median {median:.5g} spread {(q3 - q1) / median:.3f}")
        out_file = ROOT / ".perfbench_out" / f"spread-{workload}.json"
        out_file.parent.mkdir(exist_ok=True)
        out_file.write_text(json.dumps({"seeds": args.seeds, "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
