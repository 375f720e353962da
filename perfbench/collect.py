"""Repeat benchmark runs over seeds and report each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 1]
                                 [--json results.json]

Runs ``run.py`` once per (workload, seed), one run at a time, with the
``run_seconds`` of BENCHMARK.json. For every metric it prints the median,
the quartiles and the interquartile range as a share of the median, and
for end-to-end metrics whether that share is below a third of the
metric's bound. ``--json`` merges the environment, the summary (under
``end_to_end`` or ``per_layer``) and every run's result into a file, the
form of BASELINE.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def environment() -> dict:
    import platform
    versions = {}
    for mod in ("numpy", "requests"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = None
    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((line.split(":", 1)[1].strip()
                    for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), "")
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **versions,
            "caveat": "pipelines run with --parallelism 2 on a 2-core machine; "
                      "CPU-bound results above parallelism 2 mean nothing there"}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    ok = True
    for workload in args.workloads.split(","):
        results[workload] = []
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            t = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            took = time.perf_counter() - t
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            for line in proc.stdout.splitlines():
                if line.startswith("# raw ") and result.get("metrics"):
                    name, _, rest = line[6:].partition(": median ")
                    result["metrics"]["raw " + name] = {"value": float(rest.split()[0])}
            result.update(seed=seed, exit=proc.returncode, took_s=took)
            results[workload].append(result)
            print(f"{workload} seed {seed}: exit {proc.returncode}, {took:.1f} s, "
                  f"correct {result.get('correct')}", flush=True)
            if proc.returncode != 0:
                ok = False
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
        runs = [r for r in results[workload] if r.get("metrics")]
        if not runs:
            continue
        print(f"\n{workload}: {len(runs)} runs")
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "iqr_over_median": rel, "n": len(values)}
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and args.trace == 0:
                steady = name == "setup_s" or rel < bound / 3
                ok &= steady or name == "setup_s"
                verdict = f"bound {bound:<5} {'ok' if steady else 'TOO WIDE'}"
            print(f"  {name:<44} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"iqr/median {rel:<8.4f} {verdict}")
    if args.json:
        path = Path(args.json)
        data = json.loads(path.read_text()) if path.exists() else {}
        section = "per_layer" if args.trace else "end_to_end"
        data["environment"] = environment()
        data[section] = {"run_seconds": bench["run_seconds"], "seeds": args.seeds,
                         "summary": summary, "runs": results}
        path.write_text(json.dumps(data, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
