"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py [--first-seed 1] WORKLOAD...

Runs the benchmark once per seed (``RUNS`` seeds from ``--first-seed``)
with the run length of ``BENCHMARK.json`` and prints, for each end-to-end
metric, the median and the distance between the first and third quartile
as a share of the median, beside the metric's bound.  The raw results go
to ``perfbench/_work/steadiness-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT

RUNS = 10  # as many runs as the acceptance check makes per workload


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("workloads", nargs="+")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    (HERE / "_work").mkdir(exist_ok=True)
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            print(workload, seed, result["correct"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        with open(HERE / "_work" / f"steadiness-{workload}.json", "w") as fh:
            json.dump(results, fh, indent=1)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            print(f"{workload:12s} {name:12s} median {med:10.4f} spread {spread:7.4f} "
                  f"bound {bound:5.3f} {'ok' if spread < bound / 3 else 'WIDE'}", flush=True)


if __name__ == "__main__":
    main()
