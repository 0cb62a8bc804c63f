"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` at smoke-test size (``--tiny``),
untraced and traced, and asserts that the result line carries exactly the
metrics ``BENCHMARK.json`` names, each with its unit, and that no
operation failed.  Then checks that a directory holding only
``BENCHMARK.json`` and the benchmark's files makes the benchmark exit with
an error and no result.  Takes a minute or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import HERE, ROOT


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in bench["workloads"]:
        for trace in (0, 1):
            proc = run(ROOT, w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["failed"] == 0, proc.stderr
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], (w["name"], trace, set(got) ^ set(expected[trace]))
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (name, metric)
            print(f"ok {w['name']} trace {trace}: {result['attempted']} operations")

    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run(bare, bench["workloads"][0]["name"], 0)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    shutil.rmtree(bare)
    print("ok a checkout without the program exits with", proc.returncode)


if __name__ == "__main__":
    main()
