"""Record the reference outputs of the seed-independent workloads.

    python3 perfbench/record_reference.py

Runs ``chain_euler`` and ``mot_ladder`` once at full and at smoke-test
size and writes their grids, weights and MOT bounds to ``reference.json``.
Run it only on a commit whose outputs are trusted: every later benchmark
run is compared against these values.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import HERE, SRC

sys.path.insert(0, str(SRC))

from workloads import REFERENCE_FILE, WORKLOADS, read_csv  # noqa: E402


def main():
    workdir = HERE / "_work" / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out = workdir / "out"
    reference = {"chain_euler": {}, "mot_ladder": {}}
    for size, tiny in (("full", False), ("tiny", True)):
        chain = WORKLOADS["chain_euler"]
        inputs = chain.build(0, tiny, workdir)
        rc, _ = chain.job(inputs, out)
        if rc != 0:
            raise SystemExit(f"chain exited with {rc}")
        with open(out / "chain.json") as fh:
            data = json.load(fh)
        reference["chain_euler"][size] = {"grids": data["grids"], "weights": data["weights"]}
        mot = WORKLOADS["mot_ladder"]
        inputs = mot.build(0, tiny, workdir)
        rc, _ = mot.job(inputs, out)
        if rc != 0:
            raise SystemExit(f"mot exited with {rc}")
        reference["mot_ladder"][size] = [
            [int(r["N"]), int(r["M"]), float(r["lower"]), float(r["upper"])]
            for r in read_csv(out / "bounds.csv")
        ]
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_FILE}")


if __name__ == "__main__":
    main()
