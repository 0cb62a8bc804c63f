"""martquant benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/``; a
checkout without it exits with code 2 and prints no result.  Jobs of the
chosen workload run back to back until ``--seconds`` have passed (at least
two of them); each job's outputs are checked after its timing stops.  The
last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: medians over the jobs, and
for ``peak_rss_mb`` the growth of the resident set during the first job.
``--trace 1`` alternates untraced and traced jobs and reports the
per-layer metrics of the traced ones, the tracing overhead (traced minus
untraced median wall time, in reference seconds), and the untraced jobs'
raw times with the speed factor that rescaled them; the spans go to
``perfbench/_work/<workload>/spans.csv``.

Times are reported in reference seconds.  The shared machines this runs on
change speed by up to half for seconds to minutes at a time, which moves
every raw time, though not all alike.  So a fixed probe loop of a few
milliseconds is timed before, every ``PROBE_EVERY_S`` during, and after
each job and each build of the inputs.  A time ``t`` is reported as ``t *
reference probe time / mean probe time``, counting only the probe parts
that do the workload's kind of work (``Workload.probe_parts``), with the
probes' own time taken out of ``t``.  The import timed in a fresh
interpreter is rescaled by probes that interpreter runs right before and
after it.  Raw per-job times go to standard error.

``--tiny`` shrinks every workload for the smoke test (``smoke.py``).
"""

from __future__ import annotations

import argparse
import json
import mmap
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread, set before numpy loads: the benchmark is a single caller,
# and a second BLAS thread contending with other processes on a small
# machine makes job times jumpy
BLAS_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
MIN_JOBS = 2  # two jobs' outputs are compared; a traced run needs one of each
MAX_RUN_S = 150.0  # no job starts after this, so a run ends well within 180 s
# rescaled times are times on a machine where each part of the probe takes
# this long, about what it takes on the machine the benchmark was written on
PROBE_REF_S = {"python": 0.0007, "small": 0.0024, "stream": 0.006, "fault": 0.005}
PROBE_EVERY_S = 0.2
SETUP_PARTS = ("python", "small", "stream")


def probe_arrays():
    """The arrays the probe works on, allocated once, so that a probe
    allocates nothing from the program's heap and leaves it as it found it."""
    table = np.ones((200, 4000))
    return table, np.empty_like(table), np.linspace(0.0, 1e-9, 200), np.linspace(0.0, 1.0, 4000)


def _python(arrays):
    acc = 0
    for i in range(6000):
        acc += i * i % 7


def _small(arrays):
    small = np.linspace(0.0, 1.0, 64)
    for _ in range(300):
        small = np.clip(small * 1.0001, 0.0, 2.0)


def _stream(arrays):
    table, outer, col, row = arrays
    for _ in range(3):
        np.outer(col, row, out=outer)
        np.subtract(table, outer, out=table)


def _fault(arrays):
    # a fresh anonymous mapping, outside malloc's heap, written once
    mapped = mmap.mmap(-1, 4 << 20)
    pages = np.frombuffer(mapped, dtype=np.float64)
    pages.fill(1.0)
    del pages
    mapped.close()


# a few milliseconds of each kind of work the program does: interpreted
# Python, numpy calls on small arrays, rank-one updates streaming in place
# through a table of a few MB that does not fit in a core's cache, and
# first writes to fresh pages, as when a large array is made
PROBE_PARTS = {"python": _python, "small": _small, "stream": _stream, "fault": _fault}


def probe_loop(arrays, parts) -> float:
    """Seconds taken by one run of each of the named probe parts."""
    total = 0.0
    for part in parts:
        t0 = time.perf_counter()
        PROBE_PARTS[part](arrays)
        total += time.perf_counter() - t0
    return total


class SpeedProbe:
    """Machine speed sampled around and during a timed stretch of work.

    ``probe_loop`` runs the probe ``parts`` that do the same kind of work as
    the measured code, once at :meth:`start`, every ``PROBE_EVERY_S`` from a
    SIGALRM handler until :meth:`stop`, and once at :meth:`stop`.  The time
    spent in the handler is taken out of the measured time."""

    def __init__(self, parts, arrays):
        self.parts = parts
        self.arrays = arrays
        self.samples = []  # time of ``parts`` in each probe
        self.inside = [0.0, 0.0]  # wall and CPU spent probing between start and stop

    def _probe(self):
        t0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(probe_loop(self.arrays, self.parts))
        return time.perf_counter() - t0, time.process_time() - c0

    def _handler(self, signum, frame):
        wall, cpu = self._probe()
        self.inside[0] += wall
        self.inside[1] += cpu

    def start(self):
        self.samples, self.inside = [], [0.0, 0.0]
        self._probe()
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._probe()

    def rescale(self, wall, cpu):
        """Wall and CPU time measured between start and stop, without the
        probes, in reference seconds."""
        speed = sum(PROBE_REF_S[p] for p in self.parts) / statistics.fmean(self.samples)
        return (wall - self.inside[0]) * speed, (cpu - self.inside[1]) * speed


IMPORT_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from run import SETUP_PARTS, probe_arrays, probe_loop
arrays = probe_arrays()
def probe():
    return sorted(probe_loop(arrays, SETUP_PARTS) for _ in range(5))[2]
before = probe()
t0 = time.perf_counter()
import martquant.cli
imported = time.perf_counter() - t0
print(imported, (before + probe()) / 2)
"""


def import_seconds() -> float:
    """Reference seconds to import the CLI in a fresh interpreter that has
    loaded numpy, rescaled by probes the child runs right before and right
    after its import."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE, str(HERE)],
        cwd=ROOT,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin", **BLAS_ENV},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    imported, probe = map(float, proc.stdout.split())
    return imported * sum(PROBE_REF_S[p] for p in SETUP_PARTS) / probe


def resident_mb() -> float:
    """The process's resident set now, in MiB (Linux)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() / 2**20


def peak_mb() -> float:
    """The process's peak resident set so far, in MiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "martquant" / "__init__.py").is_file():
        print(f"error: no martquant sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import martquant.cli  # noqa: F401  (loads every module before tracing)
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = HERE / "_work" / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    # set-up: importing the program, parsing the config, building inputs;
    # the probes of set-up and jobs share one set of arrays, made first, so
    # that no freed probe array lowers the resident set before the first job
    arrays = probe_arrays()
    probe = SpeedProbe(SETUP_PARTS, arrays)
    setups = []
    for _ in range(SETUP_REPEATS):
        import_s = import_seconds()
        probe.start()
        t0 = time.perf_counter()
        inputs = workload.build(args.seed, args.tiny, workdir)
        build_s = time.perf_counter() - t0
        probe.stop()
        build_ref = probe.rescale(build_s, 0.0)[0]
        setups.append(import_s + build_ref)
        print(f"setup: import {import_s:.4f}, inputs {build_ref:.4f} reference s", file=sys.stderr)
    setup_s = statistics.median(setups)
    probe = SpeedProbe(workload.probe_parts, arrays)

    tracer = Tracer() if args.trace else None
    ref_walls = {False: [], True: []}  # by traced
    ref_cpus = []
    raw = []  # untraced jobs: (wall, cpu, reference / probe time)
    layers = []
    attempted = failed = 0
    notes: list[str] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    prev = None
    job = 0
    resident = resident_mb()
    print(f"resident before the first job {resident:.2f} MiB, peak so far {peak_mb():.2f} MiB", file=sys.stderr)
    while True:
        traced = bool(args.trace) and job % 2 == 1
        out = workdir / f"job{job % 2}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        if traced:
            tracer.reset(job)
            tracer.install()
        probe.start()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = workload.job(inputs, out)
        except Exception as exc:  # a crash fails the job's operations
            result, error = None, exc
        else:
            error = None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        probe.stop()
        if job == 0:
            # the first job's growth of the resident set, before any check
            # has run; later jobs would only show what the first left behind
            job_peak_mb = peak_mb() - resident
        if traced:
            tracer.uninstall()
            layers.append(layer_metrics(tracer))
        ref_wall, ref_cpu = probe.rescale(wall, cpu)
        ref_walls[traced].append(ref_wall)
        if not traced:
            ref_cpus.append(ref_cpu)
            raw.append((wall, cpu, ref_wall / (wall - probe.inside[0])))
        ops = workload.operations(inputs)
        attempted += ops
        if error is not None:
            notes.append(f"job {job}: {type(error).__name__}: {error}")
            failed += ops
        else:
            failed += workload.check(inputs, result, out, prev, notes)
        print(
            f"job {job}: wall {wall:.4f} s, cpu {cpu:.4f} s, {ref_wall:.4f} reference s, "
            f"{len(probe.samples)} probes" + (", traced" if traced else ""),
            file=sys.stderr,
        )
        prev = out
        job += 1
        now = time.perf_counter()
        if (job >= MIN_JOBS and now >= deadline) or now - start > MAX_RUN_S:
            break

    for note in notes:
        print(note, file=sys.stderr)
    if tracer is not None:
        tracer.write_spans(workdir / "spans.csv")
        for name in tracer.absent:
            print(f"absent: {name} (reported as 0)", file=sys.stderr)
        for name in sorted(tracer.counter_errors):
            print(f"counters unreadable: {name}", file=sys.stderr)
        metrics = {}
        for name, (_, unit) in layers[0].items():
            metrics[name] = (statistics.median(m[name][0] for m in layers), unit)
        overhead = statistics.median(ref_walls[True]) - statistics.median(ref_walls[False])
        metrics["trace.overhead_s"] = (overhead, "s")
        # the untraced jobs' raw times and the speed factor that turns them
        # into reference seconds, so that a shift in the probes shows
        metrics["raw.wall_s"] = (statistics.median(r[0] for r in raw), "s")
        metrics["raw.cpu_s"] = (statistics.median(r[1] for r in raw), "s")
        metrics["raw.speed"] = (statistics.median(r[2] for r in raw), "ratio")
    else:
        metrics = {
            "wall_s": (statistics.median(ref_walls[False]), "s"),
            "cpu_s": (statistics.median(ref_cpus), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (job_peak_mb, "MiB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:>14.6g} {unit}", file=sys.stderr)
    print(f"jobs {job}, operations {attempted}, failed {failed}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
