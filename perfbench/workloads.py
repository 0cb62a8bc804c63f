"""The four benchmark workloads: inputs, the timed job, and output checks.

Each workload builds its inputs from the seed (``build``), runs one job of
program work (``job``, the only timed part) and checks that job's outputs
(``check``), returning how many operations it attempted and how many
failed.  An operation is a chain step, a MOT level, an MC time index, or
the 2D convex-order check.

The program is reached through module attributes at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

# configs/euler.json and configs/mot_uniform.json as they stand when the
# benchmark was written; the benchmark keeps its own copy so that a change
# to the shipped examples does not change the workload
EULER = {
    "steps": 5,
    "theta": {"kind": "affine_abs", "a": 0.4, "b": 0.4},
    "euler": {"horizon": 1.0},
    "noise": {
        "law": {
            "kind": "normal",
            "mean": 0,
            "sd": 1,
            "truncation": {"alpha": -2, "beta": "auto"},
        }
    },
    "x0": {"kind": "uniform", "a": 0.9, "b": 1.1},
    "sizes": {"n0": 31, "n": 31},
    "paths": 1000000,
}
MOT_UNIFORM = {
    "mu0": {"kind": "uniform", "a": -1, "b": 1},
    "mu1": {"kind": "uniform", "a": -2, "b": 2},
    "payoff": {"kind": "spread"},
    "levels": [[8, 8], [16, 16], [32, 32], [64, 64]],
}

TOL = 1e-9  # grids, weights, bounds, kernel residuals
COUPLING_TOL = 1e-8  # LP solution residuals (the simplex works to 1e-8)
MC_SE_MARGIN = 4.0  # standard errors allowed above the closed-form bound

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def load_reference(workload: str, tiny: bool):
    """Recorded outputs of a seed-independent workload (None before
    ``record_reference.py`` has written them)."""
    if not REFERENCE_FILE.is_file():
        return None
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)[workload]["tiny" if tiny else "full"]


def run_cli(argv):
    """Run the martquant CLI in-process; returns (exit code, stdout)."""
    import martquant.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = martquant.cli.run(argv)
    return rc, out.getvalue()


def _write_json(path: Path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _same_files(a: Path, b: Path | None, names) -> bool:
    """Byte equality of the named files in two job directories."""
    if b is None:
        return True
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def _max_abs(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if b.ndim == 0:
        b = np.broadcast_to(b, a.shape)
    if a.shape != b.shape:
        return np.inf
    return float(np.max(np.abs(a - b), initial=0.0))


class Workload:
    name = ""
    # parts of run.PROBE_PARTS whose speed this workload's time follows,
    # chosen from trial runs on a machine whose speed drifts
    probe_parts: tuple = ()

    def build(self, seed: int, tiny: bool, workdir: Path):
        raise NotImplementedError

    def operations(self, inputs) -> int:
        raise NotImplementedError

    def job(self, inputs, out: Path):
        raise NotImplementedError

    def check(self, inputs, result, out: Path, prev: Path | None, notes: list) -> int:
        """Number of failed operations of one job."""
        raise NotImplementedError


class ChainEuler(Workload):
    name = "chain_euler"
    probe_parts = ("python", "small")

    def build(self, seed, tiny, workdir):
        cfg = dict(EULER, steps=2, sizes={"n0": 9, "n": 9}) if tiny else dict(EULER)
        path = workdir / "chain_config.json"
        _write_json(path, cfg)
        ref = load_reference(self.name, tiny)
        return {"config": str(path), "steps": cfg["steps"], "ref": ref}

    def operations(self, inputs):
        return inputs["steps"]

    def job(self, inputs, out):
        return run_cli(["chain", "--config", inputs["config"], "--out", str(out)])

    def check(self, inputs, result, out, prev, notes):
        steps = inputs["steps"]
        rc, _ = result
        if rc != 0:
            notes.append(f"chain exited with {rc}")
            return steps
        with open(out / "chain.json") as fh:
            data = json.load(fh)
        grids, weights, kernels = data["grids"], data["weights"], data["kernels"]
        diag = read_csv(out / "diagnostics.csv")
        ref = inputs["ref"]
        names = ["chain.json", "diagnostics.csv"] + [f"marginal_{k}.csv" for k in range(steps + 1)]
        if not _same_files(out, prev, names):
            notes.append("chain artifacts differ between two jobs")
            return steps
        if len(kernels) != steps or len(diag) != steps:
            notes.append("chain has the wrong number of steps")
            return steps
        failed = 0
        for k in range(steps):
            g0, g1 = np.asarray(grids[k]), np.asarray(grids[k + 1])
            w0, w1 = np.asarray(weights[k]), np.asarray(weights[k + 1])
            kern = np.asarray(kernels[k])
            errors = {
                "grid": _max_abs(g1, ref["grids"][k + 1]),
                "weights": _max_abs(w1, ref["weights"][k + 1]),
                "martingale": _max_abs(kern @ g1, g0),
                "row_sum": _max_abs(kern.sum(axis=1), 1.0),
                "propagation": _max_abs(w0 @ kern, w1),
            }
            if k == 0:
                errors["x0 grid"] = _max_abs(g0, ref["grids"][0])
                errors["x0 weights"] = _max_abs(w0, ref["weights"][0])
            bad = [key for key, err in errors.items() if not err <= TOL]
            if diag[k]["convex_order"] != "dominated":
                bad.append("convex order " + diag[k]["convex_order"])
            if bad:
                notes.append(f"step {k}: " + ", ".join(bad))
                failed += 1
        return failed


class MotLadder(Workload):
    name = "mot_ladder"
    probe_parts = ("small", "stream")

    def build(self, seed, tiny, workdir):
        cfg = dict(MOT_UNIFORM, levels=[[4, 4], [8, 8]]) if tiny else dict(MOT_UNIFORM)
        path = workdir / "mot_config.json"
        _write_json(path, cfg)
        ref = load_reference(self.name, tiny)
        return {"config": str(path), "levels": cfg["levels"], "ref": ref}

    def operations(self, inputs):
        return len(inputs["levels"])

    def job(self, inputs, out):
        return run_cli(["mot", "--config", inputs["config"], "--out", str(out)])

    def check(self, inputs, result, out, prev, notes):
        n_levels = len(inputs["levels"])
        rc, _ = result
        if rc != 0:
            notes.append(f"mot exited with {rc}")
            return n_levels
        # runtime_ms is wall-clock and is not compared
        rows = read_csv(out / "bounds.csv")
        if len(rows) != n_levels:
            notes.append("bounds.csv has the wrong number of levels")
            return n_levels
        failed = 0
        for row, (n, m, lower, upper) in zip(rows, inputs["ref"]):
            lo, hi = float(row["lower"]), float(row["upper"])
            ok = (
                (int(row["N"]), int(row["M"])) == (n, m)
                and abs(lo - lower) <= TOL
                and abs(hi - upper) <= TOL
                and lo <= hi
            )
            if not ok:
                notes.append(f"level {n}x{m}: bounds [{lo!r}, {hi!r}], reference [{lower!r}, {upper!r}]")
                failed += 1
        return failed


class McCoupled(Workload):
    name = "mc_coupled"
    probe_parts = ("stream", "fault")

    def build(self, seed, tiny, workdir):
        cfg = dict(EULER, paths=20000 if tiny else EULER["paths"])
        path = workdir / "mc_config.json"
        _write_json(path, cfg)
        return {"config": str(path), "seed": str(seed), "steps": cfg["steps"]}

    def operations(self, inputs):
        return inputs["steps"] + 1

    def job(self, inputs, out):
        common = ["--config", inputs["config"], "--seed", inputs["seed"], "--threads", "1"]
        sim = run_cli(["simulate", *common, "--out", str(out / "simulate")])
        bounds = run_cli(["bounds", *common, "--out", str(out / "bounds")])
        return sim, bounds

    def check(self, inputs, result, out, prev, notes):
        n_idx = inputs["steps"] + 1
        (rc_sim, _), (rc_bounds, _) = result
        if rc_sim != 0 or rc_bounds != 0:
            notes.append(f"simulate exited with {rc_sim}, bounds with {rc_bounds}")
            return n_idx
        names = ["simulate/coupled.csv", "simulate/coupled.json", "bounds/bounds.csv", "bounds/bounds.json"]
        if not _same_files(out, prev, names):
            notes.append("same seed, different Monte Carlo outputs")
            return n_idx
        sim = read_csv(out / "simulate" / "coupled.csv")
        bnd = read_csv(out / "bounds" / "bounds.csv")
        if len(sim) != n_idx or len(bnd) != n_idx:
            notes.append("wrong number of time indices")
            return n_idx
        failed = 0
        for k, (s, b) in enumerate(zip(sim, bnd)):
            gap, emp = float(s["empirical_gap_l2"]), float(b["empirical"])
            bound, se = float(b["bound"]), float(b["se"])
            # the bound is on the L2 norm; se is the standard error of the
            # mean squared gap, so compare squares with a margin in se
            ok = (
                int(s["k"]) == k == int(b["k"])
                and gap == emp
                and emp * emp <= bound * bound + MC_SE_MARGIN * se
                and (k > 0 or emp == 0.0)
            )
            if not ok:
                notes.append(f"time index {k}: gap {gap!r}/{emp!r}, bound {bound!r}, se {se!r}")
                failed += 1
        return failed


class Chain2D(Workload):
    name = "chain_2d"
    probe_parts = ("python", "small")

    def build(self, seed, tiny, workdir):
        from martquant.chain import ArchSpec, NoiseSpec
        from martquant.order import DiscreteDistribution

        steps, n_vertices, n_x0 = (2, 24, 6) if tiny else (3, 200, 8)
        rng = np.random.default_rng([seed, 2])
        x0 = DiscreteDistribution(
            rng.uniform(-0.5, 0.5, (n_x0, 2)), rng.dirichlet(np.ones(n_x0))
        )
        noise = DiscreteDistribution(
            [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], [0.25] * 4
        )
        scale = 0.5
        # each grid is a square holding every image of the previous grid's
        # vertices with a margin of 0.5; its corners are vertices, the rest
        # scatter uniformly inside
        clouds, half = [], 0.5
        for _ in range(steps):
            half += scale + 0.5
            corners = half * np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
            inner = rng.uniform(-half, half, (n_vertices - 4, 2))
            clouds.append(np.vstack([corners, inner]))
        arch = ArchSpec([scale * np.eye(2)] * steps, dim=2, noise_dim=2)
        return {
            "clouds": clouds,
            "x0": x0,
            "noises": [NoiseSpec.quantized(noise)] * steps,
            "arch": arch,
            "sizes": [n_x0] + [n_vertices] * steps,
            "steps": steps,
        }

    def operations(self, inputs):
        return inputs["steps"] + 1

    def job(self, inputs, out):
        import martquant.chain
        import martquant.dual
        import martquant.order

        tris = [martquant.dual.Triangulation2D.delaunay(c) for c in inputs["clouds"]]
        chain = martquant.chain.build_chain(
            inputs["arch"], inputs["noises"], inputs["x0"], inputs["sizes"],
            grid_mode="fixed", grids=tris,
        )
        order = martquant.order.convex_order_check(chain.marginal(0), chain.marginal(1))
        return tris, chain, order

    def check(self, inputs, result, out, prev, notes):
        tris, chain, order = result
        steps = inputs["steps"]
        kernels = np.concatenate([k.matrix.ravel() for k in chain.kernels])
        np.save(out / "kernels.npy", kernels)
        if not _same_files(out, prev, ["kernels.npy"]):
            notes.append("2D kernels differ between two jobs")
            return steps + 1
        mean0 = chain.marginal(0).mean
        failed = 0
        for k in range(steps):
            src = np.asarray(chain.grids[k])
            verts = np.asarray(chain.grids[k + 1])
            kern = chain.kernels[k].matrix
            w0, w1 = chain.marginal_weights[k], chain.marginal_weights[k + 1]
            errors = {
                "vertices": _max_abs(tris[k].vertices, inputs["clouds"][k]),
                "martingale": _max_abs(kern @ verts, src),
                "row_sum": _max_abs(kern.sum(axis=1), 1.0),
                "propagation": _max_abs(w0 @ kern, w1),
                "mean": _max_abs(w1 @ verts, mean0),
            }
            bad = [key for key, err in errors.items() if not err <= TOL]
            if np.any(kern < 0.0):
                bad.append("negative kernel entry")
            if bad:
                notes.append(f"2D step {k}: " + ", ".join(bad))
                failed += 1
            missing, area_gap = qhull_mismatch(tris[k])
            if missing:
                # reported, not failed: the chain's own outputs stay exact
                # as long as no image falls into an uncovered sliver
                notes.append(
                    f"warning: 2D step {k}: Delaunay grid misses {missing} Qhull "
                    f"triangles, uncovered hull area {area_gap:.3g}"
                )
        mu, nu = chain.marginal(0), chain.marginal(1)
        coupling = order.coupling
        if not order.dominated or coupling is None:
            notes.append(f"2D convex order check: {order.status}")
            return failed + 1
        errors = {
            "mu marginal": _max_abs(coupling.sum(axis=1), mu.weights),
            "nu marginal": _max_abs(coupling.sum(axis=0), nu.weights),
            "martingale": _max_abs(coupling @ nu.points, mu.weights[:, None] * mu.points),
            "sign": max(0.0, -float(coupling.min())),
        }
        bad = [key for key, err in errors.items() if not err <= COUPLING_TOL]
        if bad:
            notes.append("2D coupling: " + ", ".join(bad))
            failed += 1
        return failed


def qhull_mismatch(tri):
    """Triangles of scipy's Qhull Delaunay missing from ``tri``, and the
    part of the convex hull area that ``tri`` leaves uncovered."""
    from scipy.spatial import ConvexHull, Delaunay

    v = np.asarray(tri.vertices)
    ours = {tuple(sorted(t)) for t in np.asarray(tri.triangles).tolist()}
    qhull = {tuple(sorted(t)) for t in Delaunay(v).simplices.tolist()}
    t = np.asarray(tri.triangles)
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    area = 0.5 * np.abs((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
    return len(qhull - ours), float(ConvexHull(v).volume - area.sum())


WORKLOADS = {w.name: w for w in (ChainEuler(), MotLadder(), McCoupled(), Chain2D())}
