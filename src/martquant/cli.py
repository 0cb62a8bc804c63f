"""Command-line front end.

Subcommands: ``quantize``, ``chain``, ``mot``, ``simulate``, ``bounds``,
``counterexample``.  Configuration precedence is flags > JSON config >
defaults.  Exit codes: 0 success, 1 configuration error, 2 numerical
failure.  All floats are written with 17 significant digits, so identical
configs and seeds produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import archmc, chain as chainmod, mot as motmod, order as ordermod
from .dual import dual_distortion, dual_lloyd_1d
from .errors import (
    DomainError,
    DivisibilityError,
    HullViolation,
    MartquantError,
    NotInConvexOrder,
    OutOfScopeError,
)
from .laws import TruncatedLaw, law_from_json
from .lp import LinearProgram, export_lp_text
from .order import DiscreteDistribution
from .primal import distortion, lloyd_1d

_CONFIG_ERRORS = (DomainError, DivisibilityError, OutOfScopeError, KeyError, ValueError)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, (int, float, np.floating)) else v for v in row])


def _load_law(spec):
    if isinstance(spec, str):
        candidate = Path(spec)
        if candidate.exists():
            with open(candidate) as fh:
                return law_from_json(json.load(fh))
        try:
            return law_from_json(spec)
        except DomainError:
            return law_from_json(json.loads(spec))
    return law_from_json(spec)


def _load_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
    return cfg


def _threads(args, cfg) -> int:
    if getattr(args, "threads", None):
        return int(args.threads)
    if "threads" in cfg:
        return int(cfg["threads"])
    return int(os.environ.get("MARTQUANT_THREADS", "1"))


def _theta_from_json(obj) -> chainmod.ThetaFn:
    kind = obj.get("kind")
    if kind == "constant":
        return chainmod.theta_constant(float(obj["c"]))
    if kind == "affine_abs":
        return chainmod.theta_affine_abs(float(obj["a"]), float(obj["b"]))
    if kind == "abs_shifted":
        return chainmod.theta_abs_shifted(
            float(obj["scale"]), float(obj["center"]), float(obj.get("floor", 0.0))
        )
    raise DomainError(f"unknown theta kind {kind!r}")


def _arch_from_config(cfg) -> tuple[chainmod.ArchSpec, list]:
    n_steps = int(cfg["steps"])
    dim = int(cfg.get("dim", 1))
    base = _theta_from_json(cfg["theta"])
    if "euler" in cfg:
        thetas = chainmod.euler_thetas(base, float(cfg["euler"]["horizon"]), n_steps)
    else:
        thetas = [base] * n_steps
    noise_cfg = cfg["noise"]
    law = _load_law(noise_cfg["law"])
    if isinstance(law, TruncatedLaw):
        trunc_cfg = noise_cfg["law"].get("truncation", {}) if isinstance(noise_cfg["law"], dict) else {}
        if trunc_cfg.get("beta", "auto") == "auto":
            print(
                f"note: truncation centered automatically on [{law.alpha:g}, {law.beta:g}]",
                file=sys.stderr,
            )
    if "quantized" in noise_cfg:
        spec = chainmod.NoiseSpec.quantized_from(law, int(noise_cfg["quantized"]))
    elif isinstance(law, TruncatedLaw):
        spec = chainmod.NoiseSpec.truncated(law)
    else:
        raise DomainError("chain noise needs a truncation block or a 'quantized' atom count")
    return chainmod.ArchSpec(thetas, dim=dim, noise_dim=int(cfg.get("noise_dim", dim))), [spec] * n_steps


def _x0_from_config(cfg):
    x0 = cfg["x0"]
    if isinstance(x0, dict) and x0.get("kind") == "atoms":
        return DiscreteDistribution(x0["points"], x0["weights"])
    return _load_law(x0)


# ---------------------------------------------------------------------------
# subcommands


def cmd_quantize(args) -> int:
    law = _load_law(args.law)
    n = int(args.n)
    if n < 1:
        raise DomainError("--n must be >= 1")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.mode == "primal":
        res = lloyd_1d(law, n, tol=args.tol or 1e-12)
        grid, weights = res.grid, res.weights
        err = distortion(grid, law, p=float(args.p))
    else:
        if n < 2:
            raise DomainError("dual quantization needs --n >= 2")
        res = dual_lloyd_1d(law, n, tol=args.tol or 1e-12)
        grid, weights = res.grid, res.weights
        err = dual_distortion(grid, law)
    with open(out / "grid.json", "w") as fh:
        json.dump([float(_fmt(g)) for g in grid], fh)
        fh.write("\n")
    _write_csv(out / "quantization.csv", ["point", "weight"], zip(grid, weights))
    print(f"distortion {_fmt(err)}")
    if not res.converged:
        print("warning: fixed-point iteration did not reach tolerance", file=sys.stderr)
    return 0


def cmd_chain(args) -> int:
    cfg = _load_config(args)
    arch, noises = _arch_from_config(cfg)
    x0 = _x0_from_config(cfg)
    sizes = cfg["sizes"]
    if isinstance(sizes, dict):
        sizes = [int(sizes["n0"])] + [int(sizes["n"])] * arch.n_steps
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    built = chainmod.build_chain(
        arch, noises, x0, sizes, grid_mode=cfg.get("grid_mode", "embedded")
    )
    with open(out / "chain.json", "w") as fh:
        json.dump(built.to_json(), fh)
        fh.write("\n")
    for k in range(built.n_steps + 1):
        _write_csv(
            out / f"marginal_{k}.csv",
            ["point", "weight"],
            zip(built.grids[k], built.marginal_weights[k]),
        )
    rows = []
    unconverged = False
    for k, diag in enumerate(built.diagnostics):
        check = ordermod.convex_order_check(built.marginal(k), built.marginal(k + 1))
        print(f"step {k}: convex order {check.status}")
        if diag.get("dual_converged") is False:
            unconverged = True
            print(f"warning: step {k}: dual grid did not reach tolerance", file=sys.stderr)
        rows.append(
            (
                k,
                diag["martingale_residual"],
                diag["row_sum_residual"],
                diag["mean_drift"],
                diag["dual_distortion"],
                diag["hull"][0],
                diag["hull"][1],
                check.status,
            )
        )
    _write_csv(
        out / "diagnostics.csv",
        [
            "step",
            "martingale_residual",
            "row_sum_residual",
            "mean_drift",
            "dual_distortion",
            "hull_lo",
            "hull_hi",
            "convex_order",
        ],
        rows,
    )
    return 2 if args.strict and unconverged else 0


_PAYOFFS = {
    "spread": lambda cfg: motmod.spread_payoff,
    "quadratic": lambda cfg: motmod.quadratic_payoff,
    "forward_start": lambda cfg: motmod.forward_start_payoff(float(cfg.get("strike", 0.0))),
}


def cmd_mot(args) -> int:
    cfg = _load_config(args)
    mu0 = _x0_from_config({"x0": cfg["mu0"]})
    mu1 = _x0_from_config({"x0": cfg["mu1"]})
    payoff_cfg = cfg.get("payoff", {"kind": "quadratic"})
    payoff = _PAYOFFS[payoff_cfg["kind"]](payoff_cfg)
    levels = [(int(a), int(b)) for a, b in cfg["levels"]]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.export_lp:
        for n, m in levels:
            qa = motmod._quantize_primal(mu0, n)
            qb = motmod._quantize_dual(mu1, m)
            a, b, _ = ordermod.coupling_lp(qa, qb)
            cost = motmod.MotProblem([qa, qb], payoff).cost_tensor().ravel()
            for sense in ("min", "max"):
                text = export_lp_text(
                    LinearProgram(cost, a, b, sense=sense), name=f"mot_{n}_{m}_{sense}"
                )
                with open(out / f"mot_{n}_{m}_{sense}.lp", "w") as fh:
                    fh.write(text)
        print(f"wrote {2 * len(levels)} LP files")
        return 0
    rows = motmod.stability_experiment(mu0, mu1, payoff, levels)
    _write_csv(
        out / "bounds.csv",
        ["N", "M", "lower", "upper"],
        [(r["N"], r["M"], r["lower"], r["upper"]) for r in rows],
    )
    for r in rows:
        print(f"N={r['N']} M={r['M']} lower {_fmt(r['lower'])} upper {_fmt(r['upper'])}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    arch, noises = _arch_from_config(cfg)
    x0 = _x0_from_config(cfg)
    n_paths = int(cfg.get("paths", 100000))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    stats = archmc.coupled_gap_statistics(
        arch, noises, x0, n_paths, seed, threads=_threads(args, cfg)
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [
        (k, float(stats.empirical[k]), float(stats.standard_error[k]))
        for k in range(arch.n_steps + 1)
    ]
    _write_csv(out / "coupled.csv", ["k", "empirical_gap_l2", "se_gap_sq"], rows)
    with open(out / "coupled.json", "w") as fh:
        json.dump(
            [{"k": k, "empirical_gap_l2": e, "se_gap_sq": s} for k, e, s in rows], fh
        )
        fh.write("\n")
    print(f"simulated {n_paths} coupled paths over {arch.n_steps} steps")
    return 0


def cmd_bounds(args) -> int:
    cfg = _load_config(args)
    arch, noises = _arch_from_config(cfg)
    x0 = _x0_from_config(cfg)
    n_paths = int(cfg.get("paths", 100000))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    report = archmc.compare_truncation_bound(
        arch, noises, x0, n_paths, seed, threads=_threads(args, cfg)
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [
        (
            k,
            float(report.empirical[k]),
            float(report.bound[k]),
            float(report.bound_product[k]),
            float(report.slack[k]),
            float(report.standard_error[k]),
        )
        for k in range(arch.n_steps + 1)
    ]
    _write_csv(
        out / "bounds.csv",
        ["k", "empirical", "bound", "bound_product", "slack", "se"],
        rows,
    )
    keys = ("k", "empirical", "bound", "bound_product", "slack", "se")
    with open(out / "bounds.json", "w") as fh:
        json.dump([dict(zip(keys, row)) for row in rows], fh)
        fh.write("\n")
    worst = min(r[4] for r in rows)
    print(f"worst slack {_fmt(worst)}")
    return 0


def cmd_counterexample(args) -> int:
    report = ordermod.moment_vs_wasserstein_scan(float(args.resolution))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "u_star_moment": float(_fmt(report.u_star_moment)),
        "u_star_w2": float(_fmt(report.u_star_w2)),
        "derivative_sign_at_third": report.derivative_sign_at_third,
        "moment_at_star": float(_fmt(report.moment_at_star)),
        "w2sq_at_star": float(_fmt(report.w2sq_at_star)),
    }
    with open(out / "counterexample.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(
        f"moment minimizer {_fmt(report.u_star_moment)} "
        f"w2 minimizer {_fmt(report.u_star_w2)} "
        f"derivative sign {report.derivative_sign_at_third:+d}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="martquant",
        description="Convex-order-preserving quantization of martingale dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="primal or dual quantization of a 1D law")
    q.add_argument("mode", choices=["primal", "dual"])
    q.add_argument("--law", required=True, help="law name, JSON string, or JSON file")
    q.add_argument("--n", required=True, type=int)
    q.add_argument("--p", default=2.0, type=float)
    q.add_argument("--tol", type=float, default=None)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_quantize)

    c = sub.add_parser("chain", help="build a convex-order-preserving chain")
    c.add_argument("--config", required=True)
    c.add_argument("--out", required=True)
    c.add_argument(
        "--strict",
        action="store_true",
        help="exit 2 when a dual grid did not reach tolerance (artifacts are still written)",
    )
    c.set_defaults(func=cmd_chain)

    m = sub.add_parser("mot", help="martingale-optimal-transport bounds")
    m.add_argument("--config", required=True)
    m.add_argument("--out", required=True)
    m.add_argument("--export-lp", action="store_true", dest="export_lp")
    m.set_defaults(func=cmd_mot)

    s = sub.add_parser("simulate", help="coupled exact/approximate path simulation")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--threads", type=int, default=None)
    s.set_defaults(func=cmd_simulate)

    b = sub.add_parser("bounds", help="truncation error bounds vs simulation")
    b.add_argument("--config", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--seed", type=int, default=None)
    b.add_argument("--threads", type=int, default=None)
    b.set_defaults(func=cmd_bounds)

    x = sub.add_parser("counterexample", help="moment vs W2 minimizer scan")
    x.add_argument("--resolution", default=1e-4, type=float)
    x.add_argument("--out", required=True)
    x.set_defaults(func=cmd_counterexample)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotInConvexOrder as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(
                "witness offsets "
                + " ".join(_fmt(v) for v in exc.witness.offsets)
                + " slopes "
                + " ".join(_fmt(v) for v in exc.witness.slopes.ravel()),
                file=sys.stderr,
            )
        return 2
    except (HullViolation,) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except MartquantError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
