"""Command-line front end.

Subcommands: ``quantize``, ``chain``, ``mot``, ``simulate``, ``bounds``,
``counterexample``.  Configuration precedence is flags > JSON config >
defaults.  Exit codes: 0 success, 1 configuration error, 2 numerical
failure.  All floats are written with 17 significant digits, so identical
configs and seeds produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import archmc, chain as chainmod, mot as motmod, order as ordermod
from .dual import dual_lloyd_1d
from .errors import (
    BudgetExceeded,
    DomainError,
    MartquantError,
    NotInConvexOrder,
    OutOfScopeError,
)
from .laws import TruncatedLaw, _json_float, law_from_json
from .lp import export_lp_text
from .primal import lloyd_1d

_CONFIG_ERRORS = (DomainError, OutOfScopeError, KeyError, ValueError, OSError)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, (int, float, np.floating)) else v for v in row])


@contextlib.contextmanager
def _warnings_printed():
    """Print the Python warnings raised inside as ``warning: <message>`` on
    stderr, the form of the commands' own warnings; every RuntimeWarning is
    printed, also one that repeats an earlier message.  Yields the list of
    the messages printed so far."""
    printed = []

    def show(message, *args, **kwargs):
        printed.append(str(message))
        print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = show
        yield printed


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
            cfg = _object(json.load(fh), "a config")
    return cfg


def _object(value, source: str) -> dict:
    """``value`` if it is a JSON object; ``source`` names it in the error."""
    if not isinstance(value, dict):
        raise DomainError(f"{source} must be an object, got {type(value).__name__}")
    return value


def _whole(value, source: str, minimum: int) -> int:
    """``value`` as an integer >= ``minimum``: an int or a string of digits,
    never a bool or a float.  ``source`` names the flag or key in the error."""
    try:
        number = int(value) if isinstance(value, str) else value
    except ValueError:
        number = None
    if isinstance(number, bool) or not isinstance(number, int) or number < minimum:
        raise DomainError(f"{source} must be an integer >= {minimum}, got {value!r}")
    return number


def _paths_and_seed(args, cfg) -> tuple[int, int]:
    """Path count from the config (default 100 000) and seed from ``--seed``,
    else the config (default 0)."""
    n_paths = _whole(cfg.get("paths", 100000), "config key 'paths'", 1)
    if args.seed is not None:
        return n_paths, _whole(args.seed, "--seed", 0)
    return n_paths, _whole(cfg.get("seed", 0), "config key 'seed'", 0)


def _theta_from_json(obj) -> chainmod.ThetaFn:
    kind = _object(obj, "config key 'theta'").get("kind")
    if kind == "constant":
        return chainmod.theta_constant(_json_float(obj, "c", "theta"))
    if kind == "affine_abs":
        return chainmod.theta_affine_abs(
            _json_float(obj, "a", "theta"), _json_float(obj, "b", "theta")
        )
    if kind == "abs_shifted":
        return chainmod.theta_abs_shifted(
            _json_float(obj, "scale", "theta"),
            _json_float(obj, "center", "theta"),
            _json_float(obj, "floor", "theta", 0.0),
        )
    raise DomainError(f"unknown theta kind {kind!r}")


def _arch_from_config(cfg) -> tuple[chainmod.ArchSpec, list]:
    n_steps = _whole(cfg["steps"], "config key 'steps'", 1)
    for key in ("dim", "noise_dim"):
        if _whole(cfg.get(key, 1), f"config key '{key}'", 1) != 1:
            raise DomainError(f"config key '{key}' must be 1: the command line runs 1D chains")
    base = _theta_from_json(cfg["theta"])
    if "euler" in cfg:
        euler = _object(cfg["euler"], "config key 'euler'")
        thetas = chainmod.euler_thetas(base, _json_float(euler, "horizon", "euler"), n_steps)
    else:
        thetas = [base] * n_steps
    noise_cfg = _object(cfg["noise"], "config key 'noise'")
    law = _load_law(noise_cfg["law"])
    if isinstance(law, TruncatedLaw):
        trunc_cfg = noise_cfg["law"].get("truncation", {}) if isinstance(noise_cfg["law"], dict) else {}
        if trunc_cfg.get("beta", "auto") == "auto":
            print(
                f"note: truncation centered automatically on [{law.alpha:g}, {law.beta:g}]",
                file=sys.stderr,
            )
    if "quantized" in noise_cfg:
        n_atoms = _whole(noise_cfg["quantized"], "config key 'noise.quantized'", 1)
        spec = chainmod.NoiseSpec.quantized_from(law, n_atoms)
    elif isinstance(law, TruncatedLaw):
        spec = chainmod.NoiseSpec.truncated(law)
    else:
        raise DomainError("chain noise needs a truncation block or a 'quantized' atom count")
    return chainmod.ArchSpec(thetas), [spec] * n_steps


def _sizes_from_config(cfg, n_steps: int) -> list:
    """Grid sizes per time index: ``sizes[0] >= 1`` points for the initial
    law, then ``>= 2`` for each dual grid."""
    sizes = cfg["sizes"]
    if isinstance(sizes, dict):
        n0 = _whole(sizes["n0"], "config key 'sizes.n0'", 1)
        return [n0] + [_whole(sizes["n"], "config key 'sizes.n'", 2)] * n_steps
    if not isinstance(sizes, list):
        raise DomainError("config key 'sizes' must be a list or an object with 'n0' and 'n'")
    return [_whole(v, f"config key 'sizes[{k}]'", 1 if k == 0 else 2) for k, v in enumerate(sizes)]


# ---------------------------------------------------------------------------
# subcommands


def cmd_quantize(args) -> int:
    law = _load_law(args.law)
    n = int(args.n)
    if n < 1:
        raise DomainError("--n must be >= 1")
    if not (np.isfinite(args.tol) and args.tol > 0.0):
        raise DomainError(f"--tol must be finite and > 0, got {args.tol}")
    if args.mode == "primal":
        res = lloyd_1d(law, n, tol=args.tol)
    else:
        if n < 2:
            raise DomainError("dual quantization needs --n >= 2")
        res = dual_lloyd_1d(law, n, tol=args.tol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "grid.json", "w") as fh:
        json.dump([float(_fmt(g)) for g in res.grid], fh)
        fh.write("\n")
    _write_csv(out / "quantization.csv", ["point", "weight"], zip(res.grid, res.weights))
    print(f"distortion {_fmt(res.distortion)}")
    if not res.converged:
        print("warning: fixed-point iteration did not reach tolerance", file=sys.stderr)
    return 0


def cmd_chain(args) -> int:
    cfg = _load_config(args)
    # a primal quantizer (noise or x0) that stops short of its tolerance warns
    with _warnings_printed() as printed:
        arch, noises = _arch_from_config(cfg)
        x0 = _load_law(cfg["x0"])
        sizes = _sizes_from_config(cfg, arch.n_steps)
        built = chainmod.build_chain(arch, noises, x0, sizes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    unconverged = bool(printed)
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
    "forward_start": lambda cfg: motmod.forward_start_payoff(
        _json_float(cfg, "strike", "payoff", 0.0)
    ),
}


def cmd_mot(args) -> int:
    cfg = _load_config(args)
    mu0 = _load_law(cfg["mu0"])
    mu1 = _load_law(cfg["mu1"])
    payoff_cfg = _object(cfg.get("payoff", {"kind": "quadratic"}), "config key 'payoff'")
    payoff = _PAYOFFS[payoff_cfg["kind"]](payoff_cfg)
    if not isinstance(cfg["levels"], list):
        raise DomainError("config key 'levels' must be a list of pairs [N, M]")
    levels = []
    for i, level in enumerate(cfg["levels"]):
        if not (isinstance(level, list) and len(level) == 2):
            raise DomainError(f"config key 'levels[{i}]' must be a pair [N, M], got {level!r}")
        n, m = level
        levels.append(
            (_whole(n, f"config key 'levels[{i}]' N", 1), _whole(m, f"config key 'levels[{i}]' M", 2))
        )
    # like every command, mot creates --out only once it has something to
    # write, so an error before that leaves no directory
    out = Path(args.out)
    # a quantizer that stops short of its tolerance warns from level_problems
    if args.export_lp:
        with _warnings_printed():
            problems = motmod.level_problems(mu0, mu1, payoff, levels)
        out.mkdir(parents=True, exist_ok=True)
        for (n, m), problem in zip(levels, problems):
            lps, _ = problem.linear_programs()
            for lp in lps:
                name = f"mot_{n}_{m}_{lp.sense}"
                with open(out / f"{name}.lp", "w") as fh:
                    fh.write(export_lp_text(lp, name=name))
        print(f"wrote {2 * len(levels)} LP files")
        return 0
    with _warnings_printed():
        rows = motmod.stability_experiment(mu0, mu1, payoff, levels)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "bounds.csv",
        ["N", "M", "lower", "upper"],
        [(r["N"], r["M"], r["lower"], r["upper"]) for r in rows],
    )
    for r in rows:
        print(f"N={r['N']} M={r['M']} lower {_fmt(r['lower'])} upper {_fmt(r['upper'])}")
    return 0


def _coupled_run(args, statistic):
    """``statistic(arch, noises, x0, n_paths, seed, threads)`` on the
    config's model, for ``simulate`` and ``bounds``, with its path count."""
    cfg = _load_config(args)
    with _warnings_printed():
        arch, noises = _arch_from_config(cfg)
    x0 = _load_law(cfg["x0"])
    n_paths, seed = _paths_and_seed(args, cfg)
    threads = _whole(args.threads, "--threads", 1)
    return n_paths, statistic(arch, noises, x0, n_paths, seed, threads=threads)


def _write_table(out: Path, stem: str, header, rows):
    """``<stem>.csv``, and ``<stem>.json`` as one header -> value object per row."""
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / f"{stem}.csv", header, rows)
    with open(out / f"{stem}.json", "w") as fh:
        json.dump([dict(zip(header, row)) for row in rows], fh)
        fh.write("\n")


def _per_step(*columns) -> list:
    """Rows ``(k, columns[0][k], ...)`` for k = 0..n, as Python numbers."""
    return [(k, *row) for k, row in enumerate(zip(*(c.tolist() for c in columns)))]


def cmd_simulate(args) -> int:
    n_paths, stats = _coupled_run(args, archmc.coupled_gap_statistics)
    rows = _per_step(stats.empirical, stats.standard_error)
    _write_table(Path(args.out), "coupled", ["k", "empirical_gap_l2", "se_gap_sq"], rows)
    print(f"simulated {n_paths} coupled paths over {len(rows) - 1} steps")
    return 0


def cmd_bounds(args) -> int:
    _, report = _coupled_run(args, archmc.compare_truncation_bound)
    rows = _per_step(
        report.empirical, report.bound, report.bound_product, report.slack, report.standard_error
    )
    header = ["k", "empirical", "bound", "bound_product", "slack", "se"]
    _write_table(Path(args.out), "bounds", header, rows)
    print(f"worst slack {_fmt(min(row[4] for row in rows))}")
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
    q.add_argument("--tol", type=float, default=1e-12)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_quantize)

    c = sub.add_parser("chain", help="build a convex-order-preserving chain")
    c.add_argument("--config", required=True)
    c.add_argument("--out", required=True)
    c.add_argument(
        "--strict",
        action="store_true",
        help="exit 2 when a quantizer did not reach tolerance or another warning was printed "
        "(artifacts are still written)",
    )
    c.set_defaults(func=cmd_chain)

    m = sub.add_parser("mot", help="martingale-optimal-transport bounds")
    m.add_argument("--config", required=True)
    m.add_argument("--out", required=True)
    m.add_argument("--export-lp", action="store_true", dest="export_lp")
    m.set_defaults(func=cmd_mot)

    for name, help_text, func in (
        ("simulate", "coupled exact/approximate path simulation", cmd_simulate),
        ("bounds", "truncation error bounds vs simulation", cmd_bounds),
    ):
        mc = sub.add_parser(name, help=help_text)
        mc.add_argument("--config", required=True)
        mc.add_argument("--out", required=True)
        mc.add_argument("--seed", type=int, default=None)
        mc.add_argument("--threads", type=int, default=1)
        mc.set_defaults(func=func)

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
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except MartquantError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
