import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import martquant
from martquant import primal as primalmod
from martquant.cli import run


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_quantize_primal_reference(tmp_path):
    out = tmp_path / "p"
    assert run(["quantize", "primal", "--law", "uniform01", "--n", "4", "--out", str(out)]) == 0
    grid = json.loads((out / "grid.json").read_text())
    assert np.allclose(grid, [0.125, 0.375, 0.625, 0.875], atol=1e-10)
    lines = (out / "quantization.csv").read_text().splitlines()
    assert lines[0] == "point,weight"
    assert len(lines) == 5


def test_quantize_dual_reference(tmp_path):
    out = tmp_path / "d"
    assert run(["quantize", "dual", "--law", "uniform01", "--n", "5", "--out", str(out)]) == 0
    grid = json.loads((out / "grid.json").read_text())
    assert np.allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-10)


def test_quantize_bad_n_exits_1(tmp_path, capsys):
    assert run(["quantize", "primal", "--law", "uniform01", "--n", "0", "--out", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("mode", ["primal", "dual"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_quantize_bad_tol_exits_1(tmp_path, capsys, mode, tol):
    out = tmp_path / "q"
    argv = ["quantize", mode, "--law", "uniform01", "--n", "4", "--tol", tol, "--out", str(out)]
    assert run(argv) == 1
    assert "configuration error: --tol" in capsys.readouterr().err
    assert not out.exists()


def test_quantize_inline_json_law(tmp_path):
    law = json.dumps({"kind": "uniform", "a": -1, "b": 1})
    out = tmp_path / "j"
    assert run(["quantize", "primal", "--law", law, "--n", "2", "--out", str(out)]) == 0
    grid = json.loads((out / "grid.json").read_text())
    assert np.allclose(grid, [-0.5, 0.5], atol=1e-10)


def test_quantize_splits_a_truncated_finite_law_as_its_atoms(tmp_path, capsys):
    # the five atoms truncated at alpha = -1 are the three atoms {-1, 0, 1}:
    # on a grid on them both distortions are exactly 0, where the truncated
    # law's global cumulative sums left a residue of about 1e-8
    law = json.dumps({"kind": "atoms", "points": [-2, -1, 0, 1, 2],
                      "weights": [0.1, 0.2, 0.4, 0.2, 0.1], "truncation": {"alpha": -1}})
    for mode in ("dual", "primal"):
        out = tmp_path / mode
        assert run(["quantize", mode, "--law", law, "--n", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "distortion 0\n"
    assert (tmp_path / "dual" / "grid.json").read_text() == "[-1.0, 0.0, 1.0]\n"


def test_quantize_warns_when_the_sweep_does_not_reach_tolerance(tmp_path, capsys):
    # no grid reaches a tolerance of 1e-300: the sweep stops when its points
    # stop moving, and the command still writes its grid and exits 0
    out = tmp_path / "q"
    argv = ["quantize", "dual", "--law", "power2x", "--n", "9", "--tol", "1e-300", "--out", str(out)]
    assert run(argv) == 0
    assert capsys.readouterr().err == "warning: fixed-point iteration did not reach tolerance\n"
    assert len(json.loads((out / "grid.json").read_text())) == 9


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(
            ["quantize", "dual", "--law", "uniform01", "--n", "9", "--out", str(out)]
        ) == 0
    assert _read(a / "grid.json") == _read(b / "grid.json")
    assert _read(a / "quantization.csv") == _read(b / "quantization.csv")


def test_chain_byte_identical_reruns(tmp_path, chain_config):
    a, b = tmp_path / "ca", tmp_path / "cb"
    for out in (a, b):
        assert run(["chain", "--config", str(chain_config), "--out", str(out)]) == 0
    for name in ("chain.json", "diagnostics.csv", "marginal_2.csv"):
        assert _read(a / name) == _read(b / name)


@pytest.fixture()
def chain_config(tmp_path):
    cfg = {
        "steps": 2,
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
        "sizes": {"n0": 9, "n": 9},
        "paths": 40000,
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(cfg))
    return path


def test_chain_command(tmp_path, chain_config, capsys):
    out = tmp_path / "chain_out"
    assert run(["chain", "--config", str(chain_config), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("dominated") == 2
    diag = (out / "diagnostics.csv").read_text().splitlines()
    assert diag[0].startswith("step,martingale_residual")
    assert len(diag) == 3
    blob = json.loads((out / "chain.json").read_text())
    assert len(blob["grids"]) == 3


def test_chain_abs_shifted_theta_with_a_floor(tmp_path, chain_config):
    from martquant.chain import ArchSpec, NoiseSpec, build_chain, euler_thetas, theta_abs_shifted
    from martquant.laws import Normal, TruncatedLaw, Uniform

    cfg = json.loads(chain_config.read_text())
    cfg["theta"] = {"kind": "abs_shifted", "scale": 0.4, "center": 1.0, "floor": 0.05}
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run(["chain", "--config", str(path), "--out", str(out)]) == 0
    arch = ArchSpec(euler_thetas(theta_abs_shifted(0.4, 1.0, 0.05), 1.0, 2))
    noise = NoiseSpec.truncated(TruncatedLaw.centered(Normal(0, 1), -2.0))
    built = build_chain(arch, [noise] * 2, Uniform(0.9, 1.1), [9, 9, 9])
    assert _read(out / "chain.json") == (json.dumps(built.to_json()) + "\n").encode()


def test_chain_warns_when_a_dual_grid_does_not_converge(tmp_path, chain_config, capsys, monkeypatch):
    import martquant.chain as chainmod
    from martquant.cli import _arch_from_config, _load_law

    full = tmp_path / "full"
    assert run(["chain", "--config", str(chain_config), "--out", str(full)]) == 0
    assert "did not reach tolerance" not in capsys.readouterr().err
    # --strict changes nothing when every grid converges
    full_strict = tmp_path / "full_strict"
    assert run(["chain", "--config", str(chain_config), "--out", str(full_strict), "--strict"]) == 0
    assert "did not reach tolerance" not in capsys.readouterr().err

    real = chainmod.dual_lloyd_1d

    def two_sweeps(law, n_points, **kwargs):
        return real(law, n_points, **{**kwargs, "max_iter": 2})

    monkeypatch.setattr(chainmod, "dual_lloyd_1d", two_sweeps)
    capped = tmp_path / "capped"
    assert run(["chain", "--config", str(chain_config), "--out", str(capped)]) == 0
    err = capsys.readouterr().err
    assert "warning: step 0: dual grid did not reach tolerance" in err
    assert "warning: step 1: dual grid did not reach tolerance" in err
    # the warning goes to stderr only: the artifacts are those of the capped
    # chain, with the same files and columns as a converged run
    cfg = json.loads(chain_config.read_text())
    arch, noises = _arch_from_config(cfg)
    built = chainmod.build_chain(arch, noises, _load_law(cfg["x0"]), [9, 9, 9])
    assert not any(d["dual_converged"] for d in built.diagnostics)
    assert _read(capped / "chain.json") == (json.dumps(built.to_json()) + "\n").encode()
    assert sorted(p.name for p in capped.iterdir()) == sorted(p.name for p in full.iterdir())
    header = _read(full / "diagnostics.csv").splitlines()[0]
    assert _read(capped / "diagnostics.csv").splitlines()[0] == header
    # --strict turns the warning into exit code 2 and still writes the same
    # artifacts
    strict = tmp_path / "strict"
    assert run(["chain", "--config", str(chain_config), "--out", str(strict), "--strict"]) == 2
    assert "warning: step 1: dual grid did not reach tolerance" in capsys.readouterr().err
    assert sorted(p.name for p in strict.iterdir()) == sorted(p.name for p in capped.iterdir())
    for name in (p.name for p in capped.iterdir()):
        assert _read(strict / name) == _read(capped / name)


@pytest.mark.parametrize("noise", ["truncated", "quantized"])
def test_commands_warn_when_a_primal_quantizer_does_not_converge(
    tmp_path, chain_config, capsys, monkeypatch, noise
):
    cfg = json.loads(chain_config.read_text())
    # a uniform x0 converges in one iteration, which no cap stops short
    cfg.update(paths=2000, x0={"kind": "normal", "mean": 1, "sd": 0.05})
    if noise == "quantized":
        cfg["noise"]["quantized"] = 7
    config = tmp_path / "c.json"
    config.write_text(json.dumps(cfg))
    commands = ("chain", "simulate", "bounds")

    def warnings_printed(command, out, *flags):
        status = run([command, "--config", str(config), "--out", str(out), *flags])
        err = capsys.readouterr().err.splitlines()
        return status, [line for line in err if line.startswith("warning")]

    for command in commands:
        assert warnings_printed(command, tmp_path / "full" / command) == (0, [])
    assert warnings_printed("chain", tmp_path / "full_strict", "--strict") == (0, [])

    # the noise (simulate and bounds draw x0 itself) and x0 of the chain
    monkeypatch.setattr(primalmod, "_LLOYD_MAX_ITER", 2)
    noise_warning = ["warning: noise (7 atoms): primal grid did not reach tolerance"]
    noise_warning = noise_warning if noise == "quantized" else []
    x0_warning = ["warning: x0 (9 points): primal grid did not reach tolerance"]
    want = {"chain": noise_warning + x0_warning, "simulate": noise_warning, "bounds": noise_warning}
    for command in commands:
        assert warnings_printed(command, tmp_path / "capped" / command) == (0, want[command])
    # --strict exits 2 on it, and still writes the same artifacts
    strict, capped = tmp_path / "strict", tmp_path / "capped" / "chain"
    assert warnings_printed("chain", strict, "--strict") == (2, want["chain"])
    assert sorted(p.name for p in strict.iterdir()) == sorted(p.name for p in capped.iterdir())
    for name in (p.name for p in capped.iterdir()):
        assert _read(strict / name) == _read(capped / name)


def test_commands_take_a_noise_whose_atom_takes_several_start_levels(tmp_path, chain_config, capsys):
    # 64 atoms of the normal truncated to [-2, 2], whose clipped mass of
    # 0.046 sits on 0 and spans two of the levels (2i - 1) / 128
    law = {"kind": "normal", "mean": 0, "sd": 1, "truncation": {"alpha": -2}}
    out = tmp_path / "q"
    argv = ["quantize", "primal", "--law", json.dumps(law), "--n", "64", "--out", str(out)]
    assert run(argv) == 0
    assert len(json.loads((out / "grid.json").read_text())) == 64
    cfg = json.loads(chain_config.read_text())
    cfg.update(paths=2000, noise={"law": law, "quantized": 64})
    config = tmp_path / "c.json"
    config.write_text(json.dumps(cfg))
    assert run(["simulate", "--config", str(config), "--out", str(tmp_path / "s")]) == 0
    assert "warning" not in capsys.readouterr().err
    # four atoms that are their own optimal grid, and three that are too few
    atoms = {"kind": "atoms", "points": [0, 1, 2, 3], "weights": [0.1, 0.7, 0.1, 0.1]}
    argv = ["quantize", "primal", "--law", json.dumps(atoms), "--n", "4", "--out", str(out)]
    assert run(argv) == 0
    assert capsys.readouterr().out == "distortion 0\n"
    atoms = {"kind": "atoms", "points": [0, 1, 2], "weights": [0.2, 0.5, 0.3]}
    argv = ["quantize", "primal", "--law", json.dumps(atoms), "--n", "4", "--out", str(out)]
    assert run(argv) == 1
    assert "law support is too small for the requested grid size" in capsys.readouterr().err


# alpha = -1 and the auto-centered beta = 1 are both atoms of the noise
_ATOMS_NOISE = {
    "law": {
        "kind": "atoms",
        "points": [-2, -1, 0, 1, 2],
        "weights": [0.1, 0.2, 0.4, 0.2, 0.1],
        "truncation": {"alpha": -1},
    }
}


def _converged_dominated_chain(tmp_path, capsys, cfg):
    """Run ``chain`` on ``cfg``: it exits 0 with no dual-grid warning, and
    every step is a martingale and dominated."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run(["chain", "--config", str(path), "--out", str(out)]) == 0
    assert "did not reach tolerance" not in capsys.readouterr().err
    lines = (out / "diagnostics.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == cfg["steps"]
    for row in rows:
        assert float(row["martingale_residual"]) <= 1e-9
        assert row["convex_order"] == "dominated"


def test_chain_with_atoms_at_the_truncation_ends_stays_a_martingale(tmp_path, capsys):
    cfg = {
        "steps": 3,
        "theta": {"kind": "affine_abs", "a": 0.4, "b": 0.4},
        "euler": {"horizon": 1.0},
        "noise": _ATOMS_NOISE,
        "x0": {"kind": "uniform", "a": 0.9, "b": 1.1},
        "sizes": {"n0": 9, "n": 9},
    }
    _converged_dominated_chain(tmp_path, capsys, cfg)


def test_chain_whose_hull_end_is_an_image_of_the_atom_at_alpha(tmp_path, capsys):
    # the lowest image x_0 + theta(x_0) alpha is the hull's end, where the
    # noise's atom at alpha puts 1.2e-2 of the mass
    cfg = {
        "steps": 1,
        "theta": {"kind": "affine_abs", "a": 0.4, "b": 0.4},
        "noise": _ATOMS_NOISE,
        "x0": {"kind": "uniform", "a": -1.5, "b": 1.5},
        "sizes": {"n0": 17, "n": 9},
    }
    _converged_dominated_chain(tmp_path, capsys, cfg)


def test_chain_auto_centering_note(tmp_path, capsys):
    cfg = {
        "steps": 1,
        "theta": {"kind": "constant", "c": 0.5},
        "noise": {
            "law": {
                "kind": "normal",
                "mean": 0,
                "sd": 1,
                "truncation": {"alpha": -1.7, "beta": "auto"},
            }
        },
        "x0": {"kind": "pointmass", "x": 0.0},
        "sizes": [1, 9],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert run(["chain", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "centered automatically" in capsys.readouterr().err


def test_chain_unsupported_dimension_exits_1(tmp_path, capsys):
    cfg = {
        "steps": 1,
        "theta": {"kind": "constant", "c": 0.5},
        "noise": {
            "law": {
                "kind": "normal",
                "mean": 0,
                "sd": 1,
                "truncation": {"alpha": -2, "beta": "auto"},
            }
        },
        "x0": {"kind": "pointmass", "x": 0.0},
        "sizes": [1, 9],
    }
    path = tmp_path / "c3.json"
    out = tmp_path / "o3"
    # bounds with "noise_dim": 3 used to write a bound for q = 3 on scalar
    # noise, and simulate with "dim": 2 to simulate in 1D, both with exit 0
    for command, key, value in [("chain", "dim", 3), ("simulate", "dim", 2),
                                ("bounds", "noise_dim", 3), ("chain", "noise_dim", 2)]:
        path.write_text(json.dumps({**cfg, key: value}))
        assert run([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and f"'{key}' must be 1" in err
        assert not out.exists()


def test_chain_missing_config_exits_1(tmp_path):
    assert run(["chain", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1


def test_mot_command_and_witness_exit(tmp_path, capsys):
    good = {
        "mu0": {"kind": "uniform", "a": -1, "b": 1},
        "mu1": {"kind": "uniform", "a": -2, "b": 2},
        "payoff": {"kind": "quadratic"},
        "levels": [[6, 6]],
    }
    p = tmp_path / "mot.json"
    p.write_text(json.dumps(good))
    out = tmp_path / "mot_out"
    assert run(["mot", "--config", str(p), "--out", str(out)]) == 0
    lines = (out / "bounds.csv").read_text().splitlines()
    assert lines[0] == "N,M,lower,upper"
    n, m, lower, upper = lines[1].split(",")
    assert abs(float(upper) - float(lower)) < 1e-8  # quadratic payoff pins both
    again = tmp_path / "mot_again"
    assert run(["mot", "--config", str(p), "--out", str(again)]) == 0
    assert _read(again / "bounds.csv") == _read(out / "bounds.csv")

    bad = dict(good, mu0=good["mu1"], mu1=good["mu0"])
    p2 = tmp_path / "bad.json"
    p2.write_text(json.dumps(bad))
    assert run(["mot", "--config", str(p2), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "witness" in err


def test_mot_export_lp(tmp_path):
    cfg = {
        "mu0": {"kind": "uniform", "a": -1, "b": 1},
        "mu1": {"kind": "uniform", "a": -2, "b": 2},
        "payoff": {"kind": "spread"},
        "levels": [[4, 4]],
    }
    p = tmp_path / "m.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "lp_out"
    assert run(["mot", "--config", str(p), "--out", str(out), "--export-lp"]) == 0
    files = sorted(f.name for f in out.iterdir())
    assert files == ["mot_4_4_max.lp", "mot_4_4_min.lp"]
    text = (out / "mot_4_4_min.lp").read_text()
    assert text.startswith("\\ mot_4_4_min\nMinimize\n")
    assert "Subject To" in text and text.rstrip().endswith("End")


@pytest.mark.parametrize("export", [False, True])
@pytest.mark.parametrize("side, quantizer", [("primal", "lloyd_1d"), ("dual", "dual_lloyd_1d")])
def test_mot_warns_when_a_quantizer_does_not_converge(tmp_path, capsys, monkeypatch, export, side, quantizer):
    from martquant import mot as motmod

    p = tmp_path / "m.json"
    mu1 = {"kind": "normal", "mean": 0, "sd": 3, "truncation": {"alpha": -6, "beta": 6}}
    # the third level repeats the first, and warns again
    levels = [[8, 6], [12, 9], [8, 6]]
    p.write_text(json.dumps(dict(_MOT_CONFIG, mu0="normal01", mu1=mu1, levels=levels)))
    flag = ["--export-lp"] if export else []
    assert run(["mot", "--config", str(p), "--out", str(tmp_path / "full")] + flag) == 0
    assert "did not reach tolerance" not in capsys.readouterr().err

    if quantizer == "lloyd_1d":
        monkeypatch.setattr(primalmod, "_LLOYD_MAX_ITER", 2)
    else:
        real = motmod.dual_lloyd_1d

        def two_iterations(law, n_points, **kwargs):
            return real(law, n_points, **{**kwargs, "max_iter": 2})

        monkeypatch.setattr(motmod, "dual_lloyd_1d", two_iterations)
    assert run(["mot", "--config", str(p), "--out", str(tmp_path / "capped")] + flag) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [f"warning: level ({n}, {m}): {side} grid did not reach tolerance" for n, m in levels]


def test_mot_forward_start_payoff(tmp_path):
    from martquant.laws import Uniform
    from martquant.mot import forward_start_payoff, stability_experiment

    p = tmp_path / "m.json"
    p.write_text(json.dumps(dict(_MOT_CONFIG, payoff={"kind": "forward_start", "strike": 0.25})))
    out = tmp_path / "out"
    assert run(["mot", "--config", str(p), "--out", str(out)]) == 0
    rows = stability_experiment(Uniform(-1, 1), Uniform(-2, 2), forward_start_payoff(0.25), [(6, 6)])
    lines = (out / "bounds.csv").read_text().splitlines()
    assert lines[1:] == [f"{r['N']},{r['M']},{r['lower']:.17g},{r['upper']:.17g}" for r in rows]


@pytest.mark.parametrize("export", [False, True])
def test_mot_budget_holds_with_and_without_export_lp(tmp_path, capsys, monkeypatch, export):
    from martquant import lp as lpmod, mot as motmod

    def no_solve(lp):
        raise AssertionError("an LP was solved before every level's budget was checked")

    monkeypatch.setattr(motmod, "_MAX_VARIABLES", 16)
    monkeypatch.setattr(lpmod, "solve", no_solve)
    p = tmp_path / "m.json"
    # the first level (8 variables) fits, the second (32) does not
    p.write_text(json.dumps(dict(_MOT_CONFIG, levels=[[2, 4], [4, 8]])))
    out = tmp_path / "out"
    args = ["mot", "--config", str(p), "--out", str(out)] + (["--export-lp"] if export else [])
    assert run(args) == 2
    err = capsys.readouterr().err
    assert "budget exceeded: 32 coupling variables exceed budget 16" in err
    assert "numerical failure" not in err
    assert not list(out.glob("*.lp"))
    assert not (out / "bounds.csv").exists()


def test_simulate_and_bounds_commands(tmp_path, chain_config):
    sim_out = tmp_path / "sim"
    assert run(["simulate", "--config", str(chain_config), "--out", str(sim_out), "--seed", "3"]) == 0
    rows = (sim_out / "coupled.csv").read_text().splitlines()
    assert rows[0] == "k,empirical_gap_l2,se_gap_sq"
    assert len(rows) == 4

    b_out = tmp_path / "bounds"
    assert run(["bounds", "--config", str(chain_config), "--out", str(b_out), "--seed", "3"]) == 0
    lines = (b_out / "bounds.csv").read_text().splitlines()
    assert lines[0] == "k,empirical,bound,bound_product,slack,se"
    for line in lines[1:]:
        parts = [float(v) for v in line.split(",")]
        assert parts[1] <= parts[2] + 3 * parts[5] + 1e-12  # empirical <= bound + 3 SE


@pytest.mark.parametrize("command", ["simulate", "bounds"])
def test_one_path_is_a_configuration_error(tmp_path, chain_config, capsys, command):
    # a batch-means standard error needs at least two paths; with one the
    # commands used to exit 0 and write se = nan
    cfg = json.loads(chain_config.read_text())
    cfg["paths"] = 1
    one = tmp_path / "one.json"
    one.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, "--config", str(one), "--out", str(out), "--seed", "3"]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "bounds"])
@pytest.mark.parametrize("source", ["flag_0", "flag_-1"])
def test_threads_below_one_are_a_configuration_error(
    tmp_path, chain_config, capsys, command, source
):
    # a count below 1 names no thread count: 0 must not fall back to the
    # default, and -1 must not run serially
    out = tmp_path / "out"
    threads = source.split("_")[1]
    args = [command, "--config", str(chain_config), "--out", str(out), "--seed", "3",
            "--threads", threads]
    assert run(args) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "threads" in err.lower()
    assert not out.exists()


@pytest.mark.parametrize("command", ["chain", "simulate"])
@pytest.mark.parametrize("case", ["x0-weight-nan", "noise-sd-nan"])
def test_nan_in_a_config_is_a_configuration_error(tmp_path, chain_config, capsys, command, case):
    # both configs used to exit 0: chain wrote nan marginals and printed
    # "not_dominated" at every step
    cfg = json.loads(chain_config.read_text())
    if case == "x0-weight-nan":
        cfg["x0"] = {"kind": "atoms", "points": [0.9, 1.1], "weights": [float("nan"), 1.0]}
    else:
        cfg["noise"]["law"]["sd"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run([command, "--config", str(path), "--out", str(out)]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("simulate", "paths", 2.5),
        ("simulate", "paths", True),
        ("simulate", "paths", 0),
        ("simulate", "seed", 7.9),
        ("simulate", "seed", -1),
        ("simulate", "steps", 2.5),
        ("bounds", "paths", "2.5"),
        ("bounds", "seed", 7.0),
        ("bounds", "steps", 0),
        ("chain", "steps", 2.5),
        ("chain", "steps", False),
    ],
)
def test_whole_number_keys_reject_other_values(tmp_path, chain_config, capsys, command, key, value):
    # int(...) used to run 2.5 paths as 2, seed 7.9 as 7 and 2.5 steps as 2
    cfg = json.loads(chain_config.read_text())
    cfg[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and f"'{key}'" in err
    assert not out.exists()


def test_negative_seed_flag_is_a_configuration_error(tmp_path, chain_config, capsys):
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(chain_config), "--out", str(out), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "--seed" in err
    assert not out.exists()


def test_whole_number_keys_accept_digit_strings(tmp_path, chain_config):
    cfg = json.loads(chain_config.read_text())
    cfg.update(paths=400, seed=5)
    outputs = []
    for name, values in (("ints", {}), ("strings", {"paths": "400", "seed": "5", "steps": "2"})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**cfg, **values}))
        out = tmp_path / name
        assert run(["simulate", "--config", str(path), "--out", str(out)]) == 0
        outputs.append(_read(out / "coupled.csv"))
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 4


_NORMAL = {"kind": "normal", "mean": 0, "sd": 1}
_MOT_CONFIG = {
    "mu0": {"kind": "uniform", "a": -1, "b": 1},
    "mu1": {"kind": "uniform", "a": -2, "b": 2},
    "payoff": {"kind": "spread"},
    "levels": [[6, 6]],
}


@pytest.mark.parametrize(
    "command, edit, key",
    [
        ("chain", {"sizes": {"n0": 9.9, "n": 9}}, "sizes.n0"),
        ("chain", {"sizes": {"n0": 9, "n": 9.7}}, "sizes.n"),
        ("chain", {"sizes": {"n0": 9, "n": 1}}, "sizes.n"),
        ("chain", {"sizes": [9, 9.5, 9]}, "sizes[1]"),
        ("chain", {"sizes": [0, 9, 9]}, "sizes[0]"),
        ("chain", {"dim": 1.0}, "dim"),
        ("simulate", {"dim": "1.5"}, "dim"),
        ("chain", {"noise_dim": True}, "noise_dim"),
        ("chain", {"noise": {"law": _NORMAL, "quantized": 7.5}}, "noise.quantized"),
        ("bounds", {"noise": {"law": _NORMAL, "quantized": 0}}, "noise.quantized"),
        ("mot", {"levels": [[8.5, 8]]}, "levels[0]"),
        ("mot", {"levels": [[8, 8], [0, 8]]}, "levels[1]"),
        ("mot", {"levels": [[8, 1]]}, "levels[0]"),
        ("mot --export-lp", {"levels": [[4, "4.5"]]}, "levels[0]"),
    ],
)
def test_nested_whole_number_keys_reject_other_values(
    tmp_path, chain_config, capsys, command, edit, key
):
    # int(...) used to build 9-point grids from "n0": 9.9 and run level 8
    # from [8.5, 8]
    base = _MOT_CONFIG if command.startswith("mot") else json.loads(chain_config.read_text())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**base, **edit}))
    out = tmp_path / "out"
    name, *flags = command.split()
    assert run([name, "--config", str(path), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and f"'{key}'" in err
    assert not out.exists()


_MALFORMED_CHAIN = {
    "theta-string": {"theta": "affine"},
    "noise-list": {"noise": [1]},
    "noise-law-number": {"noise": {"law": 3}},
    "euler-number": {"euler": 1.0},
    "truncation-string": {"noise": {"law": {**_NORMAL, "truncation": "x"}}},
    "x0-list": {"x0": [1, 2]},
    "x0-number": {"x0": 1.0},
    "horizon-list": {"euler": {"horizon": [1]}},
    "theta-c-list": {"theta": {"kind": "constant", "c": [1]}},
    "uniform-a-list": {"x0": {"kind": "uniform", "a": [0.9], "b": 1.1}},
    "pointmass-x-object": {"x0": {"kind": "pointmass", "x": {"a": 1}}},
    "atoms-points-object": {"x0": {"kind": "atoms", "points": {"a": 1}, "weights": [1.0]}},
}
_MALFORMED_MOT = {
    "payoff-string": {"payoff": "spread"},
    "levels-flat": {"levels": [8, 8]},
    "levels-number": {"levels": 8},
    "mu0-number": {"mu0": 1.0},
}


@pytest.mark.parametrize(
    "command, case",
    [(c, k) for k in ["top-level-list", *_MALFORMED_CHAIN] for c in ("chain", "simulate", "bounds")]
    + [("mot", k) for k in ["top-level-list", *_MALFORMED_MOT]],
)
def test_a_config_of_the_wrong_shape_is_a_configuration_error(
    tmp_path, chain_config, capsys, command, case
):
    # each of these used to end in a TypeError or AttributeError traceback
    if command == "mot":
        cfg = {**_MOT_CONFIG, **_MALFORMED_MOT.get(case, {})}
    else:
        cfg = json.loads(chain_config.read_text())
        # an explicit beta: no centering note on stderr before the error
        cfg["noise"]["law"]["truncation"]["beta"] = 2.0
        cfg.update(_MALFORMED_CHAIN.get(case, {}))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([cfg] if case == "top-level-list" else cfg))
    out = tmp_path / "out"
    assert run([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["chain", "simulate", "bounds"])
def test_uncentered_quantized_noise_is_a_configuration_error(
    tmp_path, chain_config, capsys, command
):
    # simulate and bounds used to write bounds for an innovation of mean 1
    cfg = json.loads(chain_config.read_text())
    cfg["noise"] = {"law": {"kind": "exponential", "rate": 1}, "quantized": 5}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run([command, "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "not centered" in err
    assert not out.exists()


_ATOMS_2D = {"kind": "atoms", "points": [[0.9, 0.0], [1.1, 0.0]], "weights": [0.5, 0.5]}


@pytest.mark.parametrize(
    "case, message",
    [
        ("quantize-dual-normal", "compact support hull"),
        ("mot-2d-mu0", "one-dimensional"),
        ("mot-2d-mu0-export-lp", "one-dimensional"),
        ("chain-2d-x0", "one-dimensional"),
    ],
)
def test_a_law_the_command_cannot_take_is_a_configuration_error(
    tmp_path, chain_config, capsys, case, message
):
    # SupportError and DimensionMismatch: each of these used to exit 2 as a
    # "numerical failure", and chain, mot and quantize left an empty --out
    out = tmp_path / "out"
    if case == "quantize-dual-normal":
        argv = ["quantize", "dual", "--law", "normal01", "--n", "5"]
    else:
        if case.startswith("mot-2d-mu0"):
            cfg = dict(_MOT_CONFIG, mu0=_ATOMS_2D)
        else:
            cfg = dict(json.loads(chain_config.read_text()), x0=_ATOMS_2D)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = [case.split("-")[0], "--config", str(path)]
        argv += ["--export-lp"] * case.endswith("export-lp")
    assert run([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "configuration error:" in err and message in err
    assert "numerical failure" not in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, artifacts",
    [
        ("chain", ["chain.json", "diagnostics.csv", "marginal_0.csv", "marginal_2.csv"]),
        ("simulate", ["coupled.csv", "coupled.json"]),
        ("bounds", ["bounds.csv", "bounds.json"]),
    ],
)
def test_an_atoms_x0_is_the_same_law_inline_in_a_file_or_in_a_string(
    tmp_path, chain_config, command, artifacts
):
    # a file or a string used to Lloyd-quantize the five atoms to sizes.n0
    # = 9 points (as many as the atoms allow), inline they were used as given
    x0 = {"kind": "atoms", "points": [0.8, 0.9, 1.0, 1.1, 1.2],
          "weights": [0.1, 0.2, 0.4, 0.2, 0.1]}
    law_file = tmp_path / "x0.json"
    law_file.write_text(json.dumps(x0))
    cfg = dict(json.loads(chain_config.read_text()), paths=400, seed=7)
    outputs = []
    for name, value in (("inline", x0), ("file", str(law_file)), ("string", json.dumps(x0))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(cfg, x0=value)))
        out = tmp_path / name
        assert run([command, "--config", str(path), "--out", str(out)]) == 0
        outputs.append([_read(out / f) for f in artifacts])
    assert outputs[0] == outputs[1] == outputs[2]
    if command == "chain":
        assert outputs[0][2].decode().splitlines()[1:] == [
            "0.80000000000000004,0.10000000000000001",
            "0.90000000000000002,0.20000000000000001",
            "1,0.40000000000000002",
            "1.1000000000000001,0.20000000000000001",
            "1.2,0.10000000000000001",
        ]


def test_a_truncated_atoms_x0_is_used_as_its_atoms(tmp_path, capsys):
    # the truncation of five atoms to [-1, 1] is the 3-atom law {-1, 0, 1};
    # it used to go to Lloyd at sizes.n0 = 31 points, which it cannot fill
    euler = Path(__file__).resolve().parents[1] / "configs" / "euler.json"
    cfg = dict(
        json.loads(euler.read_text()), steps=2, sizes={"n0": 31, "n": 9}, x0=_ATOMS_NOISE["law"]
    )
    _converged_dominated_chain(tmp_path, capsys, cfg)
    rows = (tmp_path / "o" / "marginal_0.csv").read_text().splitlines()[1:]
    points, weights = np.array([[float(v) for v in row.split(",")] for row in rows]).T
    assert points.tolist() == [-1.0, 0.0, 1.0]
    np.testing.assert_allclose(weights, [0.2, 0.6, 0.2], rtol=0, atol=1e-15)


def test_hull_violation_is_a_numerical_failure(tmp_path, chain_config, capsys, monkeypatch):
    from martquant import chain as chainmod
    from martquant.errors import HullViolation

    def leaves_the_hull(*args, **kwargs):
        raise HullViolation("image of source point 1 leaves the target hull by 1e-3")

    monkeypatch.setattr(chainmod, "build_chain", leaves_the_hull)
    assert run(["chain", "--config", str(chain_config), "--out", str(tmp_path / "out")]) == 2
    assert "numerical failure: image of source point 1" in capsys.readouterr().err


def test_nested_whole_number_keys_accept_digit_strings(tmp_path, chain_config):
    cfg = json.loads(chain_config.read_text())
    runs = [
        ("chain", "chain.json", cfg, {"sizes": {"n0": "9", "n": "9"}, "dim": "1"}),
        ("chain", "chain.json", {**cfg, "sizes": [9, 9, 9]}, {"sizes": ["9", 9, "9"]}),
        ("mot", "bounds.csv", _MOT_CONFIG, {"levels": [["6", "6"]]}),
    ]
    for command, artifact, base, strings in runs:
        outputs = []
        for name, values in (("ints", {}), ("strings", strings)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**base, **values}))
            out = tmp_path / command / name
            assert run([command, "--config", str(path), "--out", str(out)]) == 0
            outputs.append(_read(out / artifact))
        assert outputs[0] == outputs[1]


def test_counterexample_command(tmp_path, capsys):
    out = tmp_path / "ce"
    assert run(["counterexample", "--resolution", "0.001", "--out", str(out)]) == 0
    blob = json.loads((out / "counterexample.json").read_text())
    assert abs(blob["u_star_moment"] - 1 / 3) < 1e-3
    assert abs(blob["u_star_w2"] - 0.326) < 2e-3
    assert blob["derivative_sign_at_third"] == 1


def _run_python(*args):
    """The interpreter on ``args``, with this martquant importable also
    when it is not installed (pytest's ``pythonpath`` reaches only its own
    process)."""
    src = str(Path(martquant.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point():
    proc = _run_python(
        "-m", "martquant.cli", "quantize", "primal", "--law",
        "uniform01", "--n", "2", "--out", "/tmp/martquant_cli_entry_test",
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("distortion ")


def test_1d_chain_never_imports_the_lp_solver(tmp_path, chain_config):
    # scipy.optimize and scipy.spatial cost start-up time and memory; only
    # LPs and 2D triangulations need them
    code = (
        "import sys\n"
        "import martquant.cli\n"
        "rc = martquant.cli.run(['chain', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(rc, 'scipy.optimize' in sys.modules, 'scipy.spatial' in sys.modules)\n"
    )
    proc = _run_python("-c", code, str(chain_config), str(tmp_path / "c"))
    lines = proc.stdout.splitlines()
    assert lines.count("step 0: convex order dominated") == 1
    assert lines[-1] == "0 False False", proc.stderr


def test_unsupported_dimension_exits_1(tmp_path):
    cfg = {
        "steps": 1,
        "theta": {"kind": "constant", "c": 1.0},
        "noise": {"law": {"kind": "uniform", "a": -1, "b": 1}},
        "x0": {"kind": "pointmass", "x": 0.0},
        "sizes": [1, 5],
    }
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    # uniform noise without truncation block or quantized count: config error
    assert run(["chain", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
