import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import martquant
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


def test_quantize_inline_json_law(tmp_path):
    law = json.dumps({"kind": "uniform", "a": -1, "b": 1})
    out = tmp_path / "j"
    assert run(["quantize", "primal", "--law", law, "--n", "2", "--out", str(out)]) == 0
    grid = json.loads((out / "grid.json").read_text())
    assert np.allclose(grid, [-0.5, 0.5], atol=1e-10)


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


def test_chain_warns_when_a_dual_grid_does_not_converge(tmp_path, chain_config, capsys, monkeypatch):
    import martquant.chain as chainmod
    from martquant.cli import _arch_from_config, _x0_from_config

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
    built = chainmod.build_chain(arch, noises, _x0_from_config(cfg), [9, 9, 9])
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
        "dim": 3,
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
    path.write_text(json.dumps(cfg))
    assert run(["chain", "--config", str(path), "--out", str(tmp_path / "o3")]) == 1


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
