import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import roughdensity
from roughdensity.cli import main
from roughdensity.fields import field_from_spec
from roughdensity.kernels import TimeGrid, kernel_from_spec
from roughdensity.lift import lift
from roughdensity.malliavin import directional_derivative
from roughdensity.paths import (
    RNG_SCHEME,
    CMElement,
    cm_eval,
    cm_norm_sq,
    load_ensemble,
    sample,
)
from roughdensity.rde import solve
from roughdensity.runner import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_GATE,
    EXIT_PASS,
    config_hash,
    run,
    summarize,
    validate_config,
)


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


HYP_OK = {"kernel": {"family": "fbm", "H": 0.4, "T": 1.0},
          "grid": {"n_steps": 64}, "experiment": "hypotheses", "seed": 1}

HYP_BAD = {"kernel": {"family": "fbm", "H": 0.7, "T": 2.0, "rho": 1.0},
           "grid": {"n_steps": 16}, "experiment": "hypotheses", "seed": 1}

DENSITY_SMALL = {
    "kernel": {"family": "fbm", "H": 0.5, "T": 1.0, "rho": 1.0},
    "grid": {"n_steps": 32},
    "vf": {"name": "identity", "params": {"n": 1}},
    "experiment": "density", "seed": 3, "n_paths": 4000, "eps": 1.0,
}


def test_hypotheses_run_passes(tmp_path):
    code = run(HYP_OK, str(tmp_path / "out"))
    assert code == EXIT_PASS
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pass"] is True
    rep = report["result"]["hypothesis_report"]
    assert rep["negative_correlation"]["pass"] is True


def test_hypotheses_run_fails_with_witness(tmp_path):
    code = run(HYP_BAD, str(tmp_path / "out"))
    assert code == EXIT_FAIL
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pass"] is False
    nc = report["result"]["hypothesis_report"]["negative_correlation"]
    assert nc["pass"] is False
    assert nc["witness"] == [0.0, 1.0, 1.0, 2.0]
    want = 0.5 * (2.0 ** 1.4 - 2.0)
    assert nc["worst"] == pytest.approx(want, rel=1e-12)


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_schema_violation_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"kernel": {"family": "fbm", "H": 0.4},
                                  "experiment": "nope"})
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    with pytest.raises(Exception):
        validate_config({"kernel": {"family": "fbm"}, "experiment": "nope"})


@pytest.mark.parametrize("patch", [
    {"grid": {"nsteps": 256}},
    {"vf": {"name": "identity", "parms": {"n": 1}}},
    {"kernel": {"family": "fbm", "H": 0.5, "hurst": 0.4}},
    {"grid": {"n_steps": 32, "dyadic": True}},
    {"thresholds": {"alpha_window": 0.5}},
], ids=["grid.nsteps", "vf.parms", "kernel.hurst", "grid.dyadic",
        "thresholds.alpha_window"])
def test_unknown_config_key_exits_2(tmp_path, capsys, patch):
    cfg = write_config(tmp_path, {**DENSITY_SMALL, **patch})
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_bad_worker_env_exits_2(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, HYP_OK)
    monkeypatch.setenv("ROUGHDENSITY_WORKERS", "two")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_schema_ships_with_package(tmp_path):
    # a copy of the package with no docs/ (or any checkout) beside it
    src = Path(roughdensity.__file__).parent
    shutil.copytree(src, tmp_path / "roughdensity",
                    ignore=shutil.ignore_patterns("__pycache__"))
    script = ("import roughdensity.runner as r; "
              "r.validate_config({'kernel': {'family': 'fbm'}, "
              "'experiment': 'hypotheses'}); print(r.__file__)")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(tmp_path)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(str(tmp_path))


def test_gated_experiment_exits_3(tmp_path):
    config = dict(DENSITY_SMALL)
    config["kernel"] = {"family": "fbm", "H": 0.7, "T": 1.0, "rho": 1.0}
    config["grid"] = {"n_steps": 16}
    code = run(config, str(tmp_path / "out"))
    assert code == EXIT_GATE
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pass"] is False
    assert report["gate"]["pass"] is False


def test_density_run_and_report(tmp_path):
    out = tmp_path / "out"
    code = run(DENSITY_SMALL, str(out))
    assert code == EXIT_PASS
    assert (out / "density.csv").exists()
    table = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
    assert table.shape[1] == 3
    text = summarize(str(out))
    assert "PASS" in text and "tail slope" in text


def test_report_missing_manifest_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        summarize(str(tmp_path))
    assert main(["report", str(tmp_path)]) == 1


def test_sample_experiment_writes_ensemble(tmp_path):
    config = {"kernel": {"family": "fbm", "H": 0.4, "T": 1.0},
              "grid": {"n_steps": 32}, "experiment": "sample",
              "seed": 5, "n_paths": 2000, "d": 2}
    out = tmp_path / "out"
    assert run(config, str(out)) == EXIT_PASS
    ens = load_ensemble(str(out / "ensemble.bin"))
    assert ens.n_paths == 2000 and ens.d == 2
    assert (out / "path0.csv").exists()


def test_rerun_is_byte_identical_across_workers(tmp_path):
    blobs = []
    for i, workers in enumerate((1, 4, 16)):
        out = tmp_path / f"out{i}"
        assert run(DENSITY_SMALL, str(out), workers=workers) == EXIT_PASS
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    # and a plain re-run reproduces bytes too
    out = tmp_path / "again"
    run(DENSITY_SMALL, str(out), workers=2)
    assert (out / "report.json").read_bytes() == blobs[0]


def test_manifest_records_versions_and_rng_scheme(tmp_path):
    blobs = []
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        assert run(DENSITY_SMALL, str(out), workers=workers) == EXIT_PASS
        blobs.append((out / "report.json").read_bytes())
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["numpy"] == np.__version__
        assert manifest["scipy"] == importlib.metadata.version("scipy")
        assert manifest["rng_scheme"] == RNG_SCHEME
        assert json.loads(blobs[-1])["manifest"] == manifest
    assert blobs[0] == blobs[1]


NO_SCIPY_SCRIPT = """
import json, sys
import roughdensity.cli
from roughdensity.density import rate_function
from roughdensity.fields import identity_field
from roughdensity.kernels import FractionalBrownian, FractionalOU, TimeGrid
from roughdensity.runner import run
assert run(json.loads(sys.argv[1]), sys.argv[2]) == 0
rate_function([0.5], FractionalBrownian(0.4), identity_field(1), [0.0],
              grid=TimeGrid.regular(32), m_nodes=4, n_starts=1)
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
FractionalOU(0.4, 1.0)
print(json.dumps([loaded, "scipy.integrate" in sys.modules]))
"""


def test_scipy_stays_off_the_import_path(tmp_path):
    # a hypotheses run and a rate-function solve (a SkeletonPropagator)
    # load no scipy module; the fOU kernel's quadrature does
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(HYP_OK),
         str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded, fou_loads_quad = json.loads(proc.stdout)
    assert loaded == []
    assert fou_loads_quad


def test_config_hash_stable_under_key_order():
    a = {"kernel": {"family": "fbm", "H": 0.4}, "experiment": "hypotheses"}
    b = {"experiment": "hypotheses", "kernel": {"H": 0.4, "family": "fbm"}}
    assert config_hash(a) == config_hash(b)


def test_cli_entry_point_subprocess(tmp_path):
    cfg = write_config(tmp_path, HYP_OK)
    out = tmp_path / "artifacts"
    proc = subprocess.run(
        [sys.executable, "-m", "roughdensity.cli", "run", "--config",
         str(cfg), "--out", str(out), "--workers", "2", "--verbose"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
    proc2 = subprocess.run(
        [sys.executable, "-m", "roughdensity.cli", "report", str(out)],
        capture_output=True, text=True)
    assert proc2.returncode == 0
    assert "c_X" in proc2.stdout


def test_list_fixtures(capsys):
    assert main(["list-fixtures"]) == 0
    out = capsys.readouterr().out
    assert "bounded_nonlinear" in out and "fbm" in out


def test_audit_interpolation_experiment(tmp_path, monkeypatch):
    # The run's gate report feeds the audit: one hypothesis check per run.
    calls = []
    gate = roughdensity.diagnostics.check_hypotheses

    def counted(*args, **kwargs):
        calls.append(args)
        return gate(*args, **kwargs)

    for module in (roughdensity.runner, roughdensity.malliavin):
        monkeypatch.setattr(module, "check_hypotheses", counted)
    config = {"kernel": {"family": "fbm", "H": 0.4, "T": 1.0},
              "grid": {"n_steps": 32}, "experiment": "audit-interpolation",
              "seed": 7, "n_paths": 25}
    assert run(config, str(tmp_path / "out")) == EXIT_PASS
    assert len(calls) == 1


def test_audit_malliavin_experiment(tmp_path):
    config = {"kernel": {"family": "fbm", "H": 0.4, "T": 1.0},
              "grid": {"n_steps": 128},
              "vf": {"name": "bounded_nonlinear"},
              "experiment": "audit-malliavin", "seed": 9, "n_pairs": 5}
    out = tmp_path / "out"
    assert run(config, str(out)) == EXIT_PASS
    report = json.loads((out / "report.json").read_text())
    assert report["result"]["derivative_oracle"]["worst_error"] <= 3e-4


def per_pair_worst_error(config):
    """The audit's derivative oracle as the loop it replaced: per pair, one
    single-path solve with the Jacobian and one perturbed solve without."""
    kernel = kernel_from_spec(config["kernel"])
    grid = TimeGrid.regular(config["grid"]["n_steps"], horizon=kernel.horizon)
    vf = field_from_spec(config["vf"]["name"])
    z0, seed, tau = [0.0] * vf.n, config["seed"], 1e-4
    ens = sample(kernel, grid, d=vf.d, n_paths=config["n_pairs"], seed=seed)
    rng = np.random.Generator(np.random.Philox(key=seed + 1))
    worst = 0.0
    for p in range(config["n_pairs"]):
        vals = ens.path(p)
        nodes = np.sort(rng.uniform(0.1 * kernel.horizon, kernel.horizon, 3))
        coeffs = rng.standard_normal((3, vf.d))
        h = CMElement(kernel, nodes, coeffs)
        h = CMElement(kernel, nodes, coeffs / np.sqrt(cm_norm_sq(h)))
        rp = lift(vals, grid)
        base = solve(rp, vf, z0=z0)
        pert = solve(lift(vals + tau * cm_eval(h, grid.nodes), grid), vf,
                     z0=z0, with_jacobian=False)
        fd = (pert.Z[-1] - base.Z[-1]) / tau
        got = directional_derivative(base, vf, rp.step1,
                                     cm_eval(h, grid.nodes), kernel.horizon)
        worst = max(worst, float(np.abs(fd - got).max()))
    return worst


def test_audit_malliavin_matches_per_pair_loop(tmp_path):
    config = {"kernel": {"family": "fbm", "H": 0.4, "T": 1.0},
              "grid": {"n_steps": 64}, "vf": {"name": "rotation_mix"},
              "experiment": "audit-malliavin", "seed": 4, "n_pairs": 8}
    blobs = []
    for workers in (1, 2):
        out = tmp_path / f"out{workers}"
        assert run(config, str(out), workers=workers) == EXIT_PASS
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]
    worst = json.loads(blobs[0])["result"]["derivative_oracle"]["worst_error"]
    assert worst == per_pair_worst_error(config)


def test_tails_experiment(tmp_path):
    config = {"kernel": {"family": "fbm", "H": 0.5, "T": 1.0, "rho": 1.0},
              "grid": {"n_steps": 64},
              "vf": {"name": "identity", "params": {"n": 1}},
              "experiment": "tails", "seed": 11, "n_paths": 20000}
    assert run(config, str(tmp_path / "out")) == EXIT_PASS


def test_varadhan_experiment(tmp_path):
    config = {
        "kernel": {"family": "fbm", "H": 0.5, "T": 1.0, "rho": 1.0},
        "grid": {"n_steps": 64},
        "vf": {"name": "identity", "params": {"n": 1}},
        "experiment": "varadhan", "seed": 13, "n_paths": 30000,
        "y_targets": [0.5], "eps_list": [0.5, 0.4, 0.3],
        "m_nodes": 8, "n_starts": 2,
        "thresholds": {"varadhan_gap": 0.1},
    }
    out = tmp_path / "out"
    assert run(config, str(out)) == EXIT_PASS
    table = (out / "varadhan.csv").read_text().splitlines()
    assert table[0] == "y,eps,eps2_log_p,trusted"
    assert len(table) == 4
    report = json.loads((out / "report.json").read_text())
    target = report["result"]["targets"][0]
    assert abs(target["rate_function"]["d2"] - 0.125) < 1e-3
    n_iter = target["rate_function"]["n_iterations"]
    assert n_iter == len(target["rate_function"]["iterations"]) >= 1
    assert f"({n_iter} iterations)" in summarize(str(out))


@pytest.mark.parametrize("horizon, y", [(2.0, 0.6), (0.5, 0.3)])
def test_varadhan_sweep_at_kernel_horizon(tmp_path, horizon, y):
    """The sweep evaluates the density at the horizon T, the time the rate
    function targets; d2 = y^2 / 2T for Brownian motion."""
    config = {"kernel": {"family": "fbm", "H": 0.5, "T": horizon},
              "grid": {"n_steps": 64}, "vf": {"name": "identity"},
              "experiment": "varadhan", "y_targets": [y],
              "n_paths": 65536, "m_nodes": 8, "n_starts": 1, "seed": 3}
    out = tmp_path / "out"
    assert run(config, str(out)) == EXIT_PASS
    target = json.loads((out / "report.json").read_text())[
        "result"]["targets"][0]
    assert abs(target["rate_function"]["d2"] - y * y / (2 * horizon)) <= 1e-3
