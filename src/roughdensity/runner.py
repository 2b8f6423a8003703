"""Experiment orchestration: declarative configs in, reproducible artifact
directories out.

Every run writes ``report.json`` (numbers and PASS flags, deterministic
byte-for-byte for a fixed config and seed), plot-ready CSV files, and a
``manifest.json`` with the config hash, seed, tool and numpy/scipy
versions and the random-stream scheme.  Randomness flows exclusively from
the config seed.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.metadata
import importlib.resources
import json
import math
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from . import __version__
from .diagnostics import (
    check_hypotheses,
    eta,
    kappa,
    mixed_variation_refinement,
    q_embedding,
)
from .density import (
    NoiseFloorError,
    TargetUnreachableError,
    estimate_density,
    rate_function,
    tail_fit,
    tail_probability_check,
    varadhan_sweep,
)
from .fields import NonEllipticError, field_from_spec
from .kernels import CovKernel, TimeGrid, kernel_from_spec
from .lift import lift_ensemble
from .malliavin import (
    HypothesisGateError,
    directional_derivative,
    interpolation_audit,
    malliavin_matrix,
)
from .paths import (RNG_SCHEME, CMElement, cm_eval, cm_norm_sq,
                    export_path_csv, sample, save_ensemble)
from .rde import solve_batch

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_GATE = 3

GATED_EXPERIMENTS = {"density", "tails", "varadhan", "audit-interpolation",
                     "audit-malliavin"}


class ConfigError(ValueError):
    """Config does not validate against the schema."""


class GateFailure(RuntimeError):
    """Kernel hypothesis (or ellipticity) gate failed for a gated run."""


def load_schema() -> dict:
    """The config schema, shipped as package data."""
    return json.loads(importlib.resources.files("roughdensity").joinpath(
        "schema.json").read_text())


def validate_config(config: dict) -> None:
    validator = Draft202012Validator(load_schema())
    errors = sorted(validator.iter_errors(config), key=str)
    if errors:
        raise ConfigError("; ".join(e.message for e in errors))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def config_hash(config: dict) -> str:
    blob = json.dumps(_jsonable(config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _grid_from(config: dict, kernel: CovKernel) -> TimeGrid:
    n = config.get("grid", {}).get("n_steps", 128)
    return TimeGrid.regular(n, horizon=kernel.horizon)


def _vf_from(config: dict):
    spec = config.get("vf")
    if spec is None:
        raise ConfigError("this experiment requires a 'vf' entry")
    return field_from_spec(spec["name"], spec.get("params"))


def _z0_from(config: dict, vf) -> list[float]:
    z0 = config.get("z0")
    if z0 is None:
        return [0.0] * vf.n
    if len(z0) != vf.n:
        raise ConfigError("z0 dimension does not match the vector field")
    return z0


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _exp_hypotheses(config, kernel, grid, out_dir, workers, gate):
    rep = check_hypotheses(kernel, grid)
    etas = {}
    for frac in (0.25, 0.5, 1.0):
        t = grid.nodes[int(round(frac * grid.n_steps))]
        if kernel.sigma_sq0(t) > 0:
            etas[f"{t:g}"] = eta(kernel, float(t), grid)
    fine, half = mixed_variation_refinement(kernel, (0, grid.horizon, 0,
                                                     grid.horizon),
                                            1.0, kernel.rho, grid)
    result = {
        "hypothesis_report": rep.to_json(),
        "eta": etas,
        "q_embedding": q_embedding(kernel.rho),
        "v_1rho_full": {"fine": fine, "half_resolution": half},
    }
    criteria = [
        {"name": "negative_correlation", "pass": rep.negative_correlation.passed},
        {"name": "diagonal_dominance", "pass": rep.diagonal_dominance.passed},
        {"name": "c_X_positive", "pass": bool(rep.c_X_estimate > 0),
         "value": rep.c_X_estimate},
        {"name": "holder_controlled", "pass": rep.holder_controlled.passed,
         "value": rep.holder_controlled.exponent},
    ]
    return result, criteria


def _exp_sample(config, kernel, grid, out_dir, workers, gate):
    n_paths = config.get("n_paths", 1000)
    d = config.get("d", 1)
    seed = config.get("seed", 0)
    ens = sample(kernel, grid, d=d, n_paths=n_paths, seed=seed)
    save_ensemble(ens, str(out_dir / "ensemble.bin"))
    export_path_csv(ens, 0, str(out_dir / "path0.csv"))
    checks = []
    for frac in (0.5, 1.0):
        idx = int(round(frac * grid.n_steps))
        t = float(grid.nodes[idx])
        want = kernel.sigma_sq0(t)
        got = float(ens.data[:, 0, idx].var())
        se = want * math.sqrt(2.0 / max(n_paths - 1, 1))
        mean = float(ens.data[:, 0, idx].mean())
        mean_se = math.sqrt(want / n_paths)
        checks.append({"t": t, "variance": got, "variance_expected": want,
                       "variance_ok": bool(abs(got - want) <= 5 * se),
                       "mean": mean,
                       "mean_ok": bool(abs(mean) <= 4 * mean_se)})
    result = {"n_paths": n_paths, "d": d, "checks": checks,
              "files": ["ensemble.bin", "path0.csv"]}
    criteria = [{"name": f"moment_check_t={c['t']:g}",
                 "pass": c["variance_ok"] and c["mean_ok"]} for c in checks]
    return result, criteria


def _exp_density(config, kernel, grid, out_dir, workers, gate):
    vf = _vf_from(config)
    z0 = _z0_from(config, vf)
    t = config.get("t", kernel.horizon)
    est = estimate_density(kernel, vf, z0, t=t,
                           eps=config.get("eps", 1.0),
                           n_paths=config.get("n_paths", 100_000),
                           seed=config.get("seed", 0),
                           bandwidth=config.get("bandwidth"),
                           grid=grid, workers=workers)
    kap = kappa(kernel, 0.0, t, grid)
    fit = tail_fit(est, z0, rho=kernel.rho, kappa_t=kap)
    _write_csv(out_dir / "density.csv", ["y", "p_hat", "se"],
               zip(np.atleast_2d(est.y_grid.T).T[:, 0], est.p, est.se))
    r2_min = config.get("thresholds", {}).get("r2", 0.9)
    result = {"density": est.to_json(), "tail_fit": fit.to_json(),
              "kappa_t": kap, "files": ["density.csv"]}
    criteria = [
        {"name": "normalization", "pass":
         bool(0.95 <= est.normalization <= 1.0 + 1e-9),
         "value": est.normalization},
        {"name": "tail_slope_positive", "pass": bool(fit.slope > 0),
         "value": fit.slope},
        {"name": "tail_r2", "pass": bool(fit.r2 >= r2_min), "value": fit.r2},
    ]
    return result, criteria


def _exp_tails(config, kernel, grid, out_dir, workers, gate):
    vf = _vf_from(config)
    z0 = _z0_from(config, vf)
    tau = config.get("t", kernel.horizon)
    levels = config.get("levels")
    if levels is None:
        sig = math.sqrt(kernel.sigma_sq0(tau))
        levels = [q * sig for q in (0.8, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0)]
    rep = tail_probability_check(kernel, vf, z0, tau=tau,
                                 eps=config.get("eps", 1.0),
                                 n_paths=config.get("n_paths", 100_000),
                                 seed=config.get("seed", 0), levels=levels,
                                 grid=grid, workers=workers)
    _write_csv(out_dir / "tails.csv", ["level", "exceedance", "se"],
               zip(rep.levels, rep.exceedance, rep.se))
    result = {"tail_probability": rep.to_json(), "files": ["tails.csv"]}
    fit_ok = rep.fit is not None and rep.fit.passed
    criteria = [{"name": "tail_probability_fit", "pass": bool(fit_ok)}]
    return result, criteria


def _exp_varadhan(config, kernel, grid, out_dir, workers, gate):
    vf = _vf_from(config)
    z0 = _z0_from(config, vf)
    y_targets = config.get("y_targets")
    if not y_targets:
        raise ConfigError("varadhan experiment needs y_targets")
    eps_list = config.get("eps_list", [0.5, 0.35, 0.25])
    gap_max = config.get("thresholds", {}).get("varadhan_gap", 0.1)
    seed, tol = config.get("seed", 0), config.get("tol", 1e-6)
    rows, results, criteria = [], [], []
    for y in y_targets:
        y_vec = [y] if isinstance(y, (int, float)) else list(y)
        rate = rate_function(y_vec, kernel, vf, z0, seed=seed, tol=tol,
                             m_nodes=config.get("m_nodes", 16),
                             n_starts=config.get("n_starts", 5))
        sweep = varadhan_sweep(y_vec, kernel, vf, z0, eps_list=eps_list,
                               n_paths=config.get("n_paths", 100_000),
                               seed=seed, d2=rate.d2, grid=grid,
                               workers=workers)
        for e, s, ok in zip(sweep.eps_list, sweep.scaled, sweep.trusted):
            rows.append([y_vec[0] if len(y_vec) == 1 else json.dumps(y_vec),
                         e, s, ok])
        results.append({"rate_function": rate.to_json(),
                        "sweep": sweep.to_json()})
        label = f"y={y_vec[0]:g}" if len(y_vec) == 1 else f"y={y_vec}"
        criteria.extend([
            {"name": f"residual {label}",
             "pass": bool(rate.residual <= tol),
             "value": rate.residual},
            {"name": f"det_gamma_positive {label}",
             "pass": bool(rate.det_gamma > 0), "value": rate.det_gamma},
            {"name": f"varadhan_gap {label}",
             "pass": bool(abs(sweep.gap) <= gap_max), "value": sweep.gap},
        ])
    _write_csv(out_dir / "varadhan.csv",
               ["y", "eps", "eps2_log_p", "trusted"], rows)
    return {"targets": results, "files": ["varadhan.csv"]}, criteria


def _exp_audit_interpolation(config, kernel, grid, out_dir, workers, gate):
    audit = interpolation_audit(kernel, grid,
                                n_random_fns=config.get("n_paths", 100),
                                seed=config.get("seed", 0), report=gate)
    result = {"interpolation_audit": audit.to_json()}
    criteria = [
        {"name": "lower_chain", "pass": audit.lower_chain_failures == 0,
         "value": audit.lower_chain_worst_margin},
        {"name": "sup_interpolation", "pass": audit.interp_failures == 0,
         "value": audit.interp_worst_ratio},
    ]
    return result, criteria


def _exp_audit_malliavin(config, kernel, grid, out_dir, workers, gate):
    vf = _vf_from(config)
    z0 = _z0_from(config, vf)
    seed = config.get("seed", 0)
    n_pairs = config.get("n_pairs", 20)
    eps = config.get("eps", 1.0)
    tau = 1e-4
    tol = config.get("thresholds", {}).get("derivative_tol",
                                           max(1e-4, 3 * tau))
    ens = sample(kernel, grid, d=vf.d, n_paths=n_pairs, seed=seed)
    rng = np.random.Generator(np.random.Philox(key=seed + 1))
    hs = []
    for _ in range(n_pairs):
        nodes = np.sort(rng.uniform(0.1 * kernel.horizon, kernel.horizon, 3))
        coeffs = rng.standard_normal((3, vf.d))
        h = CMElement(kernel, nodes, coeffs)
        hs.append(CMElement(kernel, nodes, coeffs / np.sqrt(cm_norm_sq(h))))
    shifts = np.stack([cm_eval(h, grid.nodes) for h in hs])  # (P, N+1, d)
    l1, l2 = lift_ensemble(ens.data)
    base = solve_batch(l1, l2, grid, vf, z0, eps=eps)
    pert = solve_batch(*lift_ensemble(ens.data
                                      + tau * shifts.transpose(0, 2, 1)),
                       grid, vf, z0, eps=eps, with_jacobian=False)
    fd = (pert.Z[:, -1] - base.Z[:, -1]) / tau
    got = directional_derivative(base, vf, l1, shifts, kernel.horizon)
    worst = float(np.abs(fd - got).max())
    # gamma sanity on a fresh small ensemble
    ens2 = sample(kernel, grid, d=vf.d, n_paths=64, seed=seed + 2)
    l1, l2 = lift_ensemble(ens2.data)
    batch = solve_batch(l1, l2, grid, vf, z0, eps=eps)
    gammas = malliavin_matrix(batch, vf, kernel, kernel.horizon)
    sym_err = float(np.abs(gammas - np.swapaxes(gammas, -1, -2)).max())
    eigs = np.linalg.eigvalsh(gammas)
    tr = np.trace(gammas, axis1=-2, axis2=-1)
    psd_ok = bool(np.all(eigs[:, 0] >= -1e-10 * np.maximum(tr, 1e-30)))
    result = {"derivative_oracle": {"n_pairs": n_pairs, "tau": tau,
                                    "worst_error": worst, "tolerance": tol},
              "gamma_checks": {"symmetry_error": sym_err, "psd": psd_ok}}
    criteria = [
        {"name": "derivative_oracle", "pass": bool(worst <= tol),
         "value": worst},
        {"name": "gamma_symmetry", "pass": bool(sym_err <= 1e-12),
         "value": sym_err},
        {"name": "gamma_psd", "pass": psd_ok},
    ]
    return result, criteria


_EXPERIMENTS = {
    "hypotheses": _exp_hypotheses,
    "sample": _exp_sample,
    "density": _exp_density,
    "tails": _exp_tails,
    "varadhan": _exp_varadhan,
    "audit-interpolation": _exp_audit_interpolation,
    "audit-malliavin": _exp_audit_malliavin,
}


def run(config: dict, out_dir: str, workers: int = 1) -> int:
    """Execute one experiment; writes report.json, CSVs and manifest.json;
    returns the exit code."""
    validate_config(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kernel = kernel_from_spec(config["kernel"])
    grid = _grid_from(config, kernel)
    experiment = config["experiment"]

    gate_report = None
    if experiment in GATED_EXPERIMENTS:
        gate_report = check_hypotheses(kernel, grid)
        if not gate_report.passed:
            report = {
                "config": _jsonable(config),
                "experiment": experiment,
                "gate": gate_report.to_json(),
                "pass": False,
                "error": "hypothesis gate failed",
            }
            _emit(out, config, report)
            return EXIT_GATE

    try:
        result, criteria = _EXPERIMENTS[experiment](config, kernel, grid,
                                                    out, workers, gate_report)
    except (NonEllipticError, HypothesisGateError) as err:
        report = {"config": _jsonable(config), "experiment": experiment,
                  "pass": False, "error": str(err)}
        if gate_report is not None:
            report["gate"] = gate_report.to_json()
        _emit(out, config, report)
        return EXIT_GATE
    except (NoiseFloorError, TargetUnreachableError) as err:
        report = {"config": _jsonable(config), "experiment": experiment,
                  "pass": False, "error": str(err)}
        _emit(out, config, report)
        return EXIT_FAIL

    passed = all(c["pass"] for c in criteria)
    report = {
        "config": _jsonable(config),
        "experiment": experiment,
        "result": _jsonable(result),
        "criteria": _jsonable(criteria),
        "pass": bool(passed),
    }
    if gate_report is not None:
        report["gate"] = gate_report.to_json()
    _emit(out, config, report)
    return EXIT_PASS if passed else EXIT_FAIL


def _emit(out: Path, config: dict, report: dict) -> None:
    manifest = {"config_hash": config_hash(config),
                "seed": config.get("seed", 0),
                "version": __version__,
                "numpy": np.__version__,
                "scipy": importlib.metadata.version("scipy"),
                "rng_scheme": RNG_SCHEME}
    report = dict(report)
    report["manifest"] = manifest
    (out / "report.json").write_text(
        json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n")
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def summarize(artifact_dir: str) -> str:
    """Human-readable PASS/FAIL table for a finished run."""
    out = Path(artifact_dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest in {artifact_dir}")
    report = json.loads((out / "report.json").read_text())
    lines = [f"experiment: {report['experiment']}",
             f"config hash: {report['manifest']['config_hash'][:16]}",
             f"seed: {report['manifest']['seed']}",
             f"overall: {'PASS' if report.get('pass') else 'FAIL'}"]
    if "error" in report:
        lines.append(f"error: {report['error']}")
    for c in report.get("criteria", []):
        mark = "PASS" if c["pass"] else "FAIL"
        val = f"  value={c['value']:.6g}" if isinstance(
            c.get("value"), (int, float)) else ""
        lines.append(f"  [{mark}] {c['name']}{val}")
    result = report.get("result", {})
    if "hypothesis_report" in result:
        rep = result["hypothesis_report"]
        lines.append(f"  c_X = {rep['c_X_estimate']:.6g}, "
                     f"alpha = {rep['alpha_estimate']:.6g}")
        for t, e in result.get("eta", {}).items():
            lines.append(f"  eta_{t} = {e:.6g}")
        if not rep["negative_correlation"]["pass"]:
            lines.append("  negative-correlation witness: "
                         f"{rep['negative_correlation']['witness']} "
                         f"value {rep['negative_correlation']['worst']:.6g}")
    for target in result.get("targets", []):
        rf = target["rate_function"]
        sw = target["sweep"]
        lines.append(f"  d2(y={rf['y']}) = {rf['d2']:.6g} "
                     f"({rf['n_iterations']} iterations); "
                     f"extrapolated limit = {sw['extrapolated']:.6g}; "
                     f"gap = {sw['gap']:.3g}")
    if "tail_fit" in result:
        fit = result["tail_fit"]
        lines.append(f"  tail slope = {fit['slope']:.6g}, r2 = {fit['r2']:.4f}")
    return "\n".join(lines)
