"""Experiment orchestration: declarative configs in, reproducible artifact
directories out.

Every run writes ``report.json`` (numbers and PASS flags, deterministic
byte-for-byte for a fixed config and seed), plot-ready CSV files, and a
``manifest.json`` with the config hash, seed, tool and numpy/scipy
versions and the random-stream scheme.  Randomness flows exclusively from
the config seed.

This module imports only the standard library at load time: validating a
config and summarizing a finished run load no numpy.  `run` imports the
numerical layers after the config validates, and each experiment imports
the ones it calls.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.resources
import importlib.util
import json
import math
import numbers
import sys
from pathlib import Path

from . import __version__

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_GATE = 3

GATED_EXPERIMENTS = {"density", "tails", "varadhan", "audit-interpolation",
                     "audit-malliavin"}
FIELD_EXPERIMENTS = {"density", "tails", "varadhan", "audit-malliavin"}


class ConfigError(ValueError):
    """Config does not validate against the schema."""


def load_schema() -> dict:
    """The config schema, shipped as package data."""
    return json.loads(importlib.resources.files("roughdensity").joinpath(
        "schema.json").read_text())


# The JSON Schema (draft 2020-12) keywords and types that schema.json uses,
# with jsonschema's semantics: a float with an integral value is an integer,
# a bool is never a number, and the bounds apply to numbers only.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "number": lambda v: (isinstance(v, numbers.Number)
                         and not isinstance(v, bool)),
    "integer": lambda v: ((isinstance(v, int) and not isinstance(v, bool))
                          or (isinstance(v, float) and v.is_integer())),
}
_KEYWORDS = {"$schema", "title", "type", "enum", "required", "properties",
             "additionalProperties", "minimum", "maximum", "exclusiveMinimum",
             "items", "minItems", "oneOf"}


def _schema_errors(schema: dict, value, where: str) -> list[str]:
    """Every rule of ``schema`` that ``value`` (found at ``where``) breaks.
    A keyword this walk does not implement raises NotImplementedError, so a
    schema edit is not ignored silently."""
    unknown = sorted(schema.keys() - _KEYWORDS)
    if schema.get("additionalProperties", False) is not False:
        unknown.append("additionalProperties other than false")
    if unknown:
        raise NotImplementedError(f"{where}: unsupported schema keyword(s) "
                                  f"{', '.join(unknown)}")
    errors = []
    kind = schema.get("type")
    kinds = kind if isinstance(kind, list) else [kind]
    if kind is not None and not any(_TYPES[k](value) for k in kinds):
        errors.append(f"{where}: {value!r} is not of type "
                      f"{' or '.join(kinds)}")
    if "enum" in schema and not any(
            v == value and isinstance(v, bool) == isinstance(value, bool)
            for v in schema["enum"]):
        errors.append(f"{where}: {value!r} is not one of {schema['enum']}")
    if _TYPES["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{where}: {value!r} < {schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            errors.append(f"{where}: {value!r} > {schema['maximum']}")
        low = schema.get("exclusiveMinimum")
        if low is not None and value <= low:
            errors.append(f"{where}: {value!r} <= {low}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        errors += [f"{where}: {key!r} is required"
                   for key in schema.get("required", []) if key not in value]
        for key, item in value.items():
            if key in props:
                errors += _schema_errors(props[key], item, f"{where}.{key}")
            elif schema.get("additionalProperties", True) is False:
                errors.append(f"{where}: unknown key {key!r}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            errors.append(f"{where}: fewer than {schema['minItems']} items")
        for i, item in enumerate(value if "items" in schema else []):
            errors += _schema_errors(schema["items"], item, f"{where}[{i}]")
    if "oneOf" in schema:
        hits = sum(not _schema_errors(sub, value, where)
                   for sub in schema["oneOf"])
        if hits != 1:
            errors.append(f"{where}: {value!r} matches {hits} of the "
                          "oneOf schemas, not exactly one")
    return errors


def validate_config(config: dict) -> None:
    errors = _schema_errors(load_schema(), config, "config")
    if errors:
        raise ConfigError("; ".join(sorted(errors)))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    np = sys.modules.get("numpy")   # no numpy object exists before it loads
    if np is not None:
        if isinstance(obj, np.ndarray):
            return _jsonable(obj.tolist())
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.bool_):
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


def _from_spec(what: str, build, *args):
    """``build(*args)``, with a spec it cannot build raised as ConfigError."""
    try:
        return build(*args)
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"{what}: {type(err).__name__}: {err}") from None


def _vf_from(config: dict):
    from .fields import field_from_spec

    spec = config.get("vf")
    if spec is None:
        raise ConfigError("this experiment requires a 'vf' entry")
    return _from_spec("vf", field_from_spec, spec["name"], spec.get("params"))


def _z0_from(config: dict, vf) -> list[float]:
    return config.get("z0", [0.0] * vf.n)


def _targets_from(config: dict) -> list[list[float]]:
    return [[y] if isinstance(y, (int, float)) else list(y)
            for y in config.get("y_targets") or []]


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _exp_hypotheses(config, kernel, grid, vf, out_dir, workers, gate):
    from .diagnostics import (check_hypotheses, eta,
                              mixed_variation_refinement, q_embedding)

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


def _exp_sample(config, kernel, grid, vf, out_dir, workers, gate):
    from .paths import export_path_csv, sample, save_ensemble

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


def _exp_density(config, kernel, grid, vf, out_dir, workers, gate):
    from .density import estimate_density, tail_fit
    from .diagnostics import kappa

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
               zip(est.y_grid, est.p, est.se))
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


def _exp_tails(config, kernel, grid, vf, out_dir, workers, gate):
    from .density import tail_probability_check

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


def _exp_varadhan(config, kernel, grid, vf, out_dir, workers, gate):
    from .density import varadhan_check

    z0 = _z0_from(config, vf)
    targets = _targets_from(config)
    if not targets:
        raise ConfigError("varadhan experiment needs y_targets")
    eps_list = config.get("eps_list", [0.5, 0.35, 0.25])
    gap_max = config.get("thresholds", {}).get("varadhan_gap", 0.1)
    seed, tol = config.get("seed", 0), config.get("tol", 1e-6)
    checks = varadhan_check(
        targets, kernel, vf, z0, eps_list=eps_list,
        n_paths=config.get("n_paths", 100_000), seed=seed, grid=grid,
        workers=workers, tol=tol, n_starts=config.get("n_starts", 5))
    rows, results, criteria = [], [], []
    for y_vec, (rate, sweep) in zip(targets, checks):
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


def _exp_audit_interpolation(config, kernel, grid, vf, out_dir, workers,
                             gate):
    from .malliavin import interpolation_audit

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


def _exp_audit_malliavin(config, kernel, grid, vf, out_dir, workers, gate):
    import numpy as np

    from .lift import lift_ensemble
    from .malliavin import directional_derivative, malliavin_matrix
    from .paths import (cm_eval, random_unit_element, sample,
                        sample_increments)
    from .rde import solve_batch

    z0 = _z0_from(config, vf)
    seed = config.get("seed", 0)
    n_pairs = config.get("n_pairs", 20)
    eps = config.get("eps", 1.0)
    tau = 1e-4
    tol = config.get("thresholds", {}).get("derivative_tol",
                                           max(1e-4, 3 * tau))
    ens = sample(kernel, grid, d=vf.d, n_paths=n_pairs, seed=seed)
    rng = np.random.Generator(np.random.Philox(key=seed + 1))
    hs = [random_unit_element(kernel, rng, vf.d) for _ in range(n_pairs)]
    shifts = np.stack([cm_eval(h, grid.nodes) for h in hs])  # (P, N+1, d)
    level1 = lift_ensemble(ens.data)
    base = solve_batch(level1, grid, vf, z0, eps=eps)
    pert = solve_batch(lift_ensemble(ens.data
                                     + tau * shifts.transpose(0, 2, 1)),
                       grid, vf, z0, eps=eps, with_jacobian=False)
    fd = (pert.Z[:, -1] - base.Z[:, -1]) / tau
    got = directional_derivative(base, vf, level1, shifts, kernel.horizon)
    worst = float(np.abs(fd - got).max())
    # gamma sanity on a fresh small ensemble
    batch = solve_batch(sample_increments(kernel, grid, d=vf.d, n_paths=64,
                                          seed=seed + 2), grid, vf, z0,
                        eps=eps)
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


def run(config: dict, out_dir: str, workers: int | None = None) -> int:
    """Execute one experiment; writes report.json, CSVs and manifest.json;
    returns the exit code.  The config is validated before any numerical
    module is imported; then ``workers`` is resolved by `worker_count`
    (None: ``ROUGHDENSITY_WORKERS``, else the CPUs this process may use)."""
    validate_config(config)
    from .density import NoiseFloorError, TargetUnreachableError, worker_count
    from .diagnostics import check_hypotheses
    from .fields import NonEllipticError
    from .kernels import TimeGrid, kernel_from_spec
    from .malliavin import HypothesisGateError
    from .rde import BlowUpError, CoarseGridError

    workers = _from_spec("workers", worker_count, workers)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kernel = _from_spec("kernel", kernel_from_spec, config["kernel"])
    grid = TimeGrid.regular(config.get("grid", {}).get("n_steps", 128),
                            horizon=kernel.horizon)
    experiment = config["experiment"]
    vf = _vf_from(config) if experiment in FIELD_EXPERIMENTS else None
    if vf is not None and len(_z0_from(config, vf)) != vf.n:
        raise ConfigError("z0 dimension does not match the vector field")
    if vf is not None and any(len(y) != vf.n for y in _targets_from(config)):
        raise ConfigError("a y target's dimension does not match the "
                          "vector field")
    if experiment == "density" and vf.n != 1:
        raise ConfigError(f"density: the field has dimension {vf.n}; the "
                          "density estimate needs dimension 1")

    t = config.get("t")
    if t is not None:
        if experiment not in ("density", "tails", "varadhan"):
            raise ConfigError(f"{experiment}: t = {t:g} is set, but this "
                              "experiment does not use t")
        try:
            idx = grid.index_of(float(t))
        except ValueError:
            idx = None
        if idx is None or (experiment == "varadhan" and idx != grid.n_steps):
            where = "the horizon" if experiment == "varadhan" else "a node"
            raise ConfigError(
                f"{experiment}: t = {t:g} is not {where} of the grid "
                f"({grid.n_steps} steps on [0, {grid.horizon:g}])")

    gate_report, error = None, None
    if experiment in GATED_EXPERIMENTS:
        gate_report = check_hypotheses(kernel, grid)
        if not gate_report.passed:
            code, error = EXIT_GATE, "hypothesis gate failed"
    if error is None:
        try:
            result, criteria = _EXPERIMENTS[experiment](
                config, kernel, grid, vf, out, workers, gate_report)
        except (NonEllipticError, HypothesisGateError) as err:
            code, error = EXIT_GATE, str(err)
        except (NoiseFloorError, TargetUnreachableError, BlowUpError,
                CoarseGridError) as err:
            code, error = EXIT_FAIL, str(err)

    report = {"config": _jsonable(config), "experiment": experiment}
    if error is None:
        passed = all(c["pass"] for c in criteria)
        code = EXIT_PASS if passed else EXIT_FAIL
        report.update({"result": _jsonable(result),
                       "criteria": _jsonable(criteria), "pass": passed})
    else:
        report.update({"pass": False, "error": error})
    if gate_report is not None:
        report["gate"] = gate_report.to_json()
    _emit(out, config, report)
    return code


def _scipy_version() -> str:
    """The ``Version:`` header of the one scipy dist-info beside the scipy
    package, read without importing scipy or importlib.metadata (each
    costs more than a short run computes); importlib.metadata otherwise."""
    spec = importlib.util.find_spec("scipy")
    if spec is not None and spec.submodule_search_locations:
        site = Path(spec.submodule_search_locations[0]).parent
        metas = list(site.glob("scipy-*.dist-info/METADATA"))
        if len(metas) == 1:
            with open(metas[0], encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("Version:"):
                        return line.partition(":")[2].strip()
    from importlib.metadata import version
    return version("scipy")


def _emit(out: Path, config: dict, report: dict) -> None:
    import numpy as np

    from .paths import RNG_SCHEME

    manifest = {"config_hash": config_hash(config),
                "seed": config.get("seed", 0),
                "version": __version__,
                "numpy": np.__version__,
                "scipy": _scipy_version(),
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
