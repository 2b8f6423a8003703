import ast
import copy
import importlib.metadata
import importlib.util
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import roughdensity
from roughdensity.cli import main
from roughdensity.density import (
    TargetUnreachableError,
    estimate_density,
    varadhan_sweep,
)
from roughdensity.fields import field_from_spec
from roughdensity.kernels import TimeGrid, kernel_from_spec
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
    ConfigError,
    _jsonable,
    config_hash,
    load_schema,
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


def suite_configs() -> list[dict]:
    """Every run config written out as a literal in the test suite (a dict
    literal with an "experiment" key and literal values), plus the configs
    of the benchmark's workloads."""
    configs = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Dict) and any(
                    isinstance(k, ast.Constant) and k.value == "experiment"
                    for k in node.keys):
                try:
                    configs.append(ast.literal_eval(node))
                except ValueError:
                    pass
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return configs + [workloads.config(name, 1) for name in workloads.NAMES]


def bounded_keys(schema: dict, prefix=()):
    """(key path, bounds, item) for every schema node with a minimum,
    maximum or exclusiveMinimum; item marks bounds on array items."""
    for key, sub in schema.get("properties", {}).items():
        yield from bounded_keys(sub, prefix + (key,))
        if "items" in sub:
            for path, bounds, _ in bounded_keys(sub["items"], prefix + (key,)):
                yield path, bounds, True
    bounds = [schema[k] for k in ("minimum", "maximum", "exclusiveMinimum")
              if k in schema]
    if bounds and prefix:
        yield prefix, bounds, False


def config_mutations(config: dict, schema: dict):
    """Each key removed, an unknown key at every level, wrong types, values
    at and just beyond every bound, and the edge cases of the optional
    arrays."""
    def key_paths(node, prefix=()):
        for key, value in node.items():
            yield prefix + (key,)
            if isinstance(value, dict):
                yield from key_paths(value, prefix + (key,))

    def edit(path, value=None, drop=False):
        out = copy.deepcopy(config)
        parent = out
        for key in path[:-1]:
            if not isinstance(parent.get(key), dict):
                parent[key] = {}
            parent = parent[key]
        if drop:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return out

    paths = list(key_paths(config))
    yield {**config, "zz_unknown": 1}
    for path in paths:
        yield edit(path, drop=True)
        for wrong in ("x", True, False, None, 4, 4.0, 4.5, -2.5, [], [1.5],
                      {}, {"zz": 1}):
            yield edit(path, wrong)
        yield edit(path + ("zz_unknown",), 1)
    for path, bounds, item in bounded_keys(schema):
        for b in bounds:
            for v in (b, float(b), b - 1, b + 1, b - 1e-9, b + 1e-9):
                yield edit(path, [v] if item else v)
    for key, value in [("bandwidth", None), ("bandwidth", 0.2),
                       ("eps_list", []), ("y_targets", [[0.5, 0.2]]),
                       ("y_targets", [0.5, [0.1, 0.3]]),
                       ("y_targets", [[[0.5]]]), ("y_targets", [True]),
                       ("y_targets", ["0.5"]), ("y_targets", [])]:
        yield edit((key,), value)


def accepts(config: dict) -> bool:
    try:
        validate_config(config)
    except ConfigError:
        return False
    return True


def test_validator_agrees_with_jsonschema():
    from jsonschema import Draft202012Validator

    schema = load_schema()
    oracle = Draft202012Validator(schema)
    bases = suite_configs()
    assert len(bases) >= 10
    seen, verdicts = set(), {True: 0, False: 0}
    for base in bases:
        for config in [base, *config_mutations(base, schema)]:
            blob = json.dumps(config, sort_keys=True)
            if blob in seen:
                continue
            seen.add(blob)
            ours = accepts(config)
            assert ours == oracle.is_valid(config), blob
            verdicts[ours] += 1
    assert min(verdicts.values()) >= 500, verdicts


def test_one_of_means_exactly_one(monkeypatch):
    # the shipped schema's oneOf branches are disjoint; overlapping ones
    # show that a value matching both is rejected, as jsonschema does
    from jsonschema import Draft202012Validator

    schema = load_schema()
    schema["properties"]["levels"]["items"] = {
        "oneOf": [{"type": "number"}, {"type": "integer"}]}
    monkeypatch.setattr(roughdensity.runner, "load_schema", lambda: schema)
    verdicts = [accepts({**HYP_OK, "levels": [v]}) for v in (1.5, 1, 2.0)]
    assert verdicts == [True, False, False]
    assert verdicts == [Draft202012Validator(schema).is_valid(
        {**HYP_OK, "levels": [v]}) for v in (1.5, 1, 2.0)]


def schema_nodes(schema: dict):
    """The schema and every subschema below it, reached by a config or
    not."""
    yield schema
    subs = list(schema.get("properties", {}).values())
    subs += [schema["items"]] if "items" in schema else []
    for sub in subs + schema.get("oneOf", []):
        yield from schema_nodes(sub)


def unsupported_keywords(schema: dict) -> list[str]:
    """The keywords and types anywhere in ``schema`` that the validator
    does not implement."""
    found = []
    for node in schema_nodes(schema):
        kind = node.get("type", [])
        found += sorted(node.keys() - roughdensity.runner._KEYWORDS)
        found += [k for k in (kind if isinstance(kind, list) else [kind])
                  if k not in roughdensity.runner._TYPES]
        if node.get("additionalProperties", False) is not False:
            found.append("additionalProperties")
    return found


def edited_schema(path, keyword, value) -> dict:
    schema = load_schema()
    node = schema
    for key in path:
        node = node["properties"][key] if key != "items" else node[key]
    node[keyword] = value
    return schema


def test_shipped_schema_uses_only_supported_keywords():
    """Every branch of schema.json, also those no config reaches, uses only
    what the validator implements; an edit that adds more fails here."""
    assert unsupported_keywords(load_schema()) == []
    schema = edited_schema(("levels", "items"), "uniqueItems", True)
    assert unsupported_keywords(schema) == ["uniqueItems"]


@pytest.mark.parametrize("path, keyword, value", [
    (("grid", "n_steps"), "multipleOf", 2),
    ((), "additionalProperties", {"type": "number"}),
], ids=["multipleOf", "additionalProperties-schema"])
def test_unsupported_schema_keyword_raises(monkeypatch, path, keyword,
                                          value):
    """A keyword the validator does not implement raises where the config
    reaches it, instead of being ignored."""
    schema = edited_schema(path, keyword, value)
    assert unsupported_keywords(schema) == [keyword]
    monkeypatch.setattr(roughdensity.runner, "load_schema", lambda: schema)
    with pytest.raises(NotImplementedError, match=keyword):
        validate_config(HYP_OK)


def test_gated_experiment_exits_3(tmp_path):
    config = dict(DENSITY_SMALL)
    config["kernel"] = {"family": "fbm", "H": 0.7, "T": 1.0, "rho": 1.0}
    config["grid"] = {"n_steps": 16}
    code = run(config, str(tmp_path / "out"))
    assert code == EXIT_GATE
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pass"] is False
    assert report["gate"]["pass"] is False


def test_non_elliptic_varadhan_exits_3_before_any_chunk(tmp_path,
                                                         monkeypatch):
    # the field gate runs before the driver is sampled or a worker forked
    def no_chunk(*args, **kwargs):
        raise AssertionError("a chunk was sampled or forked")

    monkeypatch.setattr(roughdensity.density, "sample_increments", no_chunk)
    monkeypatch.setattr(roughdensity.density, "_map_forked", no_chunk)
    config = dict(VARADHAN_SMALL, vf={"name": "degenerate_diag"},
                  y_targets=[[1.0, 1.0]], grid={"n_steps": 16})
    out = tmp_path / "out"
    assert run(config, str(out), workers=2) == EXIT_GATE
    assert multiprocessing.active_children() == []
    report = json.loads((out / "report.json").read_text())
    assert "ellipticity certificate failed" in report["error"]
    assert report["gate"]["pass"] is True


def test_failing_rate_solve_exits_1_before_any_chunk(tmp_path,
                                                     monkeypatch):
    """Every rate solve runs before the driver is sampled, so a target the
    solver cannot reach forks no worker and samples no chunk."""
    def no_chunk(*args, **kwargs):
        raise AssertionError("a chunk was sampled or forked")

    def unreachable(y, *args, **kwargs):
        raise TargetUnreachableError(f"y={y}: pinned rate failure")

    monkeypatch.setattr(roughdensity.density, "rate_function", unreachable)
    monkeypatch.setattr(roughdensity.density, "sample_increments", no_chunk)
    monkeypatch.setattr(roughdensity.density, "_map_forked", no_chunk)
    out = tmp_path / "out"
    assert run(VARADHAN_SMALL, str(out), workers=2) == EXIT_FAIL
    assert multiprocessing.active_children() == []
    report = json.loads((out / "report.json").read_text())
    assert "pinned rate failure" in report["error"]


def test_density_of_a_field_past_dimension_1_fails_before_any_chunk(
        tmp_path, monkeypatch, capsys):
    """The density estimate's y-grid is one-dimensional: a field of
    dimension 2 is a config error of the run and a ValueError of
    `estimate_density`, both before any path is sampled."""
    def no_chunk(*args, **kwargs):
        raise AssertionError("a chunk was sampled")

    monkeypatch.setattr(roughdensity.density, "sample_increments", no_chunk)
    config = {**DENSITY_SMALL, "vf": {"name": "rotation_mix"}}
    cfg = write_config(tmp_path, config)
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "dimension 1" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    kernel = kernel_from_spec(config["kernel"])
    with pytest.raises(ValueError, match="dimension 1"):
        estimate_density(kernel, field_from_spec("rotation_mix"), [0.0, 0.0],
                         t=1.0, eps=1.0, n_paths=100, seed=1,
                         grid=TimeGrid.regular(32), workers=2)


@pytest.mark.parametrize("experiment, t", [
    ("density", 0.3), ("tails", 0.3), ("varadhan", 0.5),
    ("audit-malliavin", 0.5), ("hypotheses", 0.5), ("sample", 0.5),
    ("audit-interpolation", 0.5)])
def test_t_off_the_grid_exits_2(tmp_path, capsys, experiment, t):
    """density and tails need t on the grid; the Varadhan sweep runs at the
    horizon, so there t = 0.5 (a node of 16 steps) is refused too.  The
    other experiments use no t, so any t is refused there."""
    config = {**DENSITY_SMALL, "grid": {"n_steps": 16},
              "experiment": experiment, "t": t, "y_targets": [0.5]}
    cfg = write_config(tmp_path, config)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    why = ("16 steps on [0, 1]" if experiment in ("density", "tails",
                                                   "varadhan")
           else "does not use t")
    assert f"{experiment}: t = {t:g}" in err and why in err


@pytest.mark.parametrize("edit, why, gate_runs", [
    ({"vf": {"name": "nope"}}, "vf: KeyError", False),
    ({"vf": {"name": "identity", "params": {"bogus": 1}}}, "vf: TypeError",
     False),
    ({"kernel": {"family": "fbm", "H": 1.4}}, "kernel: ParameterError",
     False),
    ({"kernel": {"family": "fbm"}}, "kernel: KeyError", False),
    ({"experiment": "varadhan", "y_targets": [[0.5, 0.5]]}, "dimension",
     False),
    ({"z0": [0, 0]}, "z0 dimension", False),
], ids=["unknown-field", "unknown-field-param", "fbm-H-out-of-range",
        "fbm-without-H", "target-dimension", "z0-dimension"])
def test_malformed_spec_exits_2(tmp_path, capsys, monkeypatch, edit, why,
                                gate_runs):
    """A kernel or field spec that cannot be built, or a z0 or target of
    the wrong dimension, is a config error found before the hypothesis gate
    runs."""
    real_gate, gates = roughdensity.diagnostics.check_hypotheses, []

    def gate(*args):
        gates.append(args)
        return real_gate(*args)

    monkeypatch.setattr(roughdensity.diagnostics, "check_hypotheses", gate)
    cfg = write_config(tmp_path, {**DENSITY_SMALL, **edit})
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and why in err
    assert bool(gates) == gate_runs


@pytest.mark.parametrize("config", [
    {"kernel": {"family": "fbm", "H": 0.4}, "grid": {"n_steps": 16},
     "vf": {"name": "rotation_mix"}, "experiment": "audit-malliavin",
     "n_pairs": 4, "seed": 1},
    {"kernel": {"family": "fbm", "H": 0.4}, "grid": {"n_steps": 16},
     "vf": {"name": "bounded_nonlinear"}, "experiment": "density",
     "n_paths": 40_000, "seed": 1}], ids=["audit-malliavin", "density"])
def test_too_coarse_grid_report_keeps_gate(tmp_path, config):
    """A driver increment past the step-map contraction ends the run in a
    FAIL report, also when it is found in a forked worker."""
    cfg = write_config(tmp_path, config)
    out = tmp_path / "o"
    code = main(["run", "--config", str(cfg), "--out", str(out),
                 "--workers", "2"])
    assert code == EXIT_FAIL
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False and "too coarse" in report["error"]
    assert report["gate"]["pass"] is True
    assert multiprocessing.active_children() == []


def test_noise_floor_report_keeps_gate(tmp_path):
    config = {"kernel": {"family": "fbm", "H": 0.5, "T": 1.0},
              "grid": {"n_steps": 16}, "vf": {"name": "identity"},
              "experiment": "varadhan", "n_paths": 50, "y_targets": [3.0],
              "n_starts": 1, "seed": 0}
    cfg = write_config(tmp_path, config)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_FAIL
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False and "noise floor" in report["error"]
    assert report["gate"]["pass"] is True


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


def test_scipy_version_falls_back_to_importlib_metadata(monkeypatch):
    # with no scipy dist-info found beside a scipy package, the manifest's
    # version comes from importlib.metadata instead of a crash
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    assert roughdensity.runner._scipy_version() == importlib.metadata.version(
        "scipy")


NO_SCIPY_SCRIPT = """
import json, sys
import roughdensity.cli
pools = sorted(m for m in sys.modules
               if m.partition(".")[0] in ("concurrent", "multiprocessing"))
from roughdensity.density import rate_function
from roughdensity.fields import identity_field
from roughdensity.kernels import FractionalBrownian, FractionalOU, TimeGrid
from roughdensity.runner import run
assert run(json.loads(sys.argv[3]), sys.argv[2] + "-gated") == 0
for i, config in enumerate(json.loads(sys.argv[4])):
    assert run(config, sys.argv[2] + f"-mc{i}") == 0
unused = sorted(m for m in sys.modules
                for top in ("jsonschema", "referencing", "importlib.metadata",
                            "numpy.ma") if m == top or m.startswith(top + "."))
assert run(json.loads(sys.argv[1]), sys.argv[2]) == 0
hypotheses_ma = "numpy.ma" in sys.modules
rate_function([0.5], FractionalBrownian(0.4), identity_field(1), [0.0],
              grid=TimeGrid.regular(32), n_starts=1)
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
FractionalOU(0.4, 1.0)
print(json.dumps([pools, loaded, unused, hypotheses_ma,
                  "scipy.integrate" in sys.modules]))
"""

AUDIT_SMALL = {"kernel": {"family": "fbm", "H": 0.4}, "grid": {"n_steps": 32},
               "vf": {"name": "bounded_nonlinear"},
               "experiment": "audit-malliavin", "n_pairs": 4, "seed": 1}

TAILS_SMALL = {"kernel": {"family": "fbm", "H": 0.5, "T": 1.0, "rho": 1.0},
               "grid": {"n_steps": 64},
               "vf": {"name": "identity", "params": {"n": 1}},
               "experiment": "tails", "seed": 11, "n_paths": 20000}

VARADHAN_SMALL = {
    "kernel": {"family": "fbm", "H": 0.5, "T": 1.0, "rho": 1.0},
    "grid": {"n_steps": 64},
    "vf": {"name": "identity", "params": {"n": 1}},
    "experiment": "varadhan", "seed": 13, "n_paths": 30000,
    "y_targets": [0.5], "eps_list": [0.5, 0.4, 0.3], "n_starts": 2,
    "thresholds": {"varadhan_gap": 0.1},
}


def test_scipy_stays_off_the_import_path(tmp_path):
    # importing the command line loads no process or thread pool module;
    # the import, a gated audit run and small gated tails and varadhan runs
    # load no jsonschema, importlib.metadata or numpy.ma; a hypotheses run
    # loads no numpy.ma either; with it and a rate-function solve (the
    # scheme's flow and its per-increment tangent) added, still no scipy module
    # is loaded; the fOU kernel's quadrature loads scipy
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(HYP_OK),
         str(tmp_path / "out"), json.dumps(AUDIT_SMALL),
         json.dumps([TAILS_SMALL, VARADHAN_SMALL])],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    pools, loaded, unused, hypotheses_ma, fou_loads_quad = json.loads(
        proc.stdout)
    assert pools == []
    assert loaded == []
    assert unused == []
    assert not hypotheses_ma
    assert fou_loads_quad


NO_NUMPY_SCRIPT = """
import contextlib, io, json, sys
import roughdensity
loaded = ["numpy" in sys.modules]
import roughdensity.cli
from roughdensity import runner
runner.validate_config(json.loads(sys.argv[1]))
loaded.append("numpy" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    assert roughdensity.cli.main(["report", sys.argv[2]]) == 0
loaded.append("numpy" in sys.modules)
with contextlib.redirect_stderr(io.StringIO()):
    code = roughdensity.cli.main(["run", "--config", sys.argv[3],
                                  "--out", sys.argv[4]])
loaded.append("numpy" in sys.modules)
print(json.dumps([loaded, code]))
"""


def test_numpy_loads_only_when_a_run_computes(tmp_path, capsys):
    # importing the package and the command line, validating a config,
    # `report` and a schema-invalid `run` load no numpy, while the public
    # names are still the submodules' own objects
    assert run(HYP_OK, str(tmp_path / "done")) == EXIT_PASS
    bad = write_config(tmp_path, {**HYP_OK, "bogus": 1})
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT, json.dumps(HYP_OK),
         str(tmp_path / "done"), str(bad), str(tmp_path / "bad")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[False] * 4, EXIT_CONFIG]
    for name in roughdensity.__all__:
        module = importlib.import_module(
            f"roughdensity.{roughdensity._MODULE_OF[name]}")
        assert getattr(roughdensity, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        roughdensity.no_such_name
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    assert roughdensity.density.ENV_WORKERS in capsys.readouterr().out


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

    for module in (roughdensity.diagnostics, roughdensity.malliavin):
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
        base = solve(vals, grid, vf, z0=z0)
        pert = solve(vals + tau * cm_eval(h, grid.nodes), grid, vf, z0=z0,
                     with_jacobian=False)
        fd = (pert.Z[-1] - base.Z[-1]) / tau
        got = directional_derivative(base, vf, np.diff(vals, axis=0),
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
    assert run(TAILS_SMALL, str(tmp_path / "out")) == EXIT_PASS


def test_varadhan_experiment(tmp_path):
    out = tmp_path / "out"
    assert run(VARADHAN_SMALL, str(out)) == EXIT_PASS
    table = (out / "varadhan.csv").read_text().splitlines()
    assert table[0] == "y,eps,eps2_log_p,trusted"
    assert len(table) == 4
    report = json.loads((out / "report.json").read_text())
    target = report["result"]["targets"][0]
    assert abs(target["rate_function"]["d2"] - 0.125) < 1e-3
    n_iter = target["rate_function"]["n_iterations"]
    assert n_iter == len(target["rate_function"]["iterations"]) >= 1
    assert f"({n_iter} iterations)" in summarize(str(out))


def test_m_nodes_is_accepted_and_ignored(tmp_path):
    # the rate function minimizes over every grid increment, so the node
    # count of the earlier span solve is a valid key that changes nothing
    entries = []
    for i, config in enumerate([VARADHAN_SMALL,
                                dict(VARADHAN_SMALL, m_nodes=8)]):
        out = tmp_path / f"out{i}"
        assert run(config, str(out)) == EXIT_PASS
        report = json.loads((out / "report.json").read_text())
        entries.append(report["result"]["targets"][0]["rate_function"])
    assert entries[0] == entries[1]


@pytest.mark.parametrize("horizon, y", [(2.0, 0.6), (0.5, 0.3)])
def test_varadhan_sweep_at_kernel_horizon(tmp_path, horizon, y):
    """The sweep evaluates the density at the horizon T, the time the rate
    function targets; d2 = y^2 / 2T for Brownian motion."""
    config = {"kernel": {"family": "fbm", "H": 0.5, "T": horizon},
              "grid": {"n_steps": 64}, "vf": {"name": "identity"},
              "experiment": "varadhan", "y_targets": [y],
              "n_paths": 65536, "n_starts": 1, "seed": 3}
    out = tmp_path / "out"
    assert run(config, str(out)) == EXIT_PASS
    target = json.loads((out / "report.json").read_text())[
        "result"]["targets"][0]
    assert abs(target["rate_function"]["d2"] - y * y / (2 * horizon)) <= 1e-3


VARADHAN_TWO = dict(VARADHAN_SMALL, y_targets=[0.5, -0.4])


def assert_sweeps_match_alone(config, blob):
    """Each target's sweep in a report is `varadhan_sweep` run alone."""
    kernel = kernel_from_spec(config["kernel"])
    grid = TimeGrid.regular(64, horizon=kernel.horizon)
    vf = field_from_spec("identity", {"n": 1})
    targets = json.loads(blob)["result"]["targets"]
    assert [t["sweep"]["y"] for t in targets] == [
        [y] for y in config["y_targets"]]
    for target in targets:
        alone = varadhan_sweep(target["sweep"]["y"], kernel, vf, [0.0],
                               eps_list=config["eps_list"],
                               n_paths=config["n_paths"], seed=config["seed"],
                               d2=target["rate_function"]["d2"], grid=grid)
        assert json.dumps(_jsonable(alone.to_json()), sort_keys=True) == \
            json.dumps(target["sweep"], sort_keys=True)


def test_varadhan_two_targets_match_single_sweeps(tmp_path):
    """A two-target report is the same at workers 1 and 2, no worker is
    left running, and each target's sweep is `varadhan_sweep` run for that
    target alone."""
    runs = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        code = run(VARADHAN_TWO, str(out), workers=workers)
        assert multiprocessing.active_children() == []
        runs.append((code, (out / "report.json").read_bytes()))
    (code, blob), again = runs
    assert again == (code, blob)
    assert_sweeps_match_alone(VARADHAN_TWO, blob)


def test_varadhan_samples_once_for_all_targets(tmp_path, monkeypatch):
    """A three-target run draws each chunk of the driver once, for every
    target, and each target's sweep is still `varadhan_sweep` run for that
    target alone."""
    config = dict(VARADHAN_SMALL, y_targets=[0.5, -0.4, 0.3])
    calls = []
    real = roughdensity.density.sample_increments

    def sample_increments(*args, **kwargs):
        calls.append(kwargs["path_offset"])
        return real(*args, **kwargs)

    monkeypatch.setattr(roughdensity.density, "sample_increments",
                        sample_increments)
    out = tmp_path / "out"
    assert run(config, str(out), workers=1) == EXIT_PASS
    assert calls == [0, 16384]      # 30,000 paths: two chunks, each once
    assert_sweeps_match_alone(config, (out / "report.json").read_bytes())


VARADHAN_ERROR_SCRIPT = """
import json, multiprocessing, sys
import roughdensity.density as dens
from roughdensity.density import TargetUnreachableError
from roughdensity.rde import BlowUpError
from roughdensity.runner import run
config, rate_fails = json.loads(sys.argv[1]), json.loads(sys.argv[2])
real = dens.rate_function

def rate_function(y, *args, **kwargs):
    if y[0] in rate_fails:
        raise TargetUnreachableError(f"y={y}: pinned rate failure")
    return real(y, *args, **kwargs)

real_steps = dens._steps

def steps(*args, with_jacobian=True, **kwargs):
    # the chunks step without the Jacobian; the rate solves, which need
    # it, run as they are
    if not with_jacobian:
        raise BlowUpError("pinned chunk blow-up", last_valid_step=3)
    return real_steps(*args, with_jacobian=with_jacobian, **kwargs)

dens.rate_function = rate_function
if sys.argv[3] == "1":
    dens._steps = steps
runs = []
for workers in (1, 2):
    out = f"{sys.argv[4]}/workers{workers}"
    code = run(config, out, workers=workers)
    with open(f"{out}/report.json") as fh:
        runs.append([code, fh.read(), len(multiprocessing.active_children())])
print(json.dumps(runs))
"""


@pytest.mark.parametrize("targets, rate_fails, chunks_fail, error", [
    ([0.5], [0.5], False, "pinned rate failure"),
    ([0.5], [], True, "pinned chunk blow-up"),
    # the serial order is rate(y1) .. rate(yk), then the chunks the targets
    # share, then sweep(y1) .. sweep(yk), so every rate failure comes first
    ([0.5, -0.4], [0.5], True, "pinned rate failure"),
    ([0.5, -0.4], [-0.4], True, "pinned rate failure"),
], ids=["rate", "chunk", "rate-y1-beats-chunk", "rate-y2-beats-chunk"])
def test_varadhan_errors_match_the_serial_order(tmp_path, targets,
                                                rate_fails, chunks_fail,
                                                error):
    """A failing run reports the error the serial order meets first, with
    the same report bytes and exit code at workers 1 and 2, and leaves no
    worker running; run in a subprocess with a timeout, so a pool that
    hangs fails here."""
    config = dict(VARADHAN_SMALL, y_targets=targets, n_paths=20000)
    proc = subprocess.run(
        [sys.executable, "-c", VARADHAN_ERROR_SCRIPT, json.dumps(config),
         json.dumps(rate_fails), str(int(chunks_fail)), str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    serial, forked = json.loads(proc.stdout)
    assert serial == forked
    code, blob, alive = serial
    assert code == EXIT_FAIL and alive == 0
    assert error in json.loads(blob)["error"]
