"""The benchmark's workloads: one `roughdensity run` config each, built from
the benchmark seed, and the checks every run of it must pass.

density_mc      Monte-Carlo density: sampling, lift and `solve_batch`
                (no Jacobian) at 16,384 paths per chunk, then a 512-point
                KDE.  The hypothesis gate is a small share.
gate_scan       The hypothesis gate alone at n=160: about 5,000
                conditional-variance solves and outer variation DPs;
                paths, lift, rde and KDE stay idle.
varadhan_rate   The rate function d^2(y) (BFGS on the RK4 skeleton) plus a
                three-eps sweep that shares one sample and evaluates the
                KDE at one point.  The identity field on Brownian motion
                has the closed form d^2 = y^2 / 2 = 0.18.
malliavin_audit Per-call overhead: 200 single-path `rde.solve` calls with
                the Jacobian, directional derivatives and the batched
                Malliavin matrix.

Sizes keep those layer shares while one repetition of `roughdensity run`
takes 5 to 10 s on 2 CPUs, so that a run of the benchmark holds several
repetitions and its median is steady on a noisy host.  BENCHMARK.json
lists varadhan_rate and malliavin_audit only (see README.md for why);
the other two run by name or under `all`.  varadhan_rate sets
`n_starts=1` and `m_nodes=8` (defaults 5 and 16): at the defaults the rate
function alone takes about 25 s.  `penalty_schedule` is left unset.
"""

from __future__ import annotations

import math

# Hypothesis-gate values for fbm(H=0.4) at n_steps=160, recorded from the
# code as it stood when the benchmark was added.  The gate depends only on
# the kernel and the grid, not on the seed.
GATE_REFERENCE = {
    "c_X_estimate": 0.9528272662321209,
    "alpha_estimate": 0.805603099924892,
    "holder_exponent": 0.8820952833936365,
}
GATE_RTOL = 1e-10
RATE_D2 = 0.18          # y^2 / 2 at y = 0.6
RATE_D2_TOL = 1e-3
RATE_RESIDUAL_TOL = 1e-6

FBM04 = {"family": "fbm", "H": 0.4, "rho": 1.25}


def config(name: str, seed: int) -> dict:
    """The run config of workload ``name``; the seed is written into it."""
    if name == "density_mc":
        return {"kernel": FBM04, "grid": {"n_steps": 128},
                "vf": {"name": "bounded_nonlinear"}, "experiment": "density",
                "n_paths": 65536, "eps": 1.0, "seed": seed}
    if name == "gate_scan":
        return {"kernel": {"family": "fbm", "H": 0.4},
                "grid": {"n_steps": 160}, "experiment": "hypotheses",
                "seed": seed}
    if name == "varadhan_rate":
        return {"kernel": {"family": "fbm", "H": 0.5},
                "grid": {"n_steps": 64}, "vf": {"name": "identity"},
                "experiment": "varadhan", "y_targets": [0.6],
                "n_paths": 65536, "m_nodes": 8, "n_starts": 1, "seed": seed}
    if name == "malliavin_audit":
        return {"kernel": {"family": "fbm", "H": 0.4},
                "grid": {"n_steps": 128}, "vf": {"name": "rotation_mix"},
                "experiment": "audit-malliavin", "n_pairs": 100,
                "seed": seed}
    raise KeyError(name)


NAMES = ("density_mc", "gate_scan", "varadhan_rate", "malliavin_audit")


def _close(got: float, want: float, rtol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * abs(want)


def check(name: str, exit_code: int, report: dict | None) -> list[str]:
    """Problems with one run of workload ``name``; empty when it is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if report is None:
        return ["no report.json"]
    errors = [f"criterion {c['name']} failed"
              for c in report.get("criteria", []) if not c["pass"]]
    if not report.get("pass") or not report.get("criteria"):
        errors.append("report does not pass")
    result = report.get("result", {})
    if name == "gate_scan":
        rep = result["hypothesis_report"]
        got = {"c_X_estimate": rep["c_X_estimate"],
               "alpha_estimate": rep["alpha_estimate"],
               "holder_exponent": rep["holder_controlled"]["exponent"]}
        errors += [f"{k} = {got[k]!r}, recorded {v!r}"
                   for k, v in GATE_REFERENCE.items()
                   if not _close(got[k], v, GATE_RTOL)]
    elif name == "varadhan_rate":
        rate = result["targets"][0]["rate_function"]
        if not abs(rate["d2"] - RATE_D2) <= RATE_D2_TOL:
            errors.append(f"d2 = {rate['d2']!r}, closed form {RATE_D2}")
        if not rate["residual"] <= RATE_RESIDUAL_TOL:
            errors.append(f"residual {rate['residual']!r} > "
                          f"{RATE_RESIDUAL_TOL}")
    return errors
