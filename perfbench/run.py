"""Benchmark of the `roughdensity run` command on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
`src/` and needs nothing installed beyond the package's dependencies.
NAME is one of the workloads in workloads.py, or `all`, which interleaves
the workloads step by step (so host drift hits all of them alike) and
prints the metrics of each.

Every timed repetition is a fresh interpreter running
`roughdensity run --workers 2` on the workload's config, with the BLAS
thread count pinned to 1 so that compute threads stay within 2 CPUs.  A
run starts with set-up probes: fresh interpreters that import
`roughdensity.cli` and validate the config.  Then come steps, each a host
calibration loop and one repetition started on the next CPU in turn; with
`--trace 1` a step is a calibration loop, an untraced and a traced
repetition (under traced_cli.py, which records spans around every library
layer) on one CPU.  Steps repeat until the next would end past S seconds
from the start of the run.

With `--trace 0` the metrics are run_s and setup_s (medians over the run)
and peak_rss_mb (the largest over the run); with `--trace 1` they are the
per-layer busy times and work counts from the traced repetitions plus
proc.cpu_s, host.calib_s and trace.overhead_s.  Each repetition is one
operation; it fails on a non-zero exit, a failed report criterion or
workload check, a report.json that is not byte-identical to the first
repetition's, or, when traced, work counts that differ between traced
repetitions or top-level spans covering less than 95% of the traced wall
time.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import spans
import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"
WORKERS = 2
CPUS = sorted(os.sched_getaffinity(0))
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ROUNDS = 2
MIN_TOP_LEVEL_SHARE = 0.95
CHILD_TIMEOUT_S = 60.0
CALIB_LOOP = 1_000_000

RUN_CODE = "import sys; from roughdensity.cli import main; sys.exit(main())"
SETUP_CODE = ("import json, sys; import roughdensity.cli; "
              "from roughdensity.runner import validate_config; "
              "validate_config(json.load(open(sys.argv[1])))")

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{m: "s" for m in spans.TIME_METRICS},
    **{m: "count" for m in spans.COUNT_METRICS},
    "density.mc_parallel_eff": "ratio",
    "proc.cpu_s": "s",
    "host.calib_s": "s",
    "trace.overhead_s": "s",
}


class Child(NamedTuple):
    wall_s: float
    code: int
    cpu_s: float
    rss_mb: float


def spawn(cmd: list[str], env: dict, log: Path, cpu: int) -> Child:
    """Run ``cmd`` to completion, started on ``cpu``; wall time from spawn
    to exit, plus the child's own CPU time and peak resident memory.

    The child starts pinned to ``cpu`` and is released to every allowed
    CPU once it runs: a single-threaded process stays where it started and
    its worker threads spread out.  Host load can slow one CPU of a small
    virtual machine for minutes, so callers alternate ``cpu`` to sample
    every CPU equally instead of leaving it to chance.
    """
    allowed = os.sched_getaffinity(0)
    with open(log, "wb") as fh:
        start = time.perf_counter()
        os.sched_setaffinity(0, {cpu})
        try:
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                    env=env, cwd=ROOT)
        finally:
            os.sched_setaffinity(0, allowed)
        try:
            os.sched_setaffinity(proc.pid, allowed)
        except ProcessLookupError:      # already exited
            pass
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    return Child(wall, proc.returncode, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
    env.pop("ROUGHDENSITY_WORKERS", None)
    return env


def host_calibration() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIB_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def log(msg: str) -> None:
    print(msg, flush=True)


class Workload:
    """Repetitions of one workload at one seed and what they measured."""

    def __init__(self, name: str, seed: int, work: Path, env: dict):
        self.name = name
        self.env = env
        self.dir = work / name
        self.dir.mkdir()
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(workloads.config(name, seed)))
        self.runs: list[Child] = []
        self.traced: list[tuple[Child, dict]] = []
        self.setup: list[float] = []
        self.calib: list[float] = []
        self.attempted = self.failed = 0
        self.sha256 = None
        self.counts = None
        self.spent = 0.0
        self.steps = 0

    def step_s(self) -> float:
        """Mean seconds of one step so far."""
        return self.spent / self.steps

    def step(self, trace: bool) -> None:
        """One repetition, or with ``trace`` an untraced and a traced
        repetition, started on the next CPU in turn, after a host
        calibration loop."""
        start = time.perf_counter()
        self.calib.append(host_calibration())
        cpu = CPUS[self.steps % len(CPUS)]
        self.repetition(cpu, traced=False)
        if trace:
            self.repetition(cpu, traced=True)
        self.spent += time.perf_counter() - start
        self.steps += 1

    def probe_setup(self, cpu: int) -> None:
        child = spawn([sys.executable, "-c", SETUP_CODE, str(self.config)],
                      self.env, self.dir / "setup.log", cpu)
        if child.code != 0:
            sys.stderr.write((self.dir / "setup.log").read_text())
            raise RuntimeError(f"{self.name}: set-up probe exited "
                               f"{child.code}")
        self.setup.append(child.wall_s)

    def repetition(self, cpu: int, traced: bool) -> None:
        rep = self.attempted
        out = self.dir / f"rep{rep}"
        args = ["run", "--config", str(self.config), "--out", str(out),
                "--workers", str(WORKERS)]
        span_file = self.dir / f"spans{rep}.json"
        cmd = ([sys.executable, str(HERE / "traced_cli.py"), str(span_file)]
               if traced else [sys.executable, "-c", RUN_CODE]) + args
        child_log = self.dir / f"rep{rep}.log"
        child = spawn(cmd, self.env, child_log, cpu)
        self.attempted += 1

        report, digest = None, None
        if (out / "report.json").is_file():
            blob = (out / "report.json").read_bytes()
            digest = hashlib.sha256(blob).hexdigest()
            report = json.loads(blob)
        errors = workloads.check(self.name, child.code, report)
        if digest is not None:
            self.sha256 = self.sha256 or digest
            if digest != self.sha256:
                errors.append("report.json differs from the first repetition")
        line = (f"# {self.name} rep {rep}{' traced' if traced else ''}: "
                f"cpu={cpu} calib_s={self.calib[-1]:.4f} "
                f"run_s={child.wall_s:.4f} "
                f"peak_rss_mb={child.rss_mb:.1f} cpu_s={child.cpu_s:.3f} "
                f"sha256={digest}")
        if traced:
            analysis = self.analyse_trace(span_file, errors)
            self.traced.append((child, analysis))
            line += f" top_level_share={analysis['top_level_share']:.4f}"
        else:
            self.runs.append(child)
        log(line)
        if errors:
            self.failed += 1
            log(f"# {self.name} rep {rep} FAILED: {'; '.join(errors)}")
            sys.stderr.write(child_log.read_text()[-4000:])
        shutil.rmtree(out, ignore_errors=True)

    def analyse_trace(self, span_file: Path, errors: list[str]) -> dict:
        if not span_file.is_file():
            errors.append("traced run wrote no spans")
            return {"metrics": {}, "self_s": {}, "top_level_share": 0.0}
        analysis = spans.analyse(json.loads(span_file.read_text()), WORKERS)
        counts = {m: analysis["metrics"][m] for m in spans.COUNT_METRICS}
        self.counts = self.counts or counts
        if counts != self.counts:
            errors.append("work counts differ between traced repetitions")
        if analysis["top_level_share"] < MIN_TOP_LEVEL_SHARE:
            errors.append(f"top-level spans cover only "
                          f"{analysis['top_level_share']:.1%} of the run")
        return analysis

    def end_to_end(self) -> dict:
        # The peak of a run depends on whether the two workers' chunk
        # buffers overlap in time, so a single repetition lands on either
        # of two levels; the largest peak of the run is the steady figure.
        return {"run_s": [c.wall_s for c in self.runs],
                "setup_s": self.setup,
                "peak_rss_mb": [max(c.rss_mb for c in self.runs)]}

    def per_layer(self) -> dict:
        samples = {m: [a["metrics"].get(m, 0.0) for _, a in self.traced]
                   for m in spans.TIME_METRICS}
        samples["density.mc_parallel_eff"] = [
            a["metrics"].get("density.mc_parallel_eff", 0.0)
            for _, a in self.traced]
        samples.update({m: [(self.counts or {}).get(m, 0)]
                        for m in spans.COUNT_METRICS})
        samples["proc.cpu_s"] = [c.cpu_s for c in self.runs]
        samples["host.calib_s"] = self.calib
        samples["trace.overhead_s"] = [
            statistics.median(c.wall_s for c, _ in self.traced)
            - statistics.median(c.wall_s for c in self.runs)]
        return samples


def describe_host() -> str:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sp_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {sys.version.split()[0]} numpy {numpy.__version__} "
            f"({blas['name']} {blas['version']}) scipy {scipy.__version__} "
            f"({sp_blas['name']} {sp_blas['version']}) "
            f"blas_threads {BLAS_THREADS} nproc {os.cpu_count()} "
            f"workers {WORKERS}")


def measure(names: list[str], seed: int, seconds: float, trace: bool,
            work: Path) -> list[Workload]:
    """Set-up probes, then steps of every workload in turn until the next
    turn would end past ``seconds`` from the start (at least one turn)."""
    start = time.perf_counter()
    env = child_env()
    loads = [Workload(n, seed, work, env) for n in names]
    loads[0].probe_setup(CPUS[0])   # warm-up: file cache, bytecode cache
    loads[0].setup.clear()
    for w in loads:
        for _ in range(SETUP_ROUNDS):
            for cpu in CPUS:
                w.probe_setup(cpu)
    turn = 0
    while turn == 0 or (time.perf_counter() - start
                        + sum(w.step_s() for w in loads) <= seconds):
        shift = turn % len(loads)
        for w in loads[shift:] + loads[:shift]:
            w.step(trace)
        turn += 1
    return loads


def summarize(w: Workload, trace: bool, prefix: str) -> dict:
    """Print the workload's metrics; returns them as {name: value/unit}."""
    metrics = {}
    tables = [(w.end_to_end(), END_TO_END)]
    if trace:
        tables.append((w.per_layer(), PER_LAYER_UNITS))
    for samples, units in tables:
        for name, unit in units.items():
            q1, med, q3 = quartiles(samples[name])
            log(f"{w.name:16s} {name:40s} median={med:.6g} q1={q1:.6g} "
                f"q3={q3:.6g} n={len(samples[name])} {unit}")
            metrics[prefix + name] = {"value": med, "unit": unit}
    if trace and w.traced:
        analysis = w.traced[0][1]
        self_s = " ".join(f"{k}={v:.3f}" for k, v in
                          sorted(analysis["self_s"].items()))
        log(f"{w.name:16s} self time by layer (s): {self_s}")
        log(f"{w.name:16s} top-level spans cover "
            f"{analysis['top_level_share']:.2%} of the traced wall time")
    log(f"{w.name:16s} report.json sha256={w.sha256} "
        f"ops_attempted={w.attempted} ops_failed={w.failed}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.NAMES) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like on an exception: spawn() kills and reaps the
    # running child and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in ("src/roughdensity/cli.py", "docs/schema.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a roughdensity source checkout: missing {missing}",
              file=sys.stderr)
        return 2

    names = list(workloads.NAMES) if args.workload == "all" \
        else [args.workload]
    log(f"# host: {describe_host()}")
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        loads = measure(names, args.seed, args.seconds, bool(args.trace),
                        work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    metrics = {}
    single = args.workload != "all"
    for w in loads:
        found = summarize(w, bool(args.trace),
                          "" if single else f"{w.name}/")
        if single:
            keep = PER_LAYER_UNITS if args.trace else END_TO_END
            found = {k: v for k, v in found.items() if k in keep}
        metrics.update(found)
    attempted = sum(w.attempted for w in loads)
    failed = sum(w.failed for w in loads)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
