"""eivpcr benchmark: CLI runs on large and small inputs, and the
identification lab, measured from outside the program.

Usage (from the root of a checkout; the program is used from ``src/``):

    python3 bench/run.py --workload cli_large --seed 1 --seconds 30 --trace 0

``--trace 0`` runs each command of the workload as a child process
(``python -m eivpcr.cli ...``), one at a time (a closed loop with one
client), repeating the workload's cycle of commands until ``--seconds`` is
used up, and reports the end-to-end metrics. ``--trace 1`` runs the same
commands in this process, alternating untraced and traced cycles, and
reports the per-layer metrics (see ``spans.py``). Either way every artifact
is checked against a dense-numpy reference (``oracle.py``); a command that
exits non-zero, prints no JSON diagnostics line or fails the check counts
as failed.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``. The line before it is a
report with per-command medians, the environment and artifact hashes.
Metric names and units must match ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# a hung child is killed after this long, so a run always ends within the
# 180 s a run may take
CHILD_TIMEOUT_S = 120
# fresh interpreters timed for setup_s at each end of a run (median of both
# batches); a single import varies by about 15% run to run
SETUP_RUNS = 10
# `python -X importtime` children for cli.import_s (median)
IMPORTTIME_RUNS = 5

SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import eivpcr.cli\n"
    "t = time.perf_counter() - t\n"
    "print(repr(t), eivpcr.cli.__file__)\n"
)

END_TO_END = {"setup_s": "s", "cycle_s": "s", "cycle_cpu_s": "s"}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_simlab_s": "s",
    "cli.main_self_s": "s",
    "cli.fit_lapack_svd_calls": "count",
    "cli.predict_lapack_svd_calls": "count",
    "cli.spectrum_lapack_svd_calls": "count",
    "cli.sc_lapack_svd_calls": "count",
    "dataio.read_s": "s",
    "dataio.cells_read": "count",
    "dataio.read_cells_per_s": "cells/s",
    "dataio.write_s": "s",
    "dataio.bytes_written": "bytes",
    "core.rescale_s": "s",
    "core.svd_s": "s",
    "core.svd_calls": "count",
    "core.lapack_svd_s": "s",
    "core.lapack_svd_calls": "count",
    "core.lapack_svd_gflop": "GFLOP-computed",
    "core.svd_wrapper_s": "s",
    "core.spectral_norm_s": "s",
    "core.truncate_rank_s": "s",
    "pcr.fit_s": "s",
    "pcr.predict_detailed_s": "s",
    "pcr.check_subspace_inclusion_s": "s",
    "pcr.fit_peak_mem_ratio": "ratio",
    "rank_selection.select_s": "s",
    "synthetic_control.fit_rsc_s": "s",
    "synthetic_control.lapack_svd_calls_per_fit": "count",
    "simlab.make_trial_s": "s",
    "simlab.lapack_svd_calls_per_trial": "count",
    "simlab.worker_busy_frac": "ratio",
    "trace.overhead_ratio": "ratio",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report = run(args)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


def run(args):
    if not (SRC / "eivpcr" / "cli.py").is_file():
        raise SetupError(f"no program source at {SRC / 'eivpcr'}")
    _check_spec()
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {args.workload!r}")
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        plan = workloads.WORKLOADS[args.workload](work, args.seed)
        env = dict(os.environ, **plan.env)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        runner = Traced if args.trace else Untraced
        bench = runner(plan, env, work)
        metrics, report = bench.measure(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()
    units = PER_LAYER if args.trace else END_TO_END
    report.update(
        workload=args.workload,
        seed=args.seed,
        attempted=bench.attempted,
        failed=bench.failed,
        failed_frac=bench.failed / bench.attempted,
        failures=bench.failures[:5],
        artifacts_sha256=bench.hashes,
        environment=environment(plan.env),
    )
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, report


def _check_spec() -> None:
    """The metrics this file reports must be the ones BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in spec[key]}
        if theirs != ours:
            raise SetupError(f"BENCHMARK.json {key} does not match bench/run.py")


class _Bench:
    """Shared bookkeeping: attempts, failures and artifact verification."""

    def __init__(self, plan, env, work: Path):
        self.plan = plan
        self.env = env
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.hashes: dict[str, str] = {}
        self._verified: set[tuple] = set()

    def record(self, cmd, returncode: int, stdout: str, stderr: str) -> None:
        """Count one attempt; verify its diagnostics line and artifacts."""
        self.attempted += 1
        problem = None
        if returncode != 0:
            problem = f"exit {returncode}: {stderr.strip()[-300:]}"
        elif not _diagnostics_ok(stdout, cmd.label):
            problem = "no JSON diagnostics line"
        else:
            problem = self._verify(cmd)
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{cmd.label}: {problem}")

    def _verify(self, cmd):
        import oracle

        try:
            digest = tuple(_sha256(p) for p in cmd.outputs)
        except OSError as exc:
            return f"missing artifact ({exc})"
        # identical bytes were already checked against the reference
        if (cmd.label, digest) not in self._verified:
            try:
                cmd.check()
            except (oracle.Mismatch, ValueError, KeyError, IndexError, TypeError, OSError) as exc:
                return f"output check: {exc}"
            self._verified.add((cmd.label, digest))
        for path, h in zip(cmd.outputs, digest):
            self.hashes[path.name] = h
        return None


class Untraced(_Bench):
    """End-to-end metrics: every command is a fresh child process."""

    def measure(self, seconds: float):
        # the first import may compile bytecode; users pay that once
        setup = self._setup_times(SETUP_RUNS + 1)[1:]
        walls = {c.label: [] for c in self.plan.commands}
        cycles, cpus, peaks = [], [], []
        t0 = time.perf_counter()
        while True:
            cycle, cpu, peak = 0.0, 0.0, 0
            for cmd in self.plan.commands:
                child = run_child(["-m", "eivpcr.cli", *cmd.argv], self.env, self.work)
                self.record(cmd, child.returncode, child.stdout, child.stderr)
                walls[cmd.label].append(child.wall)
                cycle += child.wall
                cpu += child.cpu
                peak = max(peak, child.maxrss_kib)
            cycles.append(cycle)
            cpus.append(cpu)
            peaks.append(peak * 1024 / 1e6)
            # start another cycle only if it should end within the budget
            if time.perf_counter() - t0 + statistics.median(cycles) > seconds:
                break
        setup += self._setup_times(SETUP_RUNS)
        metrics = {
            "setup_s": statistics.median(setup),
            "cycle_s": statistics.median(cycles),
            "cycle_cpu_s": statistics.median(cpus),
        }
        report = {
            "cycles": len(cycles),
            "setup_s": _timing(setup),
            "cycle_s": _timing(cycles),
            "cycle_cpu_s": _timing(cpus),
            # the largest child of each cycle; not a bounded metric, since
            # on the lab it depends on which trials the workers overlap
            "peak_rss_mb": {"median": statistics.median(peaks), "max": max(peaks), "unit": "MB"},
        }
        for label, values in walls.items():
            report[f"{label}_s"] = _timing(values)
        for name, unit, work in (
            ("cells_per_s", "cells/s", sum(c.cells for c in self.plan.commands)),
            ("trials_per_s", "trials/s", sum(c.trials for c in self.plan.commands)),
        ):
            if work:
                report[name] = {"value": statistics.median(work / c for c in cycles), "unit": unit}
        return metrics, report

    def _setup_times(self, count: int) -> list:
        times = []
        for _ in range(count):
            child = run_child(["-c", SETUP_CODE], self.env, self.work)
            if child.returncode != 0:
                raise SetupError(f"import eivpcr.cli failed: {child.stderr.strip()[-300:]}")
            elapsed, path = child.stdout.split()
            if not Path(path).resolve().is_relative_to(SRC):
                raise SetupError(f"imported eivpcr from {path}, not from {SRC}")
            times.append(float(elapsed))
        return times


class Traced(_Bench):
    """Per-layer metrics: commands run in this process, traced and not."""

    def measure(self, seconds: float):
        import spans

        import eivpcr.cli  # noqa: F401  (imported before any timing)

        imports = self._import_times()
        plain, traced, per_cycle = [], [], []
        t0 = time.perf_counter()
        with _environ(self.plan.env):
            while True:
                # each command of a cycle writes its own files, so all of a
                # cycle's artifacts are still on disk when it is checked
                wall, outcomes = self._cycle()
                plain.append(wall)
                for outcome in outcomes:
                    self.record(*outcome)
                tracer = spans.Tracer()
                with spans.installed(tracer):
                    wall, outcomes = self._cycle()
                traced.append(wall)
                for outcome in outcomes:
                    self.record(*outcome)
                per_cycle.append(spans.layer_metrics(tracer.spans))
                if time.perf_counter() - t0 + plain[-1] + traced[-1] > seconds:
                    break
            mem_ratio = self.plan.memory_probe()
        metrics = {k: statistics.median(c[k] for c in per_cycle) for k in per_cycle[0]}
        metrics["cli.import_s"] = statistics.median(t for t, _ in imports)
        metrics["cli.import_simlab_s"] = statistics.median(s for _, s in imports)
        metrics["pcr.fit_peak_mem_ratio"] = mem_ratio
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        report = {
            "cycles": len(traced),
            "untraced_cycle_s": _timing(plain),
            "traced_cycle_s": _timing(traced),
        }
        return metrics, report

    def _cycle(self):
        """One in-process pass over the commands: its wall time, and each
        command's outcome for ``record`` (called afterwards, so that no
        reference work runs while a tracer is installed)."""
        import eivpcr.cli

        wall, outcomes = 0.0, []
        for cmd in self.plan.commands:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = eivpcr.cli.main(list(cmd.argv))  # looked up now: maybe traced
            wall += time.perf_counter() - start
            outcomes.append((cmd, rc, out.getvalue(), err.getvalue()))
        return wall, outcomes

    def _import_times(self):
        """(import eivpcr.cli, part of it in eivpcr.simlab), in seconds,
        from ``python -X importtime`` in fresh interpreters."""
        out = []
        for _ in range(IMPORTTIME_RUNS):
            child = run_child(["-X", "importtime", "-c", "import eivpcr.cli"], self.env, self.work)
            if child.returncode != 0:
                raise SetupError(f"import eivpcr.cli failed: {child.stderr.strip()[-300:]}")
            cumulative = {}
            for line in child.stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[1].strip().isdigit():
                    cumulative.setdefault(parts[2].strip(), int(parts[1]))
            total = cumulative["eivpcr"] + cumulative["eivpcr.cli"]
            out.append((total / 1e6, cumulative.get("eivpcr.simlab", 0) / 1e6))
        return out


# ---------------------------------------------------------------------------
# helpers


@dataclass
class Child:
    returncode: int
    wall: float        # s, launch to exit
    cpu: float         # s, user + system
    maxrss_kib: int
    stdout: str
    stderr: str


def run_child(args, env, work: Path) -> Child:
    """Run ``python <args>`` to completion; wall time from launch to exit
    and the child's own peak RSS (``os.wait4``). Output goes to files, so a
    chatty child cannot block on a full pipe."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        reaped = threading.Event()
        lock = threading.Lock()

        def kill():
            with lock:
                if not reaped.is_set():
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            with lock:
                reaped.set()
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                 out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def _diagnostics_ok(stdout: str, command: str) -> bool:
    lines = stdout.strip().splitlines()
    if not lines:
        return False
    try:
        diag = json.loads(lines[-1])
    except ValueError:
        return False
    return isinstance(diag, dict) and diag.get("command") == command


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _timing(values) -> dict:
    """Median, sample count, and the highest percentile with at least ten
    samples above it (left out when there are too few samples)."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "samples": n, "unit": "s"}
    pct = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if pct >= 1:
        out[f"p{pct}"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return out


@contextlib.contextmanager
def _environ(extra: dict):
    saved = {k: os.environ.get(k) for k in extra}
    os.environ.update(extra)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def environment(extra: dict) -> dict:
    """Versions and parallelism settings; BLAS threads are read, never set."""
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
        "EIV_PCR_THREADS": extra.get("EIV_PCR_THREADS", os.environ.get("EIV_PCR_THREADS")),
    }


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


if __name__ == "__main__":
    sys.exit(main())
