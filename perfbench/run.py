"""riemopt benchmark: seeded workloads, end-to-end metrics, per-layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload maxcut-small-batch --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

Each workload sets up its inputs (several times, reporting the median),
then runs its fixed list of operations round-robin in a closed loop until
``--seconds`` have passed, checking every output, and prints its metrics.
A probe kernel timed around every run gauges how fast a shared host ran
at the time; time metrics scale each run to a fixed probe speed and take
each op's median run.  With ``--trace 1`` full passes are traced and the
per-layer table is printed instead; a quarter of the ops also runs
untraced first, which gives the tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
riemopt is imported from ``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
# Fixed before numpy loads: OpenBLAS would otherwise start one spinning
# thread per core, which doubles CPU time and adds run-to-run noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# The probe's fastest time on a quiet core of a 2-core x86-64 virtual
# machine (Python 3.11, numpy 2.4.6, OpenBLAS 0.3.31 on 1 thread).  Time
# metrics are given at that probe speed, so that how fast the host ran
# during a run does not move them.
PROBE_REFERENCE_S = 0.6e-3
P90_MIN_SAMPLES = 100  # at least 10 samples beyond the 90th percentile

WORKLOAD_NAMES = ("maxcut-large", "maxcut-small-batch", "manifold-suite")


def _pin_to_one_cpu():
    """Keep this process, and the interpreters it starts, on one CPU.

    A shared host slows its CPUs down independently, so the probe only
    speaks for the CPU the measured work runs on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _import_library():
    """Import numpy and riemopt from SRC."""
    if not (SRC / "riemopt" / "__init__.py").is_file():
        raise SystemExit(f"error: riemopt sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import riemopt

    if SRC not in Path(riemopt.__file__).resolve().parents:
        raise SystemExit(f"error: riemopt was imported from {riemopt.__file__}, not {SRC}")


def _cold_import():
    """Import numpy and riemopt in a fresh interpreter, as a user's first
    call does; the BLAS thread count is inherited from this process."""
    import subprocess

    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import numpy, riemopt, riemopt.maxcut"
    subprocess.run([sys.executable, "-c", code], check=True)


def environment() -> dict:
    import ctypes
    import importlib.metadata
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            threads = getter()
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    return statistics.quantiles(values, n=10)[-1]


class Probe:
    """A fixed numpy kernel of about 1 ms, timed between runs to gauge the
    host's speed at the time of each run.

    On a shared host the same work runs up to 2x slower for seconds to
    minutes at a time, and a whole run can fall in a slow stretch.  Like
    the ops, the probe is small matrix products and reductions driven from
    Python, so it slows down with them.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.standard_normal((80, 80))
        self._x = rng.standard_normal((80, 4))
        self.best = float("inf")
        self.last = self.time()

    def time(self) -> float:
        np, a, x = self._np, self._a, self._x
        t0 = time.perf_counter()
        for _ in range(100):
            y = a @ x
            float(np.sum(x * y))
        elapsed = time.perf_counter() - t0
        self.best = min(self.best, elapsed)
        return elapsed

    def around(self) -> float:
        """Time the probe after a run; return the mean of the probes before
        and after it.  The faster of two timings is kept, so that caches
        the run left cold do not count."""
        before = self.last
        self.last = min(self.time(), self.time())
        return (before + self.last) / 2

    @staticmethod
    def scaled(seconds: float, probe: float) -> float:
        """A run's time at the probe speed ``PROBE_REFERENCE_S``."""
        return seconds * PROBE_REFERENCE_S / probe


class Run:
    """One workload at one seed: set-up, timed runs of every op, checks, metrics."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, work: Path = WORK, out: Path = OUT):
        import workloads

        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny  # warm-up sized inputs, for the benchmark's own tests
        self.build = workloads.WORKLOADS[name]
        self.tap = workloads.CutTap()
        self.dir = work / f"{os.getpid()}-{name}"
        self.out = out
        self.failures: dict[str, list] = {}  # label -> [first message, count]
        self.failed_ops: set[int] = set()
        self.wrong = 0  # outputs that disagree with the benchmark's recomputation
        self.op_walls: list[list[float]] = []  # per op: wall time of each of its runs
        self.op_cpus: list[list[float]] = []
        self.op_probes: list[list[float]] = []  # per op: Probe.around() of each run
        self.setup_rounds: list[tuple[float, float]] = []  # (seconds, probe) of each
        self.cut_ratios: list[float] = []
        self.probe = Probe()

    @property
    def attempted(self) -> int:
        """Distinct ops.  Each is checked on every run, and its inputs and
        outputs are the same on every run, so a run's counts depend on the
        seed alone, not on how many runs fit in the time."""
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def _fresh_dir(self, sub: str) -> str:
        path = self.dir / sub
        path.mkdir(parents=True)
        return str(path)

    def setup(self):
        """Cold import, input generation and a tiny warm-up pass, repeated.

        The import runs in a fresh interpreter, as a user's first call
        does; the rest runs here.  Warm-up outputs are not checked: they
        are not part of the measure, and the timed runs check the same
        code paths.
        """
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            _cold_import()
            ops = self.build(self.seed, self._fresh_dir(f"setup{rep}"), self.tiny, self.tap)
            warm = self.build(self.seed, self._fresh_dir(f"warm{rep}"), True, self.tap)
            for op in warm:
                op.run()
            self.setup_rounds.append((time.perf_counter() - t0, self.probe.around()))
        self.ops = ops
        self.op_walls = [[] for _ in ops]
        self.op_cpus = [[] for _ in ops]
        self.op_probes = [[] for _ in ops]

    def run_op(self, k: int, op):
        """Run one op, record its wall and CPU time, then check its output."""
        c0, w0 = time.process_time(), time.perf_counter()
        result = op.run()
        self.op_walls[k].append(time.perf_counter() - w0)
        self.op_cpus[k].append(time.process_time() - c0)
        self.op_probes[k].append(self.probe.around())
        self.check(k, op, result)

    def check(self, k: int, op, result):
        failure = op.check(result)
        if failure is not None:
            self.failed_ops.add(k)
            self.wrong += failure.wrong
            self.failures.setdefault(op.label, [failure.message, 0])[1] += 1
        elif op.cut_ratio is not None and len(self.op_walls[k]) == 1:
            self.cut_ratios.append(op.cut_ratio)

    def timed(self):
        """Run the ops round-robin until ``--seconds`` have passed.

        Every op runs at least once; the run stops after the first op that
        ends past the deadline, so runs per op differ by at most one.
        """
        start, k = time.perf_counter(), 0
        while True:
            self.run_op(k % len(self.ops), self.ops[k % len(self.ops)])
            k += 1
            if k >= len(self.ops) and time.perf_counter() - start >= self.seconds:
                return

    def traced(self):
        """Per-layer metrics from traced passes.

        The tracing overhead is measured on the first quarter of the ops,
        run untraced and then traced, so the run stays short on the
        workloads whose pass is long.
        """
        import tracing

        sample = max(1, len(self.ops) // 4)
        for k in range(sample):
            self.run_op(k, self.ops[k])
        tracer = tracing.Tracer()
        with tracer:
            ops = self.build(self.seed, self._fresh_dir("traced"), self.tiny, self.tap,
                             trace=tracer.trace_problem)
            start, walls, pass_id = time.perf_counter(), [], 0
            while True:
                for k, op in enumerate(ops):
                    tracer.op_id, tracer.pass_id = pass_id * len(ops) + k, pass_id
                    self.run_op(k, op)
                walls.append(sum(times[-1] for times in self.op_walls))  # checks excluded
                pass_id += 1
                if time.perf_counter() - start >= self.seconds:
                    break
        if not tracer.passes_agree(len(ops)):
            self.wrong += 1
            self.failures["trace"] = ["per-layer counts differ between identical passes", 1]
        self.layer = tracer.metrics(len(walls), walls)
        untraced_sample = sum(self.op_walls[k][0] for k in range(sample))
        traced_sample = sum(self.op_walls[k][1] for k in range(sample))
        self.layer["trace.overhead_s"] = (traced_sample - untraced_sample, "s")
        self.layer["trace.overhead_ratio"] = (traced_sample / untraced_sample - 1.0, "ratio")
        self.out.mkdir(parents=True, exist_ok=True)
        tracer.write(self.out / f"spans-{self.name}-seed{self.seed}.npz")

    def execute(self):
        self.tap.install()
        try:
            self.setup()
            self.traced() if self.trace else self.timed()
        finally:
            self.tap.uninstall()
            shutil.rmtree(self.dir, ignore_errors=True)

    def scaled(self, per_op) -> list[float]:
        """Each op's median run, each run scaled by the probes around it."""
        return [_median([Probe.scaled(t, p) for t, p in zip(times, probes)])
                for times, probes in zip(per_op, self.op_probes)]

    def end_to_end(self) -> dict:
        import resource

        walls = self.scaled(self.op_walls)
        return {
            "setup_s": (_median([Probe.scaled(t, p) for t, p in self.setup_rounds]), "s"),
            "wall_s": (sum(walls), "s"),
            "solve_p50_ms": (1e3 * _median(walls), "ms"),
            "cpu_s": (sum(self.scaled(self.op_cpus)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def report(self) -> dict:
        """Print the human-readable block; return the metrics for the JSON line."""
        runs = [len(times) for times in self.op_walls]
        print(f"== {self.name}  seed {self.seed}  {'traced ' if self.trace else ''}"
              f"ops {len(self.ops)}  runs per op {min(runs)}..{max(runs)}  "
              f"runs {sum(runs)}  closed loop, 1 caller")
        if self.trace:
            metrics = self.layer
        else:
            metrics = self.end_to_end()
            walls = self.scaled(self.op_walls)
            p90 = (f"{1e3 * _p90(walls):.3f} ms" if len(walls) >= P90_MIN_SAMPLES
                   else f"n/a (needs {P90_MIN_SAMPLES} ops)")
            print(f"  solve_p90_ms  {p90}  [{len(walls)} ops, median run of each]")
            probes = [p for per_op in self.op_probes for p in per_op]
            print(f"  unscaled: sum of median runs "
                  f"{sum(_median(times) for times in self.op_walls):.4f} s, of fastest runs "
                  f"{sum(min(times) for times in self.op_walls):.4f} s; probe fastest "
                  f"{1e3 * self.probe.best:.4f} ms, median "
                  f"{_median(probes) / self.probe.best:.3f}x")
            print(f"  fail_ratio  {self.failed / self.attempted:.6f} ratio  "
                  f"[{self.failed} of {self.attempted} ops]")
            if self.cut_ratios:
                print(f"  cut_ratio  {_median(self.cut_ratios):.6f} ratio (higher is better)")
        for key, (value, unit) in metrics.items():
            print(f"  {key}  {value:.6g} {unit}")
        for label, (message, count) in self.failures.items():
            print(f"  FAILED {label} ({count}x): {message}")
        return {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_to_one_cpu()
    _import_library()
    print("env " + json.dumps(environment()))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace))
        run.execute()
        result = run.report()
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + key: value for key, value in result.items()})
        attempted += run.attempted
        failed += run.failed
        correct = correct and run.wrong == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
