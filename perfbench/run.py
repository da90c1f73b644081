"""lqgpo benchmark: one workload per process, checked outputs, one JSON result.

    python3 perfbench/run.py --workload lifted-descent --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; `lqgpo` is imported from its `src/`.  The
run repeats rounds of seeded jobs until `--seconds` have passed, checks every
job's outputs and prints, as its last line, the JSON object
{"correct", "attempted", "failed", "metrics"}.  The line before it is a JSON
report with the environment, per-kind timings, result quality and failures.

--trace 0 gives the end-to-end metrics, with every time normalized to the
host's speed measured around it (HostSpeed).  --trace 1 replays round 0 alternately
without and with the span recorder (see spans.py) and gives the per-layer
metrics; traced outputs must equal untraced ones bit for bit.
"""

import os
import sys
import time

# One BLAS thread: unpinned OpenBLAS timings do not repeat within a tenth.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import dataclasses  # noqa: E402
import enum  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("lifted-descent", "estimation", "classical")
# Largest share of a traced job's wall time its child spans may leave uncovered.
MAX_UNCOVERED = 0.05
# Untraced, a job runs back to back until its runs add up to REPEAT_S, at most
# MAX_REPEATS times, so a millisecond job has many samples.
REPEAT_S = 0.2
MAX_REPEATS = 20
# Untraced, a reference kernel is timed every SAMPLE_PERIOD_S (HostSpeed).  A
# time is reported as its raw seconds, less the kernel runs inside it, times
# REF_NOMINAL_S / (median kernel time within SAMPLE_WINDOW_S of it): in units
# of the kernel's time, scaled so that they read close to raw seconds on the
# 2.0 GHz x86_64 Xeon the benchmark was built on, where the kernel takes
# about 1.2 ms.
SAMPLE_PERIOD_S = 0.03
SAMPLE_WINDOW_S = 0.1
REF_NOMINAL_S = 1.2e-3


class HostSpeed:
    """Samples the host's speed while the untraced jobs run.

    On a shared host the same job's wall time moves by up to 1.6x between
    runs a minute apart, and within a run from one second to the next, with
    its CPU time: other tenants slow the core itself.  A fixed kernel of
    small Lyapunov solves, Schur forms, eigenvalues and products, and a
    Python loop of small matrix-vector updates like an RK4 simulation's (the
    calls lqgpo's own loops are made of) is slowed in step.  It runs from a
    SIGALRM interval timer, so it is sampled during a long job as well as
    between short ones; the handler touches no state of the jobs.  It does
    not use lqgpo, so no change to the program moves it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.mats = [(rng.normal(size=(k, k)) - 3.0 * np.eye(k), rng.normal(size=(k, k)))
                     for k in (2, 4, 8)]
        self.step = (0.9 * np.eye(4), rng.normal(size=4))
        for _ in range(20):  # warm-up: first calls load LAPACK wrappers
            self._kernel()
        self.starts, self.ends = [], []
        self.running = False
        self.busy = False

    def _kernel(self):
        with np.errstate(all="ignore"):
            for A, Q in self.mats:
                scipy.linalg.solve_continuous_lyapunov(A, Q)
                scipy.linalg.schur(A)
                np.linalg.eigvals(A)
                A @ Q
            M, w = self.step
            x = np.zeros(4)
            for k in range(100):
                x = M @ x + w * k

    def _tick(self, signum=None, frame=None):
        if self.busy:  # a tick that outlasted the period: no nested kernel
            return
        self.busy = True
        try:
            t0 = time.perf_counter()
            self._kernel()
            self.starts.append(t0)
            self.ends.append(time.perf_counter())
        finally:
            self.busy = False

    def start(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self.running = True

    def stop(self):
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._tick()
            self.running = False

    def kernel_times(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def normalize(self, start, end):
        """Seconds of [start, end] less the kernel runs inside it, at the
        reference speed of the kernel runs within SAMPLE_WINDOW_S of it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        inside = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        near = range(bisect.bisect_left(self.starts, start - SAMPLE_WINDOW_S),
                     bisect.bisect_right(self.ends, end + SAMPLE_WINDOW_S))
        if not near:  # nothing close: the run before the interval
            near = range(max(lo - 1, 0), max(lo, 1))
        ref = statistics.median(self.ends[i] - self.starts[i] for i in near)
        return (end - start - inside) * REF_NOMINAL_S / ref


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=("full", "toy"),
                   help="toy: tiny instances for the quick check (selfcheck.py)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


@dataclasses.dataclass
class JobResult:
    job: object
    round: int
    start: float
    seconds: float
    out: dict | None
    failures: list
    # host-speed normalized seconds (untraced runs only)
    norm_s: float | None = None


def plain(x):
    """Outputs as nested lists/dicts of Python scalars, for exact comparison."""
    if hasattr(x, "tolist"):
        return x.tolist()
    if dataclasses.is_dataclass(x):
        return {f.name: plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, enum.Enum):
        return x.value
    return x


def run_round(jobs, r, tracer=None, stop_at=None, repeat_s=0.0):
    """Run the jobs in order, each back to back until its runs add up to
    `repeat_s` (once for 0, at most MAX_REPEATS times), stopping early once
    perf_counter() >= stop_at."""
    results, done = [], {}
    for job in jobs:
        if stop_at is not None and time.perf_counter() >= stop_at:
            break
        spent = 0.0
        for _ in range(MAX_REPEATS):
            results.append(run_job(job, r, done, tracer))
            spent += results[-1].seconds
            if spent >= repeat_s:
                break
    return results


def run_job(job, r, done, tracer):
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = job.run(done)
        else:
            with tracer.job(job.name):
                out = job.run(done)
    except Exception as exc:  # a failing operation is counted, not fatal
        return JobResult(job, r, t0, time.perf_counter() - t0, None,
                         [f"{type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - t0
    try:
        failures = job.check(out, done)
    except Exception as exc:
        failures = [f"check raised {type(exc).__name__}: {exc}"]
    done[job.name] = out
    return JobResult(job, r, t0, seconds, out, failures)


def tail(values):
    """Highest percentile with at least ten samples beyond it (None if fewer
    than eleven samples)."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": round(100.0 * (n - 10) / n, 2), "value_s": sorted(values)[n - 11]}


def timing(values):
    return {"median_s": statistics.median(values), "n": len(values), "tail": tail(values)}


def environment(seed):
    def blas(config):
        try:
            return config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except Exception:  # the build record's layout varies between releases
            return None

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(np.show_config),
        "scipy_openblas": blas(scipy.show_config),
        "machine": platform.machine(),
    }


def failure_list(results):
    return [{"job": r.job.name, "round": r.round, "messages": r.failures}
            for r in results if r.failures]


def measure(wl, args, host, import_span):
    """Untraced rounds until --seconds have passed: the end-to-end metrics.

    Every round regenerates the same instances from the seed (each
    generation is one set-up sample) and runs the jobs again.  Every time is
    normalized to the host's speed around it (HostSpeed).  A job's time is
    the median of its normalized runs; the geometric means do not depend on
    how many rounds fit.
    """
    from workloads import QUALITY, geomean

    results, setup_spans = [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    r = 0
    # Round 0 always completes, so every job has a sample.
    while r == 0 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        jobs = wl.make_round(np.random.default_rng(args.seed), args.size)
        setup_spans.append((t0, time.perf_counter()))
        results += run_round(jobs, r, stop_at=deadline if r else None, repeat_s=REPEAT_S)
        r += 1
    elapsed = time.perf_counter() - start
    host.stop()
    for x in results:
        x.norm_s = host.normalize(x.start, x.start + x.seconds)
    setup = [host.normalize(*span) for span in setup_spans]
    import_s = host.normalize(*import_span)

    first = {}
    for x in results:
        if x.out is not None and plain(x.out) != first.setdefault(x.job.name, plain(x.out)):
            x.failures.append("outputs differ from the job's first run")

    def secs(kinds, raw=False):
        return [x.seconds if raw else x.norm_s for x in results if x.job.kind in kinds]

    ok = [x for x in results if x.out is not None]
    runs, last = {}, {}
    for x in ok:
        runs.setdefault(x.job.name, []).append(x.norm_s)
        last[x.job.name] = x
    median = {n: statistics.median(v) for n, v in runs.items()}
    per_kind = [[median[n] for n, x in last.items() if x.job.kind == kind]
                for kind in wl.job_kinds]
    job_s = geomean([geomean(times) for times in per_kind if times])
    rates = {n: x.job.work(x.out) / median[n] for n, x in last.items()
             if x.job.kind == wl.work_kind and x.job.work(x.out) > 0}
    work_per_s = geomean(list(rates.values()))
    work_jobs = [x for x in ok if x.job.kind == wl.work_kind]
    work = sum(x.job.work(x.out) for x in work_jobs)
    failed = sum(1 for x in results if x.failures)
    quality = {}  # once per job: every run of a job gives the same outputs
    for x in last.values():
        for key, value in x.job.quality(x.out).items():
            quality.setdefault(key, []).append(value)

    setup_s = import_s + statistics.median(setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "job_s": {"value": job_s, "unit": "s"},
        "work_per_s": {"value": work_per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    named = {
        "setup_s": {"value": setup_s, "unit": "s", "n": len(setup)},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "n": 1},
        "failed_frac": {"value": failed / len(results), "unit": "1", "n": len(results)},
        f"{wl.prefix}.{wl.work_name}": {"value": work_per_s, "unit": "1/s", "n": len(work_jobs),
                                        "work_unit": wl.work_unit, "work": work},
    }
    for name, kinds in wl.timings.items():
        named[f"{wl.prefix}.{name}"] = {"unit": "s", **timing(secs(kinds))}
    for key, values in quality.items():
        named[f"{wl.prefix}.{key}"] = {"value": QUALITY[key](values), "unit": "1",
                                       "n": len(values)}
    report = {
        "rounds": r,
        "elapsed_s": elapsed,
        "import_s": import_s,
        "round_setup_s": {"median_s": statistics.median(setup), "n": len(setup)},
        "raw_round_setup_s": statistics.median(b - a for a, b in setup_spans),
        "kernel_s": timing(host.kernel_times()),
        "jobs": {kind: timing(secs((kind,))) for kind in sorted({x.job.kind for x in results})},
        "raw_jobs": {kind: timing(secs((kind,), raw=True))
                     for kind in sorted({x.job.kind for x in results})},
        "median_s": median,
        "job_log": [[x.job.name, x.round, x.seconds, x.norm_s,
                     x.job.work(x.out) if x.out else None] for x in results],
        "named": named,
    }
    return results, metrics, report, []


def measure_traced(wl, args):
    """Round 0 replayed untraced then traced until --seconds have passed:
    the per-layer metrics, with the tracer's self-checks."""
    import spans

    jobs = wl.make_round(np.random.default_rng(args.seed), args.size)
    results, reps, problems = [], [], []
    start = time.perf_counter()
    while True:
        # No garbage collection inside a replay: with ~10^5 spans alive a
        # full collection pauses for ~50 ms, and one that starts in a job's
        # own code, outside every child span, reads as uncovered job time.
        gc.collect()
        gc.disable()
        tracer = spans.Tracer()
        try:
            plain_res = run_round(jobs, 0)
            tracer.install(extra=[sys.modules[wl.make_round.__module__]])
            traced_res = run_round(jobs, 0, tracer)
        finally:
            tracer.uninstall()
            gc.enable()
        results += plain_res + traced_res
        for a, b in zip(plain_res, traced_res):
            if plain(a.out) != plain(b.out):
                problems.append(f"{a.job.name}: traced outputs differ from untraced")
        if tracer.nesting_violations():
            problems.append(f"{tracer.nesting_violations()} spans outside their parent")
        uncovered, job = tracer.worst_job_uncovered()
        if uncovered > MAX_UNCOVERED:
            problems.append(f"{job}: spans leave {uncovered:.1%} of its wall time uncovered")
        if reps and tracer.counters != reps[0][2].counters:
            problems.append("traced counts differ between repetitions")
        reps.append((sum(x.seconds for x in plain_res), sum(x.seconds for x in traced_res),
                     tracer))
        if time.perf_counter() - start >= args.seconds:
            break

    first = reps[0][2]
    untraced_s = statistics.median(t for t, _, _ in reps)
    traced_s = statistics.median(t for _, t, _ in reps)
    self_pct = {}
    for _, _, tracer in reps:
        total = sum(s.end - s.start for s in tracer.job_spans())
        for name, secs in tracer.self_times().items():
            self_pct.setdefault(name, []).append(100.0 * secs / total)
    metrics = {}
    for name, unit in spans.per_layer_metrics():
        func, _, stat = name.rpartition(".")
        if stat == "self_pct":
            value = statistics.median(self_pct[func]) if func in self_pct else 0.0
        elif name == "trace.overhead_pct":
            value = 100.0 * (traced_s - untraced_s) / untraced_s
        else:
            value = first.counters.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    report = {
        "repetitions": len(reps),
        "untraced_round_s": untraced_s,
        "traced_round_s": traced_s,
        "worst_job_uncovered": max(t.worst_job_uncovered() for _, _, t in reps),
        "self_s": {name: statistics.median(t.self_times().get(name, 0.0) for _, _, t in reps)
                   for name in sorted(first.self_times())},
    }
    return results, metrics, report, problems


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lqgpo" / "__init__.py").is_file():
        print(f"error: no lqgpo package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    host = HostSpeed()
    try:
        return run_workload(args, host)
    finally:
        host.stop()


def run_workload(args, host):
    if not args.trace:
        host.start()
    # The set-up clock starts after the numpy and scipy imports: they are not
    # lqgpo's own time.
    t0 = time.perf_counter()
    import lqgpo
    from workloads import WORKLOADS

    if Path(lqgpo.__file__).resolve().parent != (SRC / "lqgpo").resolve():
        print(f"error: imported lqgpo from {lqgpo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_span = (t0, time.perf_counter())
    wl = WORKLOADS[args.workload]
    if args.trace:
        results, metrics, report, problems = measure_traced(wl, args)
    else:
        results, metrics, report, problems = measure(wl, args, host, import_span)
    failed = sum(1 for x in results if x.failures)
    report.update(workload=args.workload, size=args.size, seconds=args.seconds,
                  trace=args.trace, environment=environment(args.seed),
                  failures=failure_list(results), self_check_problems=problems)
    print(json.dumps({"report": report}, default=float))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
