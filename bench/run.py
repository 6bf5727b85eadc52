"""End-to-end benchmark of the lyapspec CLI.

    python3 bench/run.py --workload sweep --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36

Run from the root of a source checkout.  A workload is a fixed list of
CLI jobs on ``.cocycle`` files generated from the seed
(``bench/workloads.py``).  The jobs run in this process through
``lyapspec.cli.main``, one at a time, in a closed loop: the list is
repeated until the next repetition would overrun ``--seconds``.  Every
job loads its file itself, so the per-cocycle profile cache is filled
inside the job, as in a user's run.

The shared 2-vCPU machine this was built on runs identical work at
speeds up to ~1.8x apart, in phases from seconds to minutes long; CPU
time slows as much as wall time, so the slowdown is not time spent
descheduled.  A run that falls wholly in a slow phase would read as a
regression.  Every timed metric is therefore speed-normalised: a fixed
reference kernel (``reference_kernel``: small-matrix products, max-abs
renormalisation and singular values, as in lyapspec's profile sweeps,
but without lyapspec) is timed before every job and after the last,
and each job's wall time is scaled by ``REFERENCE_S`` over the mean of
the two kernel times around it.  A metric reads as seconds at the
machine speed on which the kernel takes ``REFERENCE_S``.  The kernel
does not use lyapspec, so a change to the program moves the metrics by
its full effect.  A timed metric sums, over the jobs it covers, the
median of each job's normalised time across the repetitions.  Raw wall
times are kept in the run record.  Set-up time is the median of several
set-ups in fresh child processes, each normalised by kernel runs just
before and after it.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports per-layer metrics (medians over traced
repetitions) from spans around every public lyapspec function
(``bench/tracing.py``) on every other repetition; the repetitions in
between run untraced and give the tracing overhead.  Outputs are
checked by ``bench/gate.py``; a failed check makes ``correct`` false
and the exit code 1.  ``--workload all`` runs every workload in its own
process and prints every end-to-end metric with its unit.

A run record (environment, #L_n per job, every repetition) is written
to ``bench/.work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")

WORKLOADS = ("sweep", "legendre", "certify")

#: commands whose summed job time is an end-to-end metric
TIMED_COMMANDS = ("pressure", "spectrum", "dominate", "subsystem")

#: number of set-ups measured per run, each in a fresh child process
SETUP_SAMPLES = 3

#: largest difference between a measured and a predicted layer share
#: that still counts as matching the prediction
SHARE_TOLERANCE = 0.10

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: seconds the reference kernel takes at the machine speed that the
#: timed metrics are normalised to (its fast-phase time on the machine
#: the benchmark was built on)
REFERENCE_S = 0.03


def reference_kernel() -> float:
    """Time a fixed amount of lyapspec-like work that uses numpy only:
    depth-first products of 3x3 matrices with max-abs renormalisation,
    log singular values at the leaves; returns seconds."""
    import numpy as np

    rng = np.random.default_rng(20221021)
    gens = [rng.standard_normal((3, 3)) for _ in range(3)]
    start = time.perf_counter()
    stack = [np.eye(3)]
    logs = [0.0]
    total = 0.0
    for word in range(1200):
        for depth in range(4):
            V = gens[(word >> depth) % len(gens)] @ stack[-1]
            nrm = np.abs(V).max()
            stack.append(V / nrm)
            logs.append(logs[-1] + np.log(nrm))
        total += logs[-1] + float(np.log(np.linalg.svd(stack[-1], compute_uv=False)[0]))
        del stack[1:], logs[1:]
    if not np.isfinite(total):
        raise FloatingPointError("reference kernel produced a non-finite value")
    return time.perf_counter() - start


def setup(workload: str, seed: int, workdir: str):
    """Import the program, generate and write the inputs, and run one
    untimed warm-up job; returns (jobs, seconds)."""
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import workloads
    from lyapspec import cli

    jobs = workloads.materialize(workload, seed, workdir)
    # the anchor spectrum job loads scipy's HiGHS solver, which every
    # process pays for once
    warm = next(j for j in jobs if j.label == "spectrum:diag")
    with _quiet():
        cli.main(warm.cli_argv())
    return jobs, time.perf_counter() - start


@contextlib.contextmanager
def _quiet():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


def run_job(job) -> tuple[int | None, float, str | None, str]:
    """Run one job; returns (exit code or None if it raised, seconds,
    CSV text if written, error text)."""
    from lyapspec import cli

    with contextlib.suppress(FileNotFoundError):
        os.remove(job.out)
    argv = job.cli_argv()
    error = ""
    start = time.perf_counter()
    try:
        with _quiet():
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed job, and the loop goes on
        code, error = None, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    csv_text = None
    if os.path.exists(job.out):
        with open(job.out) as fh:
            csv_text = fh.read()
    return code, elapsed, csv_text, error


class Loop:
    """Repeats a workload's job list and collects per-repetition
    timings, gate verdicts and failures."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.reference: list | None = None
        self.reps: list[dict] = []
        self.attempted = 0
        self.failures: list[dict] = []

    def repetition(self, tracer=None) -> dict:
        import gate

        results = []
        probes = [reference_kernel()]
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = i
            results.append(run_job(job))
            probes.append(reference_kernel())
        # the gate runs outside the timed region: the full check on the
        # first repetition, then byte equality with it
        first = self.reference is None
        if first:
            self.reference = [(code, gate.strip_wall_time(text) if text else None)
                              for code, _, text, _ in results]
        for job, (code, _, text, error), (ref_code, ref_text) in zip(
                self.jobs, results, self.reference):
            self.attempted += 1
            if code is None:
                errors = [error.strip().splitlines()[-1]]
            elif first:
                errors = gate.check_job(job, code, text)
            elif code != ref_code or (text and gate.strip_wall_time(text)) != ref_text:
                errors = ["output differs from the first repetition"]
            else:
                errors = []
            if errors:
                self.failures.append({"rep": len(self.reps), "job": job.label,
                                      "exit": code, "errors": errors})
        norm_s = [r[1] * 2 * REFERENCE_S / (before + after)
                  for r, before, after in zip(results, probes, probes[1:])]
        rep = {"wall_s": sum(r[1] for r in results), "job_s": [r[1] for r in results],
               "norm_s": norm_s, "probe_s": probes, "exit": [r[0] for r in results]}
        self.reps.append(rep)
        return rep

    def median_of(self, reps: list[dict], command: str | None = None) -> float:
        """Sum over the jobs (of one command, or all) of each job's
        median speed-normalised time across the given repetitions."""
        return sum(statistics.median(rep["norm_s"][i] for rep in reps)
                   for i, job in enumerate(self.jobs)
                   if command is None or job.command == command)

    def run_until(self, deadline: float):
        """Repeat until the next repetition would end after ``deadline``."""
        while True:
            start = time.perf_counter()
            self.repetition()
            took = time.perf_counter() - start
            if time.perf_counter() + took > deadline:
                return


def measure_setups(args) -> tuple[list[float], list[float]]:
    """Set-up seconds of SETUP_SAMPLES fresh child processes doing the
    same set-up as this one (a child pays for every import); returns
    (raw, speed-normalised) seconds, normalised by reference-kernel
    runs in this process just before and after each child."""
    raw, norm = [], []
    for _ in range(SETUP_SAMPLES):
        before = reference_kernel()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True)
        after = reference_kernel()
        seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        raw.append(seconds)
        norm.append(seconds * 2 * REFERENCE_S / (before + after))
    return raw, norm


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "commit": commit(),
        "seed": seed,
    }


def commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(args) -> int:
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}")
    jobs, _ = setup(args.workload, args.seed, workdir)
    setups, setups_norm = measure_setups(args)

    loop = Loop(jobs)
    start = time.perf_counter()
    deadline = start + args.seconds
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": environment(args.seed), "setup_s": setups,
              "setup_norm_s": setups_norm}
    if args.trace:
        from tracing import Tracer

        # traced and untraced repetitions alternate, so that the overhead
        # compares the two under the same machine load
        tracer = Tracer()
        tracer.record = True
        untraced, traced, windows = [], [], []
        while True:
            rep_start = time.perf_counter()
            if len(untraced) <= len(traced):
                untraced.append(loop.repetition())
            else:
                tracer.reset()
                tracer.install()
                try:
                    traced.append(loop.repetition(tracer))
                finally:
                    tracer.uninstall()
                windows.append(tracer.metrics())
                tracer.record = False
            took = time.perf_counter() - rep_start
            if traced and time.perf_counter() + took > deadline:
                break
        tracer.write_spans(os.path.join(workdir, "spans.csv"))
        metrics = {name: (statistics.median(w[name][0] for w in windows), unit)
                   for name, (_, unit) in windows[0].items()}
        overhead = loop.median_of(traced) / loop.median_of(untraced) - 1
        metrics["trace.overhead_frac"] = (overhead, "frac")
        record["span_counts"] = dict(tracer.span_counts())
        record["shares"] = compare_shares(args.workload, metrics)
    else:
        loop.run_until(deadline)
        metrics = {"wall_s": (loop.median_of(loop.reps), "s"),
                   "setup_s": (statistics.median(setups_norm), "s")}
        for cmd in TIMED_COMMANDS:
            metrics[f"{cmd}_s"] = (loop.median_of(loop.reps, cmd), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    failed = len(loop.failures)
    record.update(
        jobs=[{"job": j.label, "argv": j.cli_argv(), "words_L_n": j.words} for j in jobs],
        repetitions=loop.reps, failures=loop.failures,
        metrics={k: v[0] for k, v in metrics.items()},
        failed_frac=failed / loop.attempted)
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    walls = sorted(rep["wall_s"] for rep in loop.reps)
    print(f"workload {args.workload} seed {args.seed}: {len(loop.reps)} repetitions "
          f"of {len(jobs)} jobs, record {os.path.relpath(path, ROOT)}")
    print(f"repetition wall time: median {statistics.median(walls):.6g} s, "
          f"max {walls[-1]:.6g} s")
    for fail in loop.failures:
        print(f"FAILED job {fail['job']} repetition {fail['rep']} exit {fail['exit']}: "
              f"{'; '.join(fail['errors'])}")
    print(f"failed_frac {failed / loop.attempted:.6g} frac")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if args.trace:
        for mod, row in record["shares"].items():
            print(f"share {mod} measured {row['measured']:.3f} "
                  f"predicted {row['predicted']:.3f}"
                  f"{'' if row['match'] else '  MISMATCH'}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def compare_shares(workload: str, metrics: dict) -> dict:
    """Measured self-time share of each module against the shares
    recorded in ``bench/predictions.json``."""
    with open(os.path.join(BENCH, "predictions.json")) as fh:
        predicted = json.load(fh)["shares"][workload]
    out = {}
    for mod, share in predicted.items():
        measured = metrics[f"layer.{mod}.share"][0]
        out[mod] = {"measured": measured, "predicted": share,
                    "match": abs(measured - share) <= SHARE_TOLERANCE}
    return out


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    status = 0
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(f"{line}\n" for line in lines[:-1]))
        if proc.returncode != 0:
            status = 1
            sys.stdout.write(proc.stderr)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})")
            status = 1
    names = list(results)
    print()
    print("metric".ljust(41) + "unit".ljust(8) + "".join(n.rjust(14) for n in names))
    rows = {"failed_frac": ("frac", {n: r["failed"] / r["attempted"] for n, r in results.items()})}
    for n, r in results.items():
        for metric, v in r["metrics"].items():
            rows.setdefault(metric, (v["unit"], {}))[1][n] = v["value"]
    for metric, (unit, values) in rows.items():
        print(metric.ljust(41) + unit.ljust(8)
              + "".join(f"{values.get(n, float('nan')):14.6g}" for n in names))
    if any(not r["correct"] for r in results.values()):
        status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="measure one set-up and print its seconds (used by the "
                             "benchmark itself to sample set-up time)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lyapspec", "__init__.py")):
        print(f"error: no lyapspec sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        _, seconds = setup(args.workload, args.seed,
                           os.path.join(WORK, f"{args.workload}-{args.seed}-setup"))
        print(json.dumps({"setup_s": seconds}))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
