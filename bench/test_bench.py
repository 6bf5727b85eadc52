"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".cocycle"):
            with open(os.path.join(directory, name)) as fh:
                out[name] = fh.read()
    return out


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, name):
    a = workloads.materialize(name, 7, str(tmp_path / "a"))
    b = workloads.materialize(name, 7, str(tmp_path / "b"))
    c = workloads.materialize(name, 8, str(tmp_path / "c"))
    files_a, files_b, files_c = (_files(str(tmp_path / x)) for x in "abc")
    assert files_a == files_b
    drawn = [f"{slot.name}.cocycle" for slot in workloads.workload(name)[0]]
    assert all(files_a[f] != files_c[f] for f in drawn)
    assert [(j.label, j.n, j.words) for j in a] == [(j.label, j.n, j.words) for j in b]
    # #L_n does not depend on the seed, so job sizes are comparable
    assert [j.words for j in a] == [j.words for j in c]


def _run_all(jobs, tracer=None):
    outputs = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        code, _, text, error = run.run_job(job)
        assert not error
        outputs.append((code, text and gate.strip_wall_time(text)))
    return outputs


def test_tracing_changes_no_output_and_span_counts_repeat(tmp_path):
    jobs = workloads.materialize("certify", 3, str(tmp_path))
    plain = _run_all(jobs)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        tracer.record = True
        try:
            traced = _run_all(jobs, tracer)
        finally:
            tracer.uninstall()
        assert traced == plain
        counts.append(tracer.span_counts())
    assert counts[0] == counts[1]
    assert counts[0]["cli.main"] == len(jobs)
    assert counts[0]["cocycle.profile_matrix"] > 0


def _pressure_job(tmp_path, name, slot):
    jobs = workloads.materialize(name, 5, str(tmp_path))
    job = next(j for j in jobs if j.command == "pressure" and j.slot == slot)
    code, _, text, _ = run.run_job(job)
    assert code == 0
    return job, text


def _perturb(text, q, delta):
    """Add delta to the P_n cell of the row whose q columns equal q."""
    lines = text.splitlines()
    header = next(line for line in lines if not line.startswith("#")).split(",")
    col = header.index("P_n")
    for i, line in enumerate(lines):
        cells = line.split(",")
        if line.startswith("#") or cells == header:
            continue
        if [float(x) for x in cells[:len(q)]] == q:
            cells[col] = repr(float(cells[col]) + delta)
            lines[i] = ",".join(cells)
            return "\n".join(lines)
    raise AssertionError(f"no row at q={q}")


@pytest.mark.parametrize("q", [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0]])
def test_gate_rejects_perturbed_pressure_cell(tmp_path, q):
    job, text = _pressure_job(tmp_path, "certify", "k2d2")
    assert gate.check_job(job, 0, text) == []
    assert gate.check_job(job, 0, _perturb(text, q, 1e-6))


def test_gate_rejects_perturbed_diagonal_anchor(tmp_path):
    job, text = _pressure_job(tmp_path, "sweep", "diag")
    assert gate.check_job(job, 0, text) == []
    assert gate.check_job(job, 0, _perturb(text, [2.0, -1.0], 1e-7))


def test_gate_rejects_undocumented_exit_codes(tmp_path):
    job, text = _pressure_job(tmp_path, "certify", "k2d2")
    for code in (2, 3, 4, 8):
        assert gate.check_job(job, code, text)
    for code in (1, 5, 6, 7):
        assert gate.check_job(job, code, None) == []


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    with open(tmp_path / "BENCHMARK.json") as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(command + ["--workload", "sweep", "--seed", "1",
                                     "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_normalisation_cancels_a_uniform_slowdown(tmp_path, monkeypatch):
    """A slowdown that stretches the jobs and the reference kernel alike
    leaves every timed metric where it was."""
    jobs = workloads.materialize("certify", 3, str(tmp_path))[:2]
    clock = {"now": 0.0, "factor": 1.0}
    costs = {jobs[0].label: 0.4, jobs[1].label: 0.1}

    def fake_run_job(job):
        seconds = costs[job.label] * clock["factor"]
        return 0, seconds, None, ""

    monkeypatch.setattr(run, "run_job", fake_run_job)
    monkeypatch.setattr(run, "reference_kernel", lambda: run.REFERENCE_S * clock["factor"])
    monkeypatch.setattr(gate, "check_job", lambda job, code, text: [])
    loop = run.Loop(jobs)
    for factor in (1.0, 1.7, 1.7, 1.0, 1.7):
        clock["factor"] = factor
        loop.repetition()
    assert loop.median_of(loop.reps) == pytest.approx(0.5)
    assert loop.median_of(loop.reps, "typical") == pytest.approx(costs[jobs[0].label])
    assert [rep["wall_s"] for rep in loop.reps][1] == pytest.approx(0.85)
