"""Seeded cocycle generation and the fixed job list of each workload.

A job is one ``lyapspec`` CLI invocation on a generated ``.cocycle``
file.  The program only ever sees the written files; the in-memory
cocycles are kept for the correctness gate.

Job cost must be comparable across seeds, because the benchmark
compares medians over runs with different seeds:

* Every random transition matrix has the same number ``r`` of ones in
  each row, so #L_n = k * r**(n-1) for every seed and the profile
  sweeps, word enumerations and QM triple loops do the same amount of
  work whatever the draw; ``sweep`` also fixes the mixing rate, which
  sets the lengths that ``pressure`` sweeps.
* ``sweep`` costs do not depend on the generator values, so it draws
  free Gaussian generators.
* The Legendre solver's iteration counts, the multicone cover and the
  typicality/padding searches do depend on the generator geometry
  (free Gaussian draws changed single jobs by 100x).  ``legendre`` and
  ``certify`` therefore draw each cocycle as a fixed reference family
  (Gaussian, from a constant seed) in a seeded random orthonormal frame
  with a seeded relative Gaussian perturbation.  Conjugating by an
  orthogonal matrix leaves every singular value of every word product
  unchanged, so the seed changes every input number while the
  thermodynamic behaviour, and hence the work, stays comparable.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from lyapspec import cli, matalg, sft
from lyapspec.cocycle import OneStepCocycle

#: seeds the reference families of ``legendre`` and ``certify``
REFERENCE_SEED = 2210_11574

#: relative size of the seeded perturbation of a reference generator
PERTURBATION = 1e-4

#: sweep lengths: the largest n with #L_n at most this many words
SWEEP_TARGET_WORDS = 4096


@dataclass(frozen=True)
class Slot:
    """One generated cocycle: alphabet k, dimension d, r ones per row of Q.

    ``free`` draws free Gaussian generators; otherwise the generators
    are the reference family of ``ref`` in a seeded frame, made
    entrywise positive (|g| + 0.1) first when ``positive`` is set, so
    that the cocycle is dominated and the cone and subsystem searches
    succeed.
    ``self_loop`` requires Q[1,1] = 1, which ``typical`` and
    ``subsystem`` need for a fixed symbol.  ``mixing`` fixes the mixing
    rate m of a random Q: the QM search first finds connectors at length
    m - 1, and ``pressure`` sweeps the extra length n - (m - 1) for its
    lower bracket, so m sets how much a job sweeps.
    """

    name: str
    k: int
    d: int
    r: int
    free: bool = False
    ref: int = 0
    positive: bool = False
    self_loop: bool = False
    mixing: int | None = None


@dataclass
class Job:
    """One CLI call.  ``argv`` holds ``{file}``/``{n}``/``{out}``/``{sub}``
    placeholders, filled in from the fields that :func:`materialize` sets.

    ``n`` is the job's word-length flag (``--n``, or ``--n-max`` of
    ``dominate``, or ``--search-depth`` of ``typical``); ``words`` maps
    each length the job enumerates to #L_n.
    """

    command: str
    slot: str
    argv: list[str]
    n: int | None = None
    words: dict[int, int] | None = None
    path: str = ""
    out: str | None = None
    sub: str | None = None
    cocycle: OneStepCocycle | None = field(default=None, repr=False)

    @property
    def label(self) -> str:
        return f"{self.command}:{self.slot}"

    def cli_argv(self) -> list[str]:
        return [a.format(file=self.path, n=self.n, out=self.out, sub=self.sub)
                for a in self.argv]


def random_transition(rng, k: int, r: int, self_loop: bool = False,
                      mixing: int | None = None) -> sft.TransitionMatrix:
    """Uniform 0/1 matrix with r ones per row, redrawn until primitive
    (with the given mixing rate, if any)."""
    while True:
        Q = np.zeros((k, k), dtype=np.int64)
        for i in range(k):
            Q[i, rng.choice(k, size=r, replace=False)] = 1
        if self_loop and not Q[0, 0]:
            continue
        try:
            T = sft.validate(Q)
        except ValueError:
            continue
        if mixing is None or T.mixing_rate == mixing:
            return T


def gaussian_generators(rng, k: int, d: int) -> list[np.ndarray]:
    """k standard Gaussian d x d matrices, redrawn until invertible."""
    gens = []
    while len(gens) < k:
        A = rng.standard_normal((d, d))
        if matalg.is_invertible(A):
            gens.append(A)
    return gens


def orthogonal_frame(rng, d: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix (QR with sign correction)."""
    Z, R = np.linalg.qr(rng.standard_normal((d, d)))
    return Z * np.sign(np.diag(R))


def make_cocycle(slot: Slot, rng) -> OneStepCocycle:
    if slot.free:
        Q = random_transition(rng, slot.k, slot.r, slot.self_loop, slot.mixing)
        return OneStepCocycle(Q=Q, generators=gaussian_generators(rng, slot.k, slot.d))
    ref = np.random.default_rng([REFERENCE_SEED, slot.ref])
    Q = random_transition(ref, slot.k, slot.r, slot.self_loop)
    base = gaussian_generators(ref, slot.k, slot.d)
    if slot.positive:
        base = [np.abs(A) + 0.1 for A in base]
    O = orthogonal_frame(rng, slot.d)
    gens = []
    for A in base:
        while True:
            B = A + PERTURBATION * np.abs(A).max() * rng.standard_normal(A.shape)
            if matalg.is_invertible(B):
                gens.append(O @ B @ O.T)
                break
    return OneStepCocycle(Q=Q, generators=gens)


def diagonal_anchor() -> OneStepCocycle:
    """Commuting diagonal cocycle on the full 2-shift:
    P_n(q) = log(2**(q1-q2) + 3**(q1-q2)) for every n."""
    return OneStepCocycle(Q=sft.full_shift(2),
                          generators=[np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0])])


def positive_anchor() -> OneStepCocycle:
    """Full 2-shift with diag(2, 1) and [[1, 1], [1, 2]]: typical and
    dominated, so ``subsystem`` builds a subsystem on it."""
    return OneStepCocycle(Q=sft.full_shift(2),
                          generators=[np.diag([2.0, 1.0]), np.array([[1.0, 1.0], [1.0, 2.0]])])


def largest_n(Q: sft.TransitionMatrix, target: int) -> int:
    n = 1
    while sft.count_words(Q, n + 1) <= target:
        n += 1
    return n


ANCHORS = {"diag": diagonal_anchor, "pos": positive_anchor}

QM_SHALLOW = ["--qm-depth", "2", "--qm-connect", "2"]
QM_DEEP = ["--qm-depth", "3", "--qm-connect", "3"]


def _pressure(slot, n, q="-1:1:1", qm=QM_SHALLOW):
    return Job("pressure", slot, ["pressure", "{file}", f"--q={q}", "--n", "{n}",
                                  *qm, "--out", "{out}"], n=n)


def _spectrum(slot, n, grid):
    return Job("spectrum", slot, ["spectrum", "{file}", "--auto-grid", str(grid),
                                  "--n", "{n}", "--oracle", *QM_SHALLOW,
                                  "--out", "{out}"], n=n)


def _subsystem(slot, n=6):
    return Job("subsystem", slot, ["subsystem", "{file}", "--base-n", "2", "--n", "{n}",
                                   *QM_SHALLOW, "--subsystem-out", "{sub}",
                                   "--out", "{out}"], n=n)


def _dominate(slot, n_max=8):
    return Job("dominate", slot, ["dominate", "{file}", "--cone", "--n-max", "{n}"], n=n_max)


def _anchor_jobs() -> list[Job]:
    """Fixed anchors, one job per timed command, so that every workload
    reports every per-command metric: the closed-form diagonal cocycle,
    and the positive cocycle for ``subsystem``, which needs a typical
    pair that the diagonal cocycle lacks."""
    return [
        _pressure("diag", 12, q="-2:2:1"),
        _spectrum("diag", 10, 21),
        _dominate("diag"),
        _subsystem("pos"),
    ]


def workload(name: str) -> tuple[list[Slot], list[Job]]:
    """Slots and the fixed job list of a workload (n of sweep jobs is
    resolved in :func:`materialize`, once Q is known)."""
    if name == "sweep":
        # one long cold sweep per job, across shapes where a batched
        # profile engine may win or lose differently
        slots = [Slot(f"k{k}d{d}", k, d, r, free=True, mixing=m)
                 for k, d, r, m in [(2, 2, 2, 1), (3, 3, 2, 2), (4, 2, 2, 3), (2, 4, 2, 1)]]
        jobs = [_pressure(s.name, None) for s in slots]
    elif name == "legendre":
        # one cheap sweep miss, then thousands of cache-hit log_sn and
        # gradient calls from the Legendre solver
        slots = [Slot(f"k{k}d{d}", k, d, r, ref=i)
                 for i, (k, d, r) in enumerate([(2, 2, 2), (3, 2, 2), (2, 3, 2), (3, 3, 2)])]
        jobs = [_spectrum(s.name, 10, 41) for s in slots]
    elif name == "certify":
        # many short cold sweeps (n = 2..12), QM triples, sampled cone
        # verification and the padding search
        slots = [Slot(f"k{k}d{d}", k, d, 2, ref=ref, positive=True, self_loop=True)
                 for k, d, ref in [(2, 2, 100), (3, 2, 103), (3, 3, 101)]]
        jobs = []
        for s in slots:
            jobs += [Job("typical", s.name, ["typical", "{file}", "--search-depth", "{n}"],
                         n=3),
                     _pressure(s.name, 8, qm=QM_DEEP)]
            if s.d == 2:
                jobs.append(_dominate(s.name))
            if s.k == 2:
                # at k = 3 the 6 base words give 6**6-word block sweeps
                # per padding candidate, one job as long as the rest
                jobs.append(_subsystem(s.name))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return slots, jobs + _anchor_jobs()


def materialize(name: str, seed: int, workdir: str) -> list[Job]:
    """Generate the workload's cocycles from the seed, write them to
    ``workdir`` and return its jobs with paths, n and #L_n filled in."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    slots, jobs = workload(name)
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    cocycles = {slot.name: make_cocycle(slot, rng) for slot in slots}
    cocycles.update((key, make()) for key, make in ANCHORS.items())
    for key, c in cocycles.items():
        cli.write_cocycle(os.path.join(workdir, f"{key}.cocycle"), c,
                          comment=f"bench {name} seed {seed} slot {key}")
    for i, job in enumerate(jobs):
        job.cocycle = cocycles[job.slot]
        job.path = os.path.join(workdir, f"{job.slot}.cocycle")
        job.out = os.path.join(workdir, f"job{i}.csv")
        job.sub = os.path.join(workdir, f"job{i}.sub.cocycle")
        if job.command == "pressure" and job.n is None:
            job.n = largest_n(job.cocycle.Q, SWEEP_TARGET_WORDS)
        swept = {"dominate": range(2, job.n + 1), "typical": range(1, job.n + 1)}
        job.words = {m: sft.count_words(job.cocycle.Q, m)
                     for m in swept.get(job.command, [job.n])}
    return jobs
