"""Trace shim: spans around the public functions of every ``lyapspec``
module, installed from outside the package.

Each wrapped function replaces every binding of the original, in its
defining module and in every module that imported it by name (for
example ``profile_matrix`` in ``pressure``, ``spectrum`` and
``domination``), so calls are traced whichever name they use.  Calls
between private helpers are not spans; their time is self time of the
public function that called them.

Spans carry an id, the id of the enclosing span and the job they
belong to.  Aggregates (calls, busy time, self time, counts) are kept
for every span; full span records are kept in memory only while
``record`` is on and written out by :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import weakref
from collections import Counter

MODULES = ("sft", "matalg", "cocycle", "pressure", "spectrum", "typicality",
           "domination", "cli")

#: matalg leaf helpers run on every word of every sweep; spans there
#: would triple the tracing cost of a sweep, and their time stays matalg
#: self time under their caller log_spectral_norm
NOT_TRACED = {"matalg.check_finite", "matalg.log_singular_values"}

#: calls to the first function counted only inside the second's span
UNDER = {
    "sft.is_admissible": "typicality.qm_search",
    "pressure.log_sn": "spectrum.legendre_entropy",
    "pressure.gibbs_gradient": "spectrum.legendre_entropy",
}

STATUSES = ("interior-converged", "boundary-suspect", "diverged")


def _profile_matrix(tracer, args, result, dur):
    # profile_matrix returns the cached array object on a hit, so a
    # result seen before is a hit; weak references let freed arrays go
    ref = tracer.seen.get(id(result))
    if ref is not None and ref() is result:
        tracer.counts["profile_matrix.hits"] += 1
        tracer.counts["profile_matrix.hit_s"] += dur
    else:
        tracer.seen[id(result)] = weakref.ref(result)
        tracer.counts["profile_matrix.misses"] += 1
        tracer.counts["profile_matrix.miss_s"] += dur
        tracer.counts["profile_matrix.words"] += len(result)


def _multicone_search(tracer, args, cert, dur):
    if cert is not None:
        tracer.counts["multicone.certified"] += 1
        tracer.counts["cone_checks"] += (len(cert.centers) * (cert.samples_per_ball + 1)
                                         * len(args[0]))


def _legendre_entropy(tracer, args, point, dur):
    tracer.counts[f"status.{point.status}"] += 1


HOOKS = {
    "cocycle.profile_matrix": _profile_matrix,
    "domination.multicone_search": _multicone_search,
    "spectrum.legendre_entropy": _legendre_entropy,
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [span id, seconds in child spans]
        self.active: Counter = Counter()
        self.seen: dict[int, weakref.ref] = {}
        self.record = False
        self.spans: list[tuple] = []
        self.job = -1
        self._next_id = 0
        self._undo: list[tuple] = []
        self.reset()

    def reset(self):
        """Start a new aggregation window (one benchmark iteration)."""
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()

    # -- installation -------------------------------------------------

    def install(self):
        mods = [importlib.import_module("lyapspec")]
        mods += [importlib.import_module(f"lyapspec.{m}") for m in MODULES]
        for mod in mods[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if (name.startswith("_") or fn.__module__ != mod.__name__
                        or f"{short}.{name}" in NOT_TRACED):
                    continue
                wrapper = self._wrap(f"{short}.{name}", fn)
                for other in mods:
                    for attr, val in list(vars(other).items()):
                        if val is fn:
                            setattr(other, attr, wrapper)
                            self._undo.append((other, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            # enumerate_words: its work happens while the caller iterates,
            # so count the words instead of timing the call
            @functools.wraps(fn)
            def generator(*args, **kw):
                self.calls[name] += 1
                for item in fn(*args, **kw):
                    self.counts[f"{name}.words"] += 1
                    yield item
            return generator

        hook = HOOKS.get(name)
        under = UNDER.get(name)
        stack, active = self.stack, self.active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if under is not None and active[under]:
                self.counts[f"{name}.under.{under}"] += 1
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.busy[name] += dur
                self.self_s[name] += dur - frame[1]
                if self.record:
                    self.spans.append((self.job, span_id, parent, name, t0, t1))
            if hook is not None:
                hook(self, args, result, dur)
            return result

        return wrapper

    # -- results --------------------------------------------------------

    def span_counts(self) -> Counter:
        return Counter(span[3] for span in self.spans)

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            fh.write("job,id,parent,name,start_s,end_s\n")
            for job, sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{job},{sid},{parent},{name},{t0:.9f},{t1:.9f}\n")

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(MODULES, 0.0)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the current window, name -> (value, unit)."""
        c, b, s, n = self.calls, self.busy, self.self_s, self.counts

        def ratio(a, z):
            return a / z if z else 0.0

        pm = "profile_matrix"
        legendre = "spectrum.legendre_entropy"
        m = {
            "cocycle.profile_matrix.misses": (n[f"{pm}.misses"], "count"),
            "cocycle.profile_matrix.hits": (n[f"{pm}.hits"], "count"),
            "cocycle.profile_matrix.words": (n[f"{pm}.words"], "count"),
            "cocycle.profile_matrix.miss_s": (n[f"{pm}.miss_s"], "s"),
            "cocycle.profile_matrix.hit_s": (n[f"{pm}.hit_s"], "s"),
            "cocycle.profile_matrix.words_per_s":
                (ratio(n[f"{pm}.words"], n[f"{pm}.miss_s"]), "1/s"),
            "cocycle.product.calls": (c["cocycle.product"], "count"),
            "cocycle.product.busy_s": (b["cocycle.product"], "s"),
            "matalg.log_spectral_norm.calls": (c["matalg.log_spectral_norm"], "count"),
            "matalg.log_spectral_norm.busy_s": (b["matalg.log_spectral_norm"], "s"),
            "matalg.wedge.calls": (c["matalg.wedge"], "count"),
            "matalg.wedge.busy_s": (b["matalg.wedge"], "s"),
            "sft.count_words.calls": (c["sft.count_words"], "count"),
            "sft.count_words.busy_s": (b["sft.count_words"], "s"),
            "sft.is_admissible.calls": (c["sft.is_admissible"], "count"),
            "sft.enumerate_words.words": (n["sft.enumerate_words.words"], "count"),
            "pressure.log_sn.calls": (c["pressure.log_sn"], "count"),
            "pressure.log_sn.self_s": (s["pressure.log_sn"], "s"),
            "pressure.gibbs_gradient.calls": (c["pressure.gibbs_gradient"], "count"),
            "pressure.gibbs_gradient.self_s": (s["pressure.gibbs_gradient"], "s"),
            "pressure.pressure_estimate.calls": (c["pressure.pressure_estimate"], "count"),
            "pressure.pressure_estimate.busy_s": (b["pressure.pressure_estimate"], "s"),
            "spectrum.legendre_entropy.calls": (c[legendre], "count"),
            "spectrum.legendre_entropy.self_s": (s[legendre], "s"),
            "spectrum.evals_per_point":
                (ratio(n[f"pressure.log_sn.under.{legendre}"], c[legendre]), "count"),
            "spectrum.grads_per_point":
                (ratio(n[f"pressure.gibbs_gradient.under.{legendre}"], c[legendre]), "count"),
            **{f"spectrum.status.{st}": (n[f"status.{st}"], "count") for st in STATUSES},
            "spectrum.in_hull.calls": (c["spectrum.in_hull"], "count"),
            "spectrum.in_hull.busy_s": (b["spectrum.in_hull"], "s"),
            "spectrum.domain_estimate.busy_s": (b["spectrum.domain_estimate"], "s"),
            "spectrum.oracle_count.busy_s": (b["spectrum.oracle_count"], "s"),
            "typicality.qm_search.busy_s": (b["typicality.qm_search"], "s"),
            "typicality.qm_search.triples":
                (n["sft.is_admissible.under.typicality.qm_search"], "count"),
            "typicality.qm_search.triples_per_s":
                (ratio(n["sft.is_admissible.under.typicality.qm_search"],
                       b["typicality.qm_search"]), "1/s"),
            "typicality.check_1typical.calls": (c["typicality.check_1typical"], "count"),
            "typicality.check_1typical.busy_s": (b["typicality.check_1typical"], "s"),
            "typicality.search_typical_pair.busy_s":
                (b["typicality.search_typical_pair"], "s"),
            "domination.domination_test.calls": (c["domination.domination_test"], "count"),
            "domination.domination_test.busy_s": (b["domination.domination_test"], "s"),
            "domination.multicone_search.calls": (c["domination.multicone_search"], "count"),
            "domination.multicone_search.busy_s": (b["domination.multicone_search"], "s"),
            "domination.multicone_search.certified": (n["multicone.certified"], "count"),
            "domination.cone_checks": (n["cone_checks"], "count"),
            "domination.build_dominated_subsystem.busy_s":
                (b["domination.build_dominated_subsystem"], "s"),
            "domination.subsystem_pressure.busy_s":
                (b["domination.subsystem_pressure"], "s"),
            "cli.load_cocycle.busy_s": (b["cli.load_cocycle"], "s"),
            "cli.write_csv.busy_s": (b["cli.write_csv"], "s"),
        }
        layers = self.layer_self()
        total = sum(layers.values())
        for mod, sec in layers.items():
            m[f"layer.{mod}.self_s"] = (sec, "s")
            m[f"layer.{mod}.share"] = (ratio(sec, total), "frac")
        return m
