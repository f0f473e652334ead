"""Span tracing of hexad's layers from outside the package.

`Tracer.install()` replaces each traced function with a wrapper that
records a span (name, start, end, parent span, job id).  A function bound
by `from .exactalg import rational_solve` lives under that name in every
module that imports it, so the wrapper is rebound in each of them; methods
are wrapped on their classes.  Spans stay in memory until the run writes
them out, and `uninstall()` puts the original objects back.

Span and metric names are `<module>.<qualified name>`; the module is the
layer.  `layer_metrics()` turns the spans and counters of a set of jobs
into the per-layer metrics the benchmark prints.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

MODULES = ("exactalg", "simplicial", "sampling", "plforms", "hscomplex",
           "cone", "report", "hexagon", "cli")

HEXAGON_CHECKS = ("validate", "dhat_square", "cone_square", "derham_whitney",
                  "character_compat", "faces", "main_diagonal",
                  "induced_hexagon", "bunke_schick", "off_diagonal_note")

# (module, attribute path, counters); "Class.method" wraps a method, a bare
# class name wraps its constructor.
TARGETS = (
    ("exactalg", "rational_solve", ("entries", "repeat", "none")),
    ("exactalg", "smith_form", ("entries", "repeat")),
    ("exactalg", "hnf_solve", ()),
    ("exactalg", "kernel_basis", ()),
    ("exactalg", "rational_rank", ()),
    ("exactalg", "rational_kernel", ()),
    ("exactalg", "quotient_group", ()),
    ("exactalg", "MixedSolver", ()),
    ("exactalg", "MixedSolver.membership", ("hit",)),
    ("simplicial", "SimplicialComplex", ()),
    ("simplicial", "load_complex", ()),
    ("simplicial", "cohomology", ()),
    ("sampling", "random_combination", ()),
    ("sampling", "random_cochain", ()),
    ("hexagon", "HexagonContext", ()),
    ("hexagon", "witness_R_surjective", ()),
    ("hexagon", "witness_I_surjective", ()),
    ("hexagon", "OmegaDecomposer.decompose", ()),
    ("cone", "cone_cocycle_generators", ()),
    ("cone", "ConeCoboundarySolver.solve", ()),
    ("cone", "cone_cohomology_compare", ()),
    ("cone", "les_exactness", ()),
    ("hscomplex", "dhat", ()),
    ("hscomplex", "CoboundarySolver.solve", ()),
    ("hscomplex", "evaluate_character", ()),
    ("plforms", "find_primitive", ()),
    ("plforms", "in_omega_A", ()),
    ("plforms", "period_vector", ()),
    ("plforms", "derham_representative", ()),
    ("cli", "main", ()),
) + tuple(("hexagon", "check_" + c, ()) for c in HEXAGON_CHECKS)

# constructions counted without a span: there are ~10^5 per job
COUNTED = (("simplicial", "Cochain"),)
COUNTED_KEYS = frozenset("%s.%s.calls" % c for c in COUNTED)

# computed from the whole run rather than summed over spans
RUN_METRICS = ("trace.coverage", "report.witnesses", "trace.overhead_frac")

START, END, PARENT, JOB = 1, 2, 3, 4


def span_name(module, attr):
    if attr.startswith("check_"):
        return "%s.check.%s" % (module, attr[len("check_"):])
    return "%s.%s" % (module, attr)


class Tracer:
    """Spans and counters of the jobs run while it is installed; `job` is
    the id stamped on each new span."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(int))
        self.job = None
        self._stack = []
        self._seen = defaultdict(set)
        self._restore = []
        self.witness_type = None

    # -- installation -----------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module("hexad." + m) for m in MODULES}
        binders = list(mods.values()) + [importlib.import_module("hexad")]
        self.witness_type = mods["exactalg"].MixedWitness
        for module, attr, counters in TARGETS:
            owner, _, method = attr.partition(".")
            name = span_name(module, attr)
            obj = getattr(mods[module], owner)
            if isinstance(obj, type):
                self._wrap_method(obj, method or "__init__", name, counters)
            else:
                self._rebind(binders, obj, self._wrapper(name, obj, counters))
        for module, cls_name in COUNTED:
            cls = getattr(mods[module], cls_name)
            self._wrap_counted(cls, "%s.%s.calls" % (module, cls_name))

    def uninstall(self):
        for holder, attr, orig in reversed(self._restore):
            setattr(holder, attr, orig)
        self._restore.clear()

    def _rebind(self, binders, orig, wrapped):
        for mod in binders:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def _wrap_method(self, cls, method, name, counters):
        orig = cls.__dict__[method]
        self._restore.append((cls, method, orig))
        setattr(cls, method, self._wrapper(name, orig, counters))

    def _wrap_counted(self, cls, key):
        orig = cls.__init__
        tracer = self

        def init(*args, **kwargs):
            tracer.counters[tracer.job][key] += 1
            orig(*args, **kwargs)

        self._restore.append((cls, "__init__", orig))
        cls.__init__ = init

    def _wrapper(self, name, fn, counters):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        count_entries = "entries" in counters
        count_repeat = "repeat" in counters
        count_none = "none" in counters
        count_hit = "hit" in counters

        def wrapped(*args, **kwargs):
            job = tracer.job
            if counters:
                c = tracer.counters[job]
                if count_entries:
                    c[name + ".entries"] += args[0].rows * args[0].cols
                if count_repeat:
                    seen = tracer._seen[job, name]
                    if args[0] in seen:
                        c[name + ".repeats"] += 1
                    else:
                        seen.add(args[0])
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, job]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if count_none and result is None:
                tracer.counters[job][name + ".none"] += 1
            if count_hit and isinstance(result, tracer.witness_type):
                tracer.counters[job][name + ".hits"] += 1
            return result

        return wrapped


# ---------------------------------------------------------------------------
# aggregation

def metric_names():
    """Every per-layer metric name, in order.

    layer_metrics() reports all but `report.witnesses` and
    `trace.overhead_frac`, which need the reports and the untraced run.
    """
    names = []
    for module, attr, counters in TARGETS:
        name = span_name(module, attr)
        if attr.startswith("check_"):
            names.append(name + ".total_s")
            continue
        if name == "cli.main":
            continue
        names += [name + ".calls", name + ".total_s"]
        if "entries" in counters:
            names.append(name + ".entries")
        if "repeat" in counters:
            names.append(name + ".repeat_frac")
        if "none" in counters:
            names.append(name + ".none_frac")
        if "hit" in counters:
            names.append(name + ".hit_frac")
    names += sorted(COUNTED_KEYS)
    names += ["%s.self_s" % m for m in MODULES if m != "report"]
    return names + list(RUN_METRICS)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counters, jobs):
    """Per-layer metrics over the spans and counters of the given job ids.

    `.total_s` sums the spans of a name that no span of the same name
    encloses; `<module>.self_s` sums span time minus the time of the
    span's direct children.  `trace.coverage` is the smallest share of a
    job's `cli.main` span covered by the spans directly below it.
    """
    jobs = set(jobs)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    child_time = defaultdict(float)
    for rec in spans:
        if rec[JOB] in jobs and rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    coverage = []
    for idx, rec in enumerate(spans):
        if rec[JOB] not in jobs:
            continue
        name = rec[0]
        dur = rec[END] - rec[START]
        calls[name] += 1
        parent = rec[PARENT]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            total[name] += dur
        self_s[name.split(".", 1)[0]] += dur - child_time[idx]
        if name == "cli.main":
            coverage.append(_ratio(child_time[idx], dur))
    count = defaultdict(int)
    for job in jobs:
        for key, value in counters.get(job, {}).items():
            count[key] += value
    out = {}
    for name in metric_names():
        if name in RUN_METRICS:
            continue
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = count[name] if name in COUNTED_KEYS else calls[base]
        elif kind == "total_s":
            out[name] = total[base]
        elif kind == "self_s":
            out[name] = self_s[base]
        elif kind == "entries":
            out[name] = count[name]
        elif kind == "repeat_frac":
            out[name] = _ratio(count[base + ".repeats"], calls[base])
        elif kind == "none_frac":
            out[name] = _ratio(count[base + ".none"], calls[base])
        elif kind == "hit_frac":
            out[name] = _ratio(count[base + ".hits"], calls[base])
    out["trace.coverage"] = min(coverage) if coverage else 0.0
    return out
