"""Per-layer tracing of the program, installed from outside it.

`install()` replaces chosen functions of the `radical_ram` modules with
wrappers that record spans (timed calls) or counts.  A name bound by
`from .chartab import character_table` lives in every importing module, so
each wrapper is patched into every module namespace that holds the
original object; `CycInt.reduce` is patched on the class.  A name the
program no longer has is skipped and listed in `Tracer.missing`; its
metrics then read 0.

Spans are kept in memory, per thread, and summarised (and optionally
written out) once the batch ends.  Spans opened by `build_report`'s worker
threads have no parent on their own thread, so they are attributed to the
`build_report` span that started the pool.  Leaf functions called millions
of times are counted without timing.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from time import perf_counter

MODULES = ["cli", "ramfil", "conductor", "chartab", "holomorph", "arith", "oracle", "_kernels"]

# (home module, attribute, metric stem, layer, nesting group).  Timed
# spans; `.s` metrics are inclusive times of outermost spans per group.
# factorint's time is sympy's, so its layer keeps it out of ramfil.self_s.
TIMED = [
    ("cli", "main", "cli.main", "cli", None),
    ("cli", "build_report", "cli.build_report", "cli", None),
    ("cli", "prime_block", "cli.prime_block", "cli", None),
    ("cli", "canonical_json", "cli.canonical_json", "cli", None),
    ("cli", "chartab_payload", "cli.chartab_payload", "cli", None),
    ("cli", "verify_sweep", "cli.verify_sweep", "cli", None),
    ("ramfil", "validate", "ramfil.validate", "ramfil", None),
    ("ramfil", "factorint", "ramfil.factorint", "sympy", None),
    ("ramfil", "global_ram", "ramfil.global_ram", "ramfil", None),
    ("ramfil", "upper_filtration", "ramfil.upper_filtration", "ramfil", "ramfil.filtration"),
    ("ramfil", "lower_filtration", "ramfil.lower_filtration", "ramfil", "ramfil.filtration"),
    ("ramfil", "ramification_checks", "ramfil.ramification_checks", "ramfil", None),
    ("conductor", "conductor_table", "conductor.conductor_table", "conductor", None),
    ("conductor", "conductor_json", "conductor.conductor_json", "conductor", None),
    ("conductor", "conductor_checks", "conductor.conductor_checks", "conductor", None),
    ("chartab", "character_table", "chartab.character_table", "chartab", None),
    ("chartab", "char_value", "chartab.char_value", "chartab", None),
    ("chartab", "value_profiles", "chartab.value_profiles", "chartab", None),
    ("holomorph", "all_classes", "holomorph.all_classes", "holomorph", None),
    ("oracle", "verification_report", "oracle.verification_report", "oracle", None),
    ("oracle", "orbit_partition_check", "oracle.orbit_partition", "oracle", None),
    ("oracle", "orthogonality_check", "oracle.row_orthogonality", "oracle", None),
    ("oracle", "frobenius_induction_check", "oracle.frobenius_induction", "oracle", None),
    ("oracle", "_lift_check_detail", "oracle.quotient_lift", "oracle", None),
    ("oracle", "_kernel_trivial_census", "oracle.kernel_census", "oracle", None),
    ("oracle", "null_subgroup_scan_check", "oracle.null_subgroup_scan", "oracle", None),
    ("_kernels", "orbit_roots", "kernels.orbit_roots", "kernels", None),
]

# Counted only: (home module, attribute, metric stem).
COUNTED = [
    ("conductor", "artin_conductor", "conductor.artin_conductor"),
    ("chartab", "subgroup_normal_form", "chartab.subgroup_normal_form"),
    ("holomorph", "conj_class_of", "holomorph.conj_class_of"),
    ("arith", "vp", "arith.vp"),
]

# lru_cache'd functions whose hit ratio is reported.
CACHED = [("chartab", "character_table", "chartab.character_table"),
          ("holomorph", "all_classes", "holomorph.all_classes")]

REDUCE = "arith.cycint_reduce"


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.active = {}
        self.spans = []
        self.counts = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._ids = itertools.count(1)
        self.pool_parent = None
        self.missing = []
        self._cache_base = {}
        self._cached = {}

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    # -- wrappers -------------------------------------------------------

    def timed(self, fn, stem, layer, group, pool_root=False, on_result=None, on_call=None):
        group = group or stem

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            sid = next(self._ids)
            parent = st.stack[-1] if st.stack else self.pool_parent
            outer = not st.active.get(group)
            st.active[group] = st.active.get(group, 0) + 1
            st.stack.append(sid)
            if pool_root:
                saved, self.pool_parent = self.pool_parent, sid
            if on_call is not None:
                on_call(st.counts, args)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.stack.pop()
                st.active[group] -= 1
                if pool_root:
                    self.pool_parent = saved
                st.spans.append((sid, parent, stem, layer, group, outer, t0, t1))
            if on_result is not None:
                on_result(st.counts, result)
            return result

        return wrapper

    def counted(self, fn, stem):
        key = stem + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            c = self._state().counts
            c[key] = c.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- summary --------------------------------------------------------

    def spans(self):
        out = []
        for st in self._states:
            out.extend(st.spans)
        return out

    def counts(self):
        total = {}
        for st in self._states:
            for k, v in st.counts.items():
                total[k] = total.get(k, 0) + v
        return total

    def cache_deltas(self):
        out = {}
        for stem, fn in self._cached.items():
            info, base = fn.cache_info(), self._cache_base[stem]
            out[stem] = (info.hits - base.hits, info.misses - base.misses)
        return out

    def summary(self):
        """Per-layer metrics of everything traced since install()."""
        spans = self.spans()
        counts = self.counts()
        m = {}

        def add(key, v):
            m[key] = m.get(key, 0) + v

        children = {}
        for sid, parent, stem, layer, group, outer, t0, t1 in spans:
            add(stem + ".calls", 1)
            if outer:
                add(group + ".s", t1 - t0)
            if parent is not None:
                children.setdefault(parent, []).append((t0, t1))
        for sid, parent, stem, layer, group, outer, t0, t1 in spans:
            covered = _union_within(children.get(sid, ()), t0, t1)
            add(layer + ".self_s", (t1 - t0) - covered)
        for k, v in counts.items():
            add(k, v)
        for stem, (hits, misses) in self.cache_deltas().items():
            m[stem + ".hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        build = m.get("cli.build_report.s", 0.0)
        m["cli.pool_overlap"] = m.get("cli.prime_block.s", 0.0) / build if build else 0.0
        scanned = m.get(REDUCE + ".scanned", 0)
        m[REDUCE + ".useful_ratio"] = m.get(REDUCE + ".nonzero", 0) / scanned if scanned else 0.0
        return m

    def write_spans(self, path):
        """One JSON list per span: [id, parent id, name, start s, end s]."""
        with open(path, "w") as fh:
            for sid, parent, stem, layer, group, outer, t0, t1 in sorted(self.spans()):
                fh.write(json.dumps([sid, parent, stem, round(t0, 7), round(t1, 7)]) + "\n")


def _union_within(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _count_checks(counts, report):
    for row in report.get("checks", ()):
        key = {"pass": "oracle.checks_passed", "skipped": "oracle.checks_skipped"}.get(row.get("status"))
        if key:
            counts[key] = counts.get(key, 0) + 1


def _count_reduce(counts, args):
    coeffs = args[0].coeffs
    counts[REDUCE + ".scanned"] = counts.get(REDUCE + ".scanned", 0) + len(coeffs)
    counts[REDUCE + ".nonzero"] = counts.get(REDUCE + ".nonzero", 0) + len(coeffs) - coeffs.count(0)


def install():
    """Patch the wrappers into the imported program; returns the Tracer."""
    tracer = Tracer()
    mods = {name: importlib.import_module(f"radical_ram.{name}") for name in MODULES}
    namespaces = list(mods.values()) + [importlib.import_module("radical_ram")]

    def patch(home, attr, make):
        orig = getattr(mods[home], attr, None)
        if orig is None:
            tracer.missing.append(f"{home}.{attr}")
            return None
        wrapped = make(orig)
        for ns in namespaces:
            if getattr(ns, attr, None) is orig:
                setattr(ns, attr, wrapped)
        return orig

    for home, attr, stem in CACHED:
        fn = getattr(mods[home], attr, None)
        if fn is not None and hasattr(fn, "cache_info"):
            tracer._cached[stem] = fn
            tracer._cache_base[stem] = fn.cache_info()
    for home, attr, stem, layer, group in TIMED:
        patch(home, attr, lambda f, s=stem, ly=layer, g=group: tracer.timed(
            f, s, ly, g,
            pool_root=s == "cli.build_report",
            on_result=_count_checks if s == "oracle.verification_report" else None))
    for home, attr, stem in COUNTED:
        patch(home, attr, lambda f, s=stem: tracer.counted(f, s))

    cyc = getattr(mods["arith"], "CycInt", None)
    if cyc is not None and hasattr(cyc, "reduce"):
        cyc.reduce = tracer.timed(cyc.reduce, REDUCE, "arith", None, on_call=_count_reduce)
    else:
        tracer.missing.append("arith.CycInt.reduce")
    return tracer
