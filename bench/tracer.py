"""Spans and counters around fiberfull's public functions, installed from
outside the library.

Modules import each other's functions by name (``from .groebner import
buchberger``), so a wrapper replaces the function object under every name
that refers to it in every ``fiberfull`` module namespace.  Leaf operations
(field arithmetic, order keys, monomial helpers) are counted, not timed:
they run millions of times and a span each would swamp the measurement.

A span is ``(name, start, end, parent span index, instance id)``.  Self time
is a span's duration minus the durations of its direct children; with one
thread, children nest inside their parent, so that is the uncovered part.
"""

import importlib
import sys
import time
from collections import Counter, defaultdict

# module -> public functions that get a span
SPANNED = {
    "parser": ("parse_input",),
    "cli": ("run_command",),
    "groebner": ("buchberger", "module_kernel", "normal_form", "saturate", "colon",
                 "contract_to_parameter", "weight_vector_for", "homogenize_omega"),
    "resolution": ("free_resolution",),
    "ext": ("local_cohomology_tables", "ext_modules", "hilbert_function"),
    "hilbert": ("hilbert_from_leads", "monomial_quotient_counts"),
    "hochster": ("hochster_hilbert",),
    "linalg": ("matrix_rank",),
    "fiberfull": ("verify_degeneration", "fiber_full_check", "fiber_full_locus",
                  "parameter_torsion"),
}

# (module, class or None, attribute, counter name): call counts only
LEAVES = (
    ("orders", "TermOrder", "key", "orders.key.calls"),
    ("orders", "TOPOrder", "key", "orders.module_key.calls"),
    ("orders", "SchreyerOrder", "key", "orders.module_key.calls"),
    ("orders", "BlockTOPOrder", "key", "orders.module_key.calls"),
    ("fields", "RationalField", "mul", "fields.mul.calls"),
    ("fields", "PrimeField", "mul", "fields.mul.calls"),
    ("fields", "RationalField", "add", "fields.add.calls"),
    ("fields", "PrimeField", "add", "fields.add.calls"),
    ("fields", "RationalField", "inv", "fields.inv.calls"),
    ("fields", "PrimeField", "inv", "fields.inv.calls"),
    ("rings", None, "mon_divides", "rings.mon_divides.calls"),
    ("rings", None, "mon_mul", "rings.mon_mul.calls"),
)


def _resolution_ranks(args, kwargs, result, counts):
    minimize = kwargs.get("minimize", args[1] if len(args) > 1 else True)
    key = "resolution.minimal_rank_sum" if minimize else "resolution.frame_rank_sum"
    counts[key] += sum(result.ranks())


def _torsion(args, kwargs, result, counts):
    counts["fiberfull.torsion_generators"] += len(result.torsion_generators)
    counts["fiberfull.nonunit_certificates"] += not result.annihilator.is_constant()


def _ext_sizes(args, kwargs, result, counts):
    counts["ext.ext_rank_sum"] += sum(e.ambient.rank for e in result)
    counts["ext.ext_relations"] += sum(len(e.relations) for e in result)


# span name -> size counter taken from (args, kwargs, result)
SIZERS = {
    "groebner.buchberger": lambda a, k, r, c: c.update(
        {"groebner.buchberger.basis_size": len(r)}),
    "groebner.module_kernel": lambda a, k, r, c: c.update(
        {"groebner.module_kernel.in_vectors": len(a[0]), "groebner.module_kernel.out_gens": len(r)}),
    "resolution.free_resolution": _resolution_ranks,
    "ext.ext_modules": _ext_sizes,
    "hilbert.monomial_quotient_counts": lambda a, k, r, c: c.update(
        {"hilbert.numerator_gens": len(a[1])}),
    "fiberfull.parameter_torsion": _torsion,
}

# size counters on public functions without a span, read from the result
HOOKS = (
    ("hochster", "complex_from_squarefree",
     lambda a, k, r, c: c.update({"hochster.faces": len(r)})),
)


class Tracer:
    """Collects spans and counters while installed; ``begin``/``end`` bracket
    one instance so that an instance cut off by its time cap can be dropped."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.instance = None
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self._mark = None

    # ---- instances ----

    def begin(self, instance):
        self.instance = instance
        self._stack.clear()
        self._mark = (len(self.spans), Counter(self.counts), dict(self.self_s))

    def end(self, keep):
        """Close the current instance; ``keep=False`` discards everything it
        recorded (an instance stopped at its cap did a time-dependent amount
        of work, so its counts would not repeat)."""
        if not keep:
            n, counts, self_s = self._mark
            del self.spans[n:]
            self.counts.clear()
            self.counts.update(counts)
            self.self_s.clear()
            self.self_s.update(self_s)
        self._stack.clear()
        self.instance = None

    # ---- wrappers ----

    def _span(self, fn, name, sizer):
        spans, stack, self_s, counts = self.spans, self._stack, self.self_s, self.counts
        calls = name + ".calls"
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if stack and stack[-1] is frame:
                    stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name, start, end, parent, tracer.instance)
                self_s[name] += duration - frame[1]
                counts[calls] += 1
            if sizer is not None:
                sizer(args, kwargs, result, counts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook(self, fn, sizer):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            sizer(args, kwargs, result, counts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, original, replacement):
        """Replace ``original`` under every name bound to it in a fiberfull
        module namespace."""
        for modname, module in list(sys.modules.items()):
            if modname != "fiberfull" and not modname.startswith("fiberfull."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    # ---- install / remove ----

    def install(self):
        """Patch every name in the tables.  A name the library no longer has
        is an error, not a counter left at zero; nothing stays patched then."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.remove()
            raise

    def _install(self):
        modules = {name: importlib.import_module("fiberfull." + name)
                   for name in set(SPANNED) | {m for m, _, _, _ in LEAVES} | {m for m, _, _ in HOOKS}}
        for modname, fnames in SPANNED.items():
            for fname in fnames:
                name = "%s.%s" % (modname, fname)
                fn = getattr(modules[modname], fname)
                self._rebind(fn, self._span(fn, name, SIZERS.get(name)))
        for modname, fname, sizer in HOOKS:
            fn = getattr(modules[modname], fname)
            self._rebind(fn, self._hook(fn, sizer))
        for modname, clsname, attr, name in LEAVES:
            module = modules[modname]
            if clsname is None:
                fn = getattr(module, attr)
                self._rebind(fn, self._counter(fn, name))
            else:
                cls = getattr(module, clsname)
                fn = cls.__dict__[attr]
                setattr(cls, attr, self._counter(fn, name))
                self._patched.append((cls, attr, fn))

    def remove(self):
        """Put every original object back, last patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ---- results ----

    def layer_metrics(self):
        """Per-layer metrics by name: (value, unit)."""
        c, s = self.counts, self.self_s
        out = {}
        for modname, fnames in SPANNED.items():
            for fname in fnames:
                name = "%s.%s" % (modname, fname)
                out[name + ".calls"] = (c[name + ".calls"], "count")
                out[name + ".self_s"] = (s[name], "s")
        for key in ("groebner.buchberger.basis_size", "groebner.module_kernel.in_vectors",
                    "groebner.module_kernel.out_gens", "resolution.frame_rank_sum",
                    "resolution.minimal_rank_sum", "ext.ext_rank_sum", "ext.ext_relations",
                    "hilbert.numerator_gens", "hochster.faces", "fiberfull.torsion_generators",
                    "fiberfull.nonunit_certificates"):
            out[key] = (c[key], "count")
        for _, _, _, name in LEAVES:
            out[name] = (c[name], "count")

        def ratio(num, den):
            return num / den if den else 0.0

        out["groebner.colon_per_saturate"] = (
            ratio(c["groebner.colon.calls"], c["groebner.saturate.calls"]), "ratio")
        out["resolution.minimal_over_frame"] = (
            ratio(c["resolution.minimal_rank_sum"], c["resolution.frame_rank_sum"]), "ratio")
        out["fiberfull.nonunit_ratio"] = (
            ratio(c["fiberfull.nonunit_certificates"], c["fiberfull.parameter_torsion.calls"]),
            "ratio")
        return out
