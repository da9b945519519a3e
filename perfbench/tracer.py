"""Run one `inertial` command with timing probes on the package's functions.

    python3 perfbench/tracer.py STATS_FILE ARG...

ARG... is the CLI's argv.  The command runs in this fresh interpreter through
`inertial.cli.main`, so the process-wide group and catalog caches start cold,
exactly as under `python3 -m inertial`.  Stdout and the exit code are the
CLI's own.  The probe totals and the spans stay in memory and are written to
STATS_FILE once, at exit.

Every public function and public method of the package's modules is wrapped,
including the names one module imported from another, plus the private entry
points the per-layer metrics need (`cli._emit`, the ring checks).  A probe
adds each call's time, minus the time of wrapped calls nested inside it, to
its layer's self time.  Probes on scalar, class-function and group-table
operations are only counted and timed in aggregate; every other probe also
records a span (name, start, end, parent span).
"""

import functools
import importlib
import json
import sys
import time

clock = time.perf_counter
T0 = clock()

LAYERS = ("cyclotomic", "groups", "characters", "inertia", "logtrace",
          "rings", "chern", "cli")

# Called hundreds of thousands of times per command: a span each would cost
# more memory and time than the work, so these are counted only.
HOT_CLASSES = {"Cyclotomic", "ClassFunction", "FiniteGroup", "Subgroup"}

# Table lookups and attribute reads cheaper than the probe around them;
# wrapping them would mostly measure the probe.
UNWRAPPED = {
    "cyclotomic.cyc",
    "cyclotomic.euler_phi",
    "cyclotomic.Cyclotomic.conjugate",
    "cyclotomic.Cyclotomic.is_zero",
    "cyclotomic.Cyclotomic.is_rational",
    "cyclotomic.Cyclotomic.to_rational",
    "characters.ClassFunction.value",
    "characters.ClassFunction.dim",
    "groups.FiniteGroup.op",
    "groups.FiniteGroup.power",
    "groups.FiniteGroup.order_of",
    "groups.FiniteGroup.prod",
    "groups.FiniteGroup.conj",
    "groups.FiniteGroup.class_of",
    "groups.FiniteGroup.class_reps",
    "groups.FiniteGroup.conjugacy_classes",
    "groups.FiniteGroup.witness",
    "groups.FiniteGroup.inverse_class",
    "groups.Subgroup.to_parent",
}

OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__neg__", "__truediv__", "__rtruediv__", "__pow__"}

# Private names wrapped as well, because a per-layer metric is defined on them.
PRIVATE = {
    "rings": ("GradedAlgebra.__init__", "_check_identity",
              "_check_commutativity", "_check_associativity", "_check_grading",
              "_check_frobenius", "_check_multiproduct"),
    "cli": ("_Parser.parse_args", "_read_json_spec", "_emit"),
}

# metric -> probes whose outermost calls it times, nested calls counted once
INCLUSIVE = {
    "characters.character_table_s": ("characters.character_table",),
    "rings.build_s": ("rings.chow_ring", "rings.k_ring", "rings.lusztig_ring",
                      "rings.algebra_from_json",
                      "rings.GradedAlgebra.__init__"),
    "rings.check.associativity_s": ("rings._check_associativity",),
    "rings.check.multiproduct_s": ("rings._check_multiproduct",),
    "rings.check.frobenius_s": ("rings._check_frobenius",),
    "rings.check.other_s": ("rings._check_identity",
                            "rings._check_commutativity",
                            "rings._check_grading"),
    "cli.parse_s": ("cli.build_parser", "cli._Parser.parse_args",
                    "cli._read_json_spec"),
    "cli.emit_s": ("cli._emit",),
}

# metric -> probes whose calls it counts
CALLS = {
    "cyclotomic.add.calls": ("cyclotomic.Cyclotomic.__add__",),
    "cyclotomic.mul.calls": ("cyclotomic.Cyclotomic.__mul__",),
    "cyclotomic.galois.calls": ("cyclotomic.Cyclotomic.galois",),
    "cyclotomic.root_of_unity.calls": ("cyclotomic.root_of_unity",),
    "characters.decompose.calls": ("characters.decompose",),
    "characters.inner_product.calls": ("characters.inner_product",),
    "characters.induce.calls": ("characters.induce_from",
                                "characters.induce_between"),
    "characters.transport.calls": ("characters.transport",),
    "logtrace.log_trace.calls": ("logtrace.log_trace",),
    "logtrace.twisted_pullback.calls": ("logtrace.twisted_pullback",),
    "logtrace.age.calls": ("logtrace.age",),
    "groups.centralizer.calls": ("groups.FiniteGroup.centralizer",),
    "groups.generated.calls": ("groups.FiniteGroup.generated",),
    "chern.star_T.calls": ("chern.star_T",),
}

# probe -> key of its input; "<metric>.distinct" counts the distinct keys
DISTINCT = {
    "characters.decompose": ("characters.decompose.distinct",
                             lambda v: v),
    "logtrace.log_trace": ("logtrace.log_trace.distinct",
                           lambda v, g, sub=None: (v, g, id(sub))),
    "logtrace.twisted_pullback": ("logtrace.twisted_pullback.distinct",
                                  lambda v, ms: (v, tuple(ms))),
}


class Probe:
    __slots__ = ("name", "layer", "calls", "self_s", "hot", "metric", "key",
                 "keys")

    def __init__(self, name, layer, hot):
        self.name = name
        self.layer = layer
        self.hot = hot
        self.calls = 0
        self.self_s = 0.0
        self.metric = None
        self.key = None
        self.keys = set()


class Tracer:
    """Probes, the stack of open calls and the spans of one command."""

    def __init__(self):
        # child time of each open wrapped call; entry 0 is the command itself
        self.stack = [0.0]
        self.spans = []
        self.open_span = -1
        self.probes = {}
        self.depth = {}
        self.inclusive = dict.fromkeys(INCLUSIVE, 0.0)
        self.counts = {"inertia.double_classes": 0,
                       "inertia.triple_classes": 0,
                       "rings.dim": 0, "rings.table_terms": 0}
        self._seen = set()
        self.observers = {
            "inertia.build_double_sectors":
                self._count_classes("inertia.double_classes"),
            "inertia.triple_sectors":
                self._count_classes("inertia.triple_classes"),
            "rings.GradedAlgebra.__init__": self._count_ring,
        }

    def _count_classes(self, counter):
        def observe(args, index):
            if id(index) not in self._seen:
                self._seen.add(id(index))
                self.counts[counter] += len(index)
        return observe

    def _count_ring(self, args, _):
        alg = args[0]
        self.counts["rings.dim"] += alg.dim
        self.counts["rings.table_terms"] += sum(
            len(terms) for terms in alg.table.values())

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, probe):
        stack = self.stack
        if probe.hot:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                start = clock()
                stack.append(0.0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    probe.self_s += elapsed - stack.pop()
                    probe.calls += 1
                    stack[-1] += elapsed
            return counted

        spans, depth, inclusive = self.spans, self.depth, self.inclusive
        metric = probe.metric
        observe = self.observers.get(probe.name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if probe.key is not None:
                probe.keys.add(probe.key(*args, **kwargs))
            parent = self.open_span
            index = len(spans)
            spans.append(None)
            self.open_span = index
            if metric:
                depth[metric] = depth.get(metric, 0) + 1
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                probe.self_s += elapsed - stack.pop()
                probe.calls += 1
                stack[-1] += elapsed
                spans[index] = (probe.name, start, end, parent)
                self.open_span = parent
                if metric:
                    depth[metric] -= 1
                    if not depth[metric]:
                        inclusive[metric] += elapsed
            if observe is not None:
                observe(args, result)
            return result
        return spanned

    def install(self):
        """Wrap every probed function and rebind each name that refers to it."""
        modules = {layer: importlib.import_module("inertial." + layer)
                   for layer in LAYERS}
        metric_of = {p: m for m, ps in INCLUSIVE.items() for p in ps}
        wrapped = {}  # id(original) -> (original, wrapper)

        def add(layer, name, fn, hot):
            if name in UNWRAPPED:
                return None
            if id(fn) in wrapped:
                return wrapped[id(fn)][1]
            probe = Probe(name, layer, hot)
            probe.metric = metric_of.get(name)
            if name in DISTINCT:
                probe.key = DISTINCT[name][1]
            self.probes[name] = probe
            wrapper = self.wrap(fn, probe)
            wrapped[id(fn)] = (fn, wrapper)
            return wrapper

        for layer, mod in modules.items():
            private = PRIVATE.get(layer, ())
            for name, value in list(vars(mod).items()):
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                if isinstance(value, type):
                    self._wrap_class(layer, value, private, add)
                elif callable(value) and (not name.startswith("_")
                                          or name in private):
                    add(layer, "%s.%s" % (layer, name), value,
                        layer == "cyclotomic")
            for dotted in private:
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    cls = getattr(mod, cls_name)
                    fn = getattr(cls, attr)
                    setattr(cls, attr, add(layer, "%s.%s" % (layer, dotted),
                                           fn, False))

        for mod in [m for n, m in sys.modules.items()
                    if n == "inertial" or n.startswith("inertial.")]:
            for name, value in list(vars(mod).items()):
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        hit = wrapped.get(id(v))
                        if hit and hit[0] is v:
                            value[k] = hit[1]
                    continue
                hit = wrapped.get(id(value))
                if hit and hit[0] is value:
                    setattr(mod, name, hit[1])

    def _wrap_class(self, layer, cls, private, add):
        if cls.__name__.startswith("_"):
            return
        hot = cls.__name__ in HOT_CLASSES or layer == "cyclotomic"
        for attr, value in list(vars(cls).items()):
            dotted = "%s.%s" % (cls.__name__, attr)
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            if dotted in private:
                continue
            if isinstance(value, staticmethod):
                wrapper = add(layer, "%s.%s" % (layer, dotted),
                              value.__func__, hot)
                if wrapper is not None:
                    setattr(cls, attr, staticmethod(wrapper))
            elif callable(value):
                wrapper = add(layer, "%s.%s" % (layer, dotted), value, hot)
                if wrapper is not None:
                    setattr(cls, attr, wrapper)

    # -- results -------------------------------------------------------------

    def metrics(self, import_s):
        out = {"cli.import_s": import_s}
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(
                p.self_s for p in self.probes.values() if p.layer == layer)
        for metric, names in CALLS.items():
            out[metric] = sum(self.probes[n].calls for n in names)
        for name, (metric, _) in DISTINCT.items():
            out[metric] = len(self.probes[name].keys)
        out.update(self.inclusive)
        out.update(self.counts)
        return out

    def write(self, path, import_s):
        record = {
            "metrics": self.metrics(import_s),
            "probes": {name: [p.calls, round(p.self_s, 7)]
                       for name, p in sorted(self.probes.items()) if p.calls},
            "spans": [(name, round(start - T0, 7), round(end - T0, 7), parent)
                      for name, start, end, parent in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(record, fh)


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    start = clock()
    cli = importlib.import_module("inertial.cli")
    import_s = clock() - start
    tracer = Tracer()
    tracer.install()
    code = 3
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.write(stats_path, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
