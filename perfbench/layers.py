"""Outside-in tracing of the bhl layers, from the benchmark's own code.

`install` wraps the public functions of every bhl module, plus the Matrix,
eliminator, morphism, comodule and coend methods listed in METHODS, and
rebinds each wrapped name in every bhl module (and module-level table) that
holds it.  Nothing under src/ changes.  Two recorders:

* SpanRecorder keeps one span per call -- name, start, end, parent span --
  in memory; the child writes them out when its op ends.  A layer is a bhl
  module.
* CallCounter counts calls and the exact quantities named in COUNT_METRICS,
  including Scalar arithmetic.  It runs in a separate pass, so the cost of
  counting never lands in a traced self time.

`op_layer_times` turns the spans of one op into the metrics of
TIME_METRICS and SELF_METRICS.
"""

import importlib
import time
from collections import Counter
from types import FunctionType

# `inspect` would do, but importing it costs each traced child about 15 ms
_CO_GENERATOR = 0x20

MODULES = ("exactalg", "gradedcat", "braidedhopf", "comodcat", "coend",
           "reconstruct", "catalog", "cli")

# private functions that some metric of TIME_METRICS needs a span for
PRIVATE = {"cli": ("_emit", "_summary")}

METHODS = {
    "exactalg": {"Matrix": ("__mul__", "__matmul__", "__add__", "__sub__",
                            "__neg__", "__eq__", "is_zero", "scale",
                            "transpose", "hstack", "inverse", "rank"),
                 "SparseEliminator": ("add", "rref_rows"),
                 "QuotientPresentation": ("verify",)},
    "gradedcat": {"GradedMorphism": ("__init__", "__mul__", "__matmul__",
                                     "__add__", "__sub__", "__neg__",
                                     "__eq__", "is_zero", "inverse")},
    "comodcat": {"Comodule": ("__init__",)},
    "coend": {"Diagram": ("__init__", "enlarged"),
              "CoendResult": ("pi", "residual_report",
                              "check_regular_surjective")},
}

# metric -> wrapped names; the metric is the time inside the outermost of
# these calls, with everything they call (nested calls are not counted twice)
TIME_METRICS = {
    "cli.spec_parse_s": ("cli.datum_from_spec", "cli.yd_from_spec"),
    "cli.emit_s": ("cli._emit", "cli._summary", "cli.hopf_to_spec",
                   "cli.checks_from_residuals", "cli.checks_from_flags"),
    "catalog.build_s": ("catalog.build",),
    "braidedhopf.check_s": ("braidedhopf.check_hopf",
                            "braidedhopf.check_bialgebra",
                            "braidedhopf.check_algebra",
                            "braidedhopf.check_coalgebra",
                            "braidedhopf.check_hopf_morphism"),
    "braidedhopf.antipode_s": ("braidedhopf.solve_antipode",),
    "braidedhopf.yd_s": ("braidedhopf.check_yd", "braidedhopf.yd_braiding",
                         "braidedhopf.yd_braiding_inverse"),
    "braidedhopf.bosonize_s": ("braidedhopf.bosonize_with_maps",
                               "braidedhopf.bosonize"),
    "gradedcat.morphism_new_s": ("gradedcat.GradedMorphism.__init__",),
    "gradedcat.braiding_s": ("gradedcat.braiding",
                             "gradedcat.braiding_inverse"),
    "gradedcat.duals_s": ("gradedcat.left_dual", "gradedcat.right_dual",
                          "gradedcat.dual_morphism", "gradedcat.phi_left",
                          "gradedcat.psi", "gradedcat.psi_bar"),
    "exactalg.matmul_s": ("exactalg.Matrix.__mul__",),
    "exactalg.kron_s": ("exactalg.Matrix.__matmul__",),
    "exactalg.elim_s": ("exactalg.SparseEliminator.add",
                        "exactalg.SparseEliminator.rref_rows"),
    "exactalg.rref_s": ("exactalg.rref", "exactalg.kernel",
                        "exactalg.cokernel", "exactalg.cokernel_from_rref"),
    "exactalg.solve_s": ("exactalg.solve_product_constraints",
                         "exactalg.solve_unknown_map"),
    "comodcat.build_s": ("comodcat.Comodule.__init__",),
    "comodcat.hom_space_s": ("comodcat.hom_space", "comodcat.hom_basis"),
    "coend.diagram_s": ("coend.Diagram.__init__", "coend.Diagram.enlarged",
                        "coend.default_diagram",
                        "coend.reconstruction_diagram"),
    "coend.compute_s": ("coend.compute_coend",),
    "coend.residual_s": ("coend.CoendResult.residual_report",),
    "coend.stability_s": ("coend.check_stability",),
    "coend.pi_s": ("coend.CoendResult.pi",),
    "reconstruct.counit_s": ("reconstruct.extract_counit",),
    "reconstruct.coproduct_s": ("reconstruct.extract_coproduct",),
    "reconstruct.product_s": ("reconstruct.extract_product",),
    "reconstruct.antipode_s": ("reconstruct.extract_antipode",),
    "reconstruct.comparison_s": ("reconstruct.canonical_comparison",),
    "reconstruct.equivalence_s": ("reconstruct.verify_equivalence_samples",),
}
SELF_METRICS = tuple("%s.self_s" % m for m in MODULES if m != "catalog")

# per-op counts, summed over a pass (the *_dim ones take the largest value)
COUNT_METRICS = (
    "catalog.build_calls", "gradedcat.morphism_new_calls",
    "exactalg.matmul_calls", "exactalg.kron_calls", "exactalg.kron_entries",
    "exactalg.elim_add_calls", "exactalg.elim_useful_adds",
    "exactalg.solve_rows", "exactalg.scalar_mul", "exactalg.scalar_addsub",
    "exactalg.scalar_inverse", "exactalg.scalar_bool",
    "comodcat.build_calls", "comodcat.build_distinct",
    "comodcat.hom_space_calls", "coend.pi_calls", "coend.relation_columns",
    "coend.ambient_dim", "coend.quotient_dim")
MAX_COUNTS = ("coend.ambient_dim", "coend.quotient_dim")

_CALL_COUNTS = {
    "catalog.build": "catalog.build_calls",
    "gradedcat.GradedMorphism.__init__": "gradedcat.morphism_new_calls",
    "exactalg.Matrix.__mul__": "exactalg.matmul_calls",
    "comodcat.hom_space": "comodcat.hom_space_calls",
    "coend.CoendResult.pi": "coend.pi_calls",
}


def _targets():
    """(name, function) for everything to wrap."""
    out = []
    for mod_name in MODULES:
        mod = importlib.import_module("bhl." + mod_name)
        for attr, obj in vars(mod).items():
            if (isinstance(obj, FunctionType) and obj.__module__ == mod.__name__
                    and not obj.__code__.co_flags & _CO_GENERATOR
                    and (not attr.startswith("_")
                         or attr in PRIVATE.get(mod_name, ()))):
                out.append(("%s.%s" % (mod_name, attr), obj))
        for cls_name, methods in METHODS.get(mod_name, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                out.append(("%s.%s.%s" % (mod_name, cls_name, meth),
                            cls.__dict__[meth]))
    return out


def install(recorder):
    """Wrap every target with recorder.wrap(name, fn) and rebind it
    wherever a bhl module or class refers to it."""
    wrapped = {}
    for name, fn in _targets():
        wrapped[fn] = recorder.wrap(name, fn)
    holders = [importlib.import_module("bhl." + m) for m in MODULES]
    for mod in list(holders):
        holders.extend(v for v in vars(mod).values() if isinstance(v, type)
                       and v.__module__ == mod.__name__)
    for holder in holders:
        for attr, value in list(vars(holder).items()):
            if isinstance(value, FunctionType):
                if value in wrapped:
                    setattr(holder, attr, wrapped[value])
            elif isinstance(value, dict) and not attr.startswith("__"):
                for k, v in list(value.items()):
                    if isinstance(v, FunctionType) and v in wrapped:
                        value[k] = wrapped[v]


class SpanRecorder:
    """Spans in memory: spans[i] = (name id, start, end, parent index)."""

    def __init__(self):
        self.names = []
        self.spans = []
        self._stack = [-1]

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def span(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, stack[-1])
        return span

    def dump(self):
        return {"names": self.names, "spans": self.spans}


class CallCounter:
    """Exact counts for COUNT_METRICS; see install_scalar_counts too."""

    def __init__(self):
        self.counts = Counter()
        self._inside = Counter()
        self._comodules = set()

    def wrap(self, name, fn):
        counts, inside = self.counts, self._inside
        key = _CALL_COUNTS.get(name)
        if name == "exactalg.Matrix.__matmul__":
            def counted(a, b):
                counts["exactalg.kron_calls"] += 1
                counts["exactalg.kron_entries"] += a.rows * b.rows * a.cols * b.cols
                return fn(a, b)
        elif name == "exactalg.SparseEliminator.add":
            def counted(elim, vec):
                grew = fn(elim, vec)
                counts["exactalg.elim_add_calls"] += 1
                counts["exactalg.elim_useful_adds"] += bool(grew)
                if inside["coend.compute_coend"]:
                    counts["coend.relation_columns"] += 1
                if inside["exactalg.solve_product_constraints"]:
                    counts["exactalg.solve_rows"] += 1
                return grew
        elif name == "comodcat.Comodule.__init__":
            comodules = self._comodules

            def counted(comodule, *args):
                fn(comodule, *args)
                counts["comodcat.build_calls"] += 1
                comodules.add(comodule)
        elif name in ("coend.compute_coend",
                      "exactalg.solve_product_constraints"):
            def counted(*args):
                inside[name] += 1
                try:
                    res = fn(*args)
                finally:
                    inside[name] -= 1
                if name == "coend.compute_coend":
                    for metric, value in (("coend.ambient_dim",
                                           res.presentation.ambient_dim),
                                          ("coend.quotient_dim", res.dim)):
                        counts[metric] = max(counts[metric], value)
                return res
        elif key:
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        else:
            return fn
        return counted

    def install_scalar_counts(self):
        """Count Scalar multiplications, additions and subtractions,
        inversions and zero tests (each operator and its reflection)."""
        from bhl.exactalg import Scalar
        counts = self.counts
        for metric, attrs in (
                ("exactalg.scalar_mul", ("__mul__", "__rmul__")),
                ("exactalg.scalar_addsub", ("__add__", "__radd__", "__sub__",
                                            "__rsub__")),
                ("exactalg.scalar_inverse", ("inverse",)),
                ("exactalg.scalar_bool", ("__bool__",))):
            for attr in attrs:
                fn = Scalar.__dict__[attr]

                def counted(*args, _fn=fn, _metric=metric):
                    counts[_metric] += 1
                    return _fn(*args)
                setattr(Scalar, attr, counted)

    def dump(self):
        out = {m: self.counts[m] for m in COUNT_METRICS}
        out["comodcat.build_distinct"] = len(self._comodules)
        return out


def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def op_layer_times(dump):
    """TIME_METRICS and SELF_METRICS (seconds) of one traced op."""
    names, spans = dump["names"], dump["spans"]
    layer_of = [n.split(".", 1)[0] for n in names]
    metric_of = {}
    for metric, members in TIME_METRICS.items():
        for member in members:
            metric_of[member] = metric
    group_of = [metric_of.get(n) for n in names]
    self_of = ["%s.self_s" % layer for layer in layer_of]
    out = dict.fromkeys(tuple(TIME_METRICS) + SELF_METRICS, 0.0)
    # fed[i]: the metrics that span i or a span enclosing it feeds
    fed = []
    for (nid, start, end, parent), own in zip(spans, self_times(spans)):
        if self_of[nid] in out:
            out[self_of[nid]] += own
        enclosing = fed[parent] if parent >= 0 else frozenset()
        group = group_of[nid]
        if group and group not in enclosing:
            out[group] += end - start
            enclosing = enclosing | {group}
        fed.append(enclosing)
    return out
