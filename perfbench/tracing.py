"""Spans around calls into qfock's public functions, recorded from outside.

``Tracer.install`` wraps each target below and rebinds the wrapper in every
loaded qfock module that binds the original object (``cli`` and ``ncpoly``
import ``conjugate_series`` by name, for example); methods are wrapped on
their class. A target that no longer exists is listed as absent and its
metrics read 0. Spans (name, start, end, parent) stay in memory until
``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (layer, attribute path inside qfock.<layer>, span name)
TARGETS = [
    ("cli", "main", "cli.main"),
    ("dual", "conjugate_series", "dual.conjugate_series"),
    ("dual", "fisher_info", "dual.fisher_info"),
    ("dual", "dual_recursive", "dual.recursive"),
    ("dual", "dual_partition", "dual.partition"),
    ("dual", "commutator_residual", "dual.commutator_residual"),
    ("dual", "crossing_weight", "dual.crossing_weight"),
    ("fock", "FockSpace.gram", "fock.gram"),
    ("fock", "FockSpace.right_annihilate_adjoint", "fock.adjoint"),
    ("fock", "FockSpace.inner", "fock.inner"),
    ("fock", "FockSpace.inner_recursive", "fock.inner_recursive"),
    ("fock", "FockSpace.gaussian_word", "fock.gaussian_word"),
    ("fock", "float_gram_matrix", "fock.float_gram"),
    ("ncpoly", "wick_recursive", "ncpoly.wick_recursive"),
    ("ncpoly", "wick_partition", "ncpoly.wick_partition"),
    ("ncpoly", "diff_partition", "ncpoly.diff_partition"),
    ("ncpoly", "diff_quotient", "ncpoly.diff_quotient"),
    ("ncpoly", "cyclic_derivative", "ncpoly.cyclic_derivative"),
    ("ncpoly", "duality_residual", "ncpoly.duality_residual"),
    ("ncpoly", "vector_to_poly", "ncpoly.vector_to_poly"),
    ("ncpoly", "poly_apply", "ncpoly.poly_apply"),
    ("ncpoly", "gibbs_potential", "ncpoly.gibbs_potential"),
    ("ncpoly", "gibbs_gradient_residuals", "ncpoly.gibbs_gradient_residuals"),
    ("partitions", "enumerate_family", "partitions.enumerate"),
    ("partitions", "DrawnPartition.crossing_pairs", "partitions.crossings"),
    ("partitions", "induced_permutation", "partitions.induced_permutation"),
    ("norms", "gram_domination_residual", "norms.gram_domination"),
    ("norms", "right_annihilation_norm", "norms.right_annihilation_norm"),
    ("norms", "haagerup_residual", "norms.haagerup"),
    ("norms", "series_tail", "norms.series_tail"),
    ("onevariable", "hermite", "onevariable.hermite"),
    ("onevariable", "cheb", "onevariable.cheb"),
    ("onevariable", "trace_cheb", "onevariable.trace_cheb"),
    ("onevariable", "trace_cheb_odd", "onevariable.trace_cheb_odd"),
    ("onevariable", "rescale_identity_residual", "onevariable.rescale_identity"),
    ("onevariable", "q_identity_residual", "onevariable.q_identity"),
    ("scalars", "q_int", "scalars.q_int"),
    ("scalars", "q_factorial", "scalars.q_factorial"),
    ("scalars", "q_falling", "scalars.q_falling"),
    ("scalars", "q_binom", "scalars.q_binom"),
    ("scalars", "analytic_constants", "scalars.analytic_constants"),
]

LAYERS = ("cli", "dual", "fock", "ncpoly", "norms", "onevariable", "partitions", "scalars")


def _distinct_key(args, kwargs):
    """conjugate_series(space, i, source_length): the same space, index and
    length give the same series."""
    return (id(args[0]),) + tuple(args[1:]) + tuple(sorted(kwargs.items()))


# extra per-call measurements: span name -> (counter, function of the result)
_WORK = {
    "partitions.enumerate": ("diagrams", len),
    "norms.series_tail": ("terms", lambda rep: rep.terms_summed),
}
_DISTINCT = {"dual.conjugate_series": _distinct_key}


def _rebind(mod, original, wrapper, undo):
    """Replace original by wrapper among a module's names and in its
    module-level dicts (dispatch tables such as a strategy map)."""
    for key, value in list(vars(mod).items()):
        if value is original:
            undo.append((vars(mod), key, original))
            setattr(mod, key, wrapper)
        elif isinstance(value, dict):
            for k, v in list(value.items()):
                if v is original:
                    undo.append((value, k, original))
                    value[k] = wrapper


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # [name index, parent span or -1, start, end]
        self.stack = []
        self.work = {}
        self.distinct = {}
        self.absent = []
        self.layer_of = {}
        self.undo = []

    def span(self, name, fn):
        """Run fn() inside a span called name (the operation's root span)."""
        wrapped = self._wrap(name, fn)
        return wrapped()

    def _wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        work = _WORK.get(name)
        key_fn = _DISTINCT.get(name)
        seen = self.distinct.setdefault(name, set()) if key_fn else None
        if work:
            self.work.setdefault(name + "." + work[0], 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [idx, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if work:
                self.work[name + "." + work[0]] += work[1](result)
            if seen is not None:
                seen.add(key_fn(args, kwargs))
            return result

        return wrapper

    def install(self):
        for layer, path, name in TARGETS:
            self.layer_of[name] = layer
            try:
                owner = importlib.import_module(f"qfock.{layer}")
            except ImportError:
                owner = None
            attr = path
            if "." in path and owner is not None:
                cls_name, attr = path.split(".", 1)
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"qfock.{layer}.{path}")
                continue
            wrapper = self._wrap(name, original)
            if "." in path:
                self.undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "qfock" or mod_name.startswith("qfock."):
                    _rebind(mod, original, wrapper, self.undo)

    def uninstall(self):
        """Put every original back."""
        for owner, key, original in reversed(self.undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self.undo.clear()

    def summary(self):
        """Calls, self time and work per span name; self time per layer."""
        n = len(self.spans)
        child = [0.0] * n
        for name_idx, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_name = {}
        for k, (name_idx, parent, start, end) in enumerate(self.spans):
            name = self.names[name_idx]
            entry = per_name.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[k]
        layers = {layer: 0.0 for layer in LAYERS}
        for name, entry in per_name.items():
            layer = self.layer_of.get(name)
            if layer is not None:
                layers[layer] += entry["self_s"]
        distinct = {name: len(keys) for name, keys in self.distinct.items()}
        return {"names": per_name, "layers": layers, "work": dict(self.work), "distinct": distinct, "absent": list(self.absent)}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "absent": self.absent}, fh, separators=(",", ":"))
