"""Outside-in tracing of flagtutte by rebinding its cross-module names.

The library is not edited.  After `import flagtutte`, every function that one
flagtutte module imports from another is replaced, in the importing module's
namespace, by a timing wrapper; so are a few methods that carry the hot
traffic (Matroid.rank, FlagMatroid.flag_bases, AuxPolynomial arithmetic and
substitution).  The benchmark's own calls go through the `flagtutte` package
namespace, which is rebound the same way, so each call into the library opens
a span named after the defining module (`invariants.kt`).

Spans keep name, start, end and parent in memory.  Hot leaf boundaries (the
whole of linalg, AuxPolynomial arithmetic, Matroid.rank, cone flips) call no
span and are aggregated per enclosing span as a call count and self time
instead of one record per call.  Self time of a span is its duration minus
the time its child spans and aggregated leaves cover; spans nest because the
run is single-threaded.

Function-local imports inside flagtutte (brion_series, check_direct_sum,
brion_example_report) bypass the rebinding; no workload reaches them.
"""

import gzip
import json
import sys
import time
import types

_RENAMES = {
    "cones.triangulate_half_open": "cones.triangulate",
    "cones.tangent_cone_generators": "cones.tangent_generators",
}

_METHODS = (
    ("flagtutte.matroid", "Matroid", "rank", "matroid.rank"),
    ("flagtutte.matroid", "FlagMatroid", "flag_bases", "matroid.flag_bases"),
    ("flagtutte.polynomial", "AuxPolynomial", "__add__", "polynomial.add"),
    ("flagtutte.polynomial", "AuxPolynomial", "__radd__", "polynomial.add"),
    ("flagtutte.polynomial", "AuxPolynomial", "__sub__", "polynomial.sub"),
    ("flagtutte.polynomial", "AuxPolynomial", "__rsub__", "polynomial.rsub"),
    ("flagtutte.polynomial", "AuxPolynomial", "__neg__", "polynomial.neg"),
    ("flagtutte.polynomial", "AuxPolynomial", "__mul__", "polynomial.mul"),
    ("flagtutte.polynomial", "AuxPolynomial", "__rmul__", "polynomial.mul"),
    ("flagtutte.polynomial", "AuxPolynomial", "__pow__", "polynomial.pow"),
    ("flagtutte.polynomial", "AuxPolynomial", "substitute",
     "polynomial.substitute"),
)

_LEAF_LAYERS = ("linalg.", "polynomial.")
_SPAN_EXCEPTIONS = ("polynomial.substitute",)
_LEAF_NAMES = (
    "matroid.rank", "matroid.bits", "genfun.flip", "genfun.weight_candidates",
    "cones.flip_cone", "cones.default_direction", "cones.cone_membership",
)


def layer_name(module, func):
    """`flagtutte.genfun`, `_support_core` -> `genfun.support_core`."""
    name = "%s.%s" % (module.rpartition(".")[2], func.lstrip("_"))
    return _RENAMES.get(name, name)


def is_leaf(name):
    if name in _SPAN_EXCEPTIONS:
        return False
    return name.startswith(_LEAF_LAYERS) or name in _LEAF_NAMES


class Tracer:
    """Span recorder; install() rebinds, uninstall() restores the originals.

    A span record is [id, name, start, end, parent id or -1, instance,
    leaves] with leaves a dict name -> [calls, self seconds] or None.
    `instance` is set by the caller before each measured instance (-1 for
    set-up).
    """

    def __init__(self):
        self.spans = []
        self.instance = -1
        self._frames = [[0.0]]
        self._open = [None]
        self._restore = []

    # ------------------------------------------------------------ rebinding

    def install(self):
        for modname, mod in list(sys.modules.items()):
            if modname != "flagtutte" and not modname.startswith("flagtutte."):
                continue
            for attr, obj in list(vars(mod).items()):
                if (not isinstance(obj, types.FunctionType)
                        or obj.__module__ == modname
                        or not obj.__module__.startswith("flagtutte.")):
                    continue
                self._rebind(mod, attr, obj,
                             layer_name(obj.__module__, obj.__name__))
        for modname, cls, attr, name in _METHODS:
            owner = getattr(sys.modules[modname], cls)
            self._rebind(owner, attr, owner.__dict__[attr], name)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, fn, name):
        wrap = self._leaf if is_leaf(name) else self._span
        self._restore.append((owner, attr, fn))
        setattr(owner, attr, wrap(fn, name))

    def _span(self, fn, name):
        spans, frames, open_ = self.spans, self._frames, self._open
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = open_[-1]
            rec = [len(spans), name, 0.0, 0.0,
                   -1 if parent is None else parent[0], tracer.instance, None]
            spans.append(rec)
            frames.append([0.0])
            open_.append(rec)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                frames.pop()
                open_.pop()
                frames[-1][0] += t1 - t0
                rec[2] = t0
                rec[3] = t1

        return traced

    def _leaf(self, fn, name):
        frames, open_ = self._frames, self._open
        perf = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf() - t0
                frames.pop()
                frames[-1][0] += d
                rec = open_[-1]
                if rec is not None:
                    leaves = rec[6]
                    if leaves is None:
                        leaves = rec[6] = {}
                    agg = leaves.get(name)
                    if agg is None:
                        leaves[name] = [1, d - frame[0]]
                    else:
                        agg[0] += 1
                        agg[1] += d - frame[0]

        return traced

    # ------------------------------------------------------------ reporting

    def layer_totals(self, factor, select):
        """name -> [calls, self seconds] over the spans whose instance passes
        select, each span's times scaled by factor(instance) into reference
        seconds."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for rec in spans:
            if rec[4] >= 0:
                covered[rec[4]] += rec[3] - rec[2]
        totals = {}
        for rec in spans:
            if not select(rec[5]):
                continue
            f = factor(rec[5])
            if rec[6]:
                for leaf, (calls, self_s) in rec[6].items():
                    covered[rec[0]] += self_s
                    tot = totals.setdefault(leaf, [0, 0.0])
                    tot[0] += calls
                    tot[1] += self_s * f
            tot = totals.setdefault(rec[1], [0, 0.0])
            tot[0] += 1
            tot[1] += (rec[3] - rec[2] - covered[rec[0]]) * f
        return totals

    def write(self, path, header):
        """The header line, then one JSON line per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for rec in self.spans:
                out.write(json.dumps({
                    "id": rec[0], "name": rec[1], "start": rec[2],
                    "end": rec[3], "parent": rec[4], "instance": rec[5],
                    "leaves": rec[6] or {},
                }) + "\n")
