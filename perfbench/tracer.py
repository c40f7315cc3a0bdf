"""In-memory span tracer that instruments fuzzydist from outside the package.

``Tracer.install`` wraps every public function of the layer modules and
rebinds each name that refers to it in any loaded fuzzydist module, since
``from .linalg import operator_norm`` copies the reference into the importer.
``FuzzySphere.__init__`` is wrapped on the class.  ``uninstall`` restores the
originals.  halfint and the UNTRACED helpers get no spans: their cost counts
in their callers' self time.

A span is (key, parent, start, end); the key is a span name plus tags taken
from the arguments (the representation of ``build_dirac``, the 2n of the
sphere for the calls whose scaling in n is reported).  Spans nest strictly
because the load is single-threaded, so a span's self time is its duration
minus the durations of its direct children.

The three linalg functions that run one LAPACK SVD share the span name
``linalg.svd`` and add a model count of the floating-point operations and
operand bytes of that SVD (see ``svd_cost``).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

LAYERS = ("sphere", "triple", "linalg", "distance", "coherent", "quantum", "continuum",
          "validate", "cli")

# linalg function -> whether its SVD also computes the singular vectors
SVD_FUNCTIONS = {"singular_triplets": True, "operator_norm": False, "trace_norm": False}
# argument conversion and checks, called inside nearly every linalg call; a
# span each would cost more than their work
UNTRACED = {"linalg.as_matrix", "linalg.is_hermitian", "linalg.dagger"}
CONNES = "distance.connes_distance_optimized"


def svd_cost(shape, vectors):
    """Model (flops, bytes) of one complex m x n SVD.

    Golub & Van Loan's real operation counts for the R-SVD (4mn^2 - 4n^3/3
    for values only, 4m^2n + 8mn^2 + 9n^3 with both factors), times 4 for
    complex arithmetic.  Bytes are the operands read and written once: the
    input, the singular values and, with vectors, both unitary factors.
    """
    m, n = max(shape), min(shape)
    if vectors:
        flops = 4 * (4 * m * m * n + 8 * m * n * n + 9 * n ** 3)
        nbytes = 16 * (m * n + m * m + n * n) + 8 * n
    else:
        flops = 4 * (4 * m * n * n - 4 * n ** 3 / 3)
        nbytes = 16 * m * n + 8 * n
    return flops, nbytes


def _twice(n):
    return n.twice if hasattr(n, "twice") else int(2 * Fraction(n))


# span name -> tags computed from the bound arguments of the call
TAGGERS = {
    "triple.build_dirac": lambda a: (a["representation"], "%s.2n-%d" % (
        a["representation"], a["sphere"].n.twice)),
    "quantum.quantum_seminorm_oracle": lambda a: ("2n-%d" % _twice(a["n"]),),
    CONNES: lambda a: ("2n-%d" % a["triple"].sphere.n.twice,),
}


class Tracer:
    """Holds the spans and counts of one traced pass."""

    def __init__(self):
        self.keys = []          # key id -> (name, tags)
        self._key_ids = {}
        self.key = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # summed duration of direct children
        self.stack = []
        self.counts = defaultdict(float)
        self._undo = []

    def _key_id(self, name, tags):
        kid = self._key_ids.get((name, tags))
        if kid is None:
            kid = self._key_ids[(name, tags)] = len(self.keys)
            self.keys.append((name, tags))
        return kid

    def wrap(self, name, fn, svd_vectors=None):
        tagger = TAGGERS.get(name)
        sig = inspect.signature(fn) if tagger else None
        plain = self._key_id(name, ())
        shape_of = sys.modules["numpy"].shape if svd_vectors is not None else None
        counts, stack, perf_counter = self.counts, self.stack, time.perf_counter
        key, parent, start, end, child = self.key, self.parent, self.start, self.end, self.child

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            kid = plain
            if tagger is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                kid = self._key_id(name, tagger(bound.arguments))
            if shape_of is not None:
                flops, nbytes = svd_cost(shape_of(args[0] if args else kwargs["m"]), svd_vectors)
                counts["linalg.svd.flops_computed"] += flops
                counts["linalg.svd.bytes_computed"] += nbytes
            # locals only: this wrapper runs about 10^5 times a pass
            i = len(start)
            key.append(kid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            child.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                t = perf_counter()
                end[i] = t
                stack.pop()
                p = parent[i]
                if p >= 0:
                    child[p] += t - start[i]

        return traced

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module("fuzzydist." + layer)
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or "%s.%s" % (layer, attr) in UNTRACED):
                    continue
                if layer == "linalg" and attr in SVD_FUNCTIONS:
                    w = self.wrap("linalg.svd", obj, SVD_FUNCTIONS[attr])
                else:
                    w = self.wrap("%s.%s" % (layer, attr), obj)
                wrappers[id(obj)] = (obj, w)
        for modname, mod in list(sys.modules.items()):
            if modname != "fuzzydist" and not modname.startswith("fuzzydist."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(mod, attr, hit[1])
        cls = sys.modules["fuzzydist.sphere"].FuzzySphere
        self._rebind(cls, "__init__", self.wrap("sphere.FuzzySphere", cls.__init__))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self):
        """calls, s and self_s per span name and per name.tag, self_s per module, and the counts."""
        nkeys = len(self.keys)
        calls, total, self_t = [0] * nkeys, [0.0] * nkeys, [0.0] * nkeys
        connes_ids = {k for k, (name, _) in enumerate(self.keys) if name == CONNES}
        svd_ids = {k for k, (name, _) in enumerate(self.keys) if name == "linalg.svd"}
        in_connes = bytearray(len(self.start))
        svd_in_connes = 0
        for i in range(len(self.start)):
            k, p = self.key[i], self.parent[i]
            d = self.end[i] - self.start[i]
            calls[k] += 1
            total[k] += d
            self_t[k] += d - self.child[i]
            inside = k in connes_ids or (p >= 0 and in_connes[p])
            in_connes[i] = inside
            if inside and k in svd_ids:
                svd_in_connes += 1
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        for k, (name, tags) in enumerate(self.keys):
            for key in (name,) + tuple("%s.%s" % (name, t) for t in tags):
                a = agg[key]
                a[0] += calls[k]
                a[1] += total[k]
                a[2] += self_t[k]
        layers = defaultdict(float)
        for k, (name, tags) in enumerate(self.keys):
            layers[name.split(".")[0] + ".self_s"] += self_t[k]
        out = dict(layers)
        for key, (c, s, st) in agg.items():
            if c:
                out[key + ".calls"] = c
                out[key + ".s"] = s
                out[key + ".self_s"] = st
        out.update(self.counts)
        connes_calls = out.get(CONNES + ".calls", 0)
        if connes_calls:
            out[CONNES + ".svd_per_call"] = svd_in_connes / connes_calls
        return out

    def dump(self, path):
        """Write every span to a gzipped JSON file, times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {"keys": [[name, list(tags)] for name, tags in self.keys],
               "columns": ["key", "parent", "start_s", "end_s"],
               "key": self.key.tolist(), "parent": self.parent.tolist(),
               "start_s": [round(t - t0, 7) for t in self.start],
               "end_s": [round(t - t0, 7) for t in self.end]}
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump(doc, fh)
