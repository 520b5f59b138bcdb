"""Outside-in instrumentation of censym: a call tracer and counting rings.

Nothing here edits the program.  :class:`Tracer` replaces every binding of
every public function and method of the censym modules (module attributes
in every censym module, class attributes) with a timing wrapper, and puts
each original back on :meth:`Tracer.uninstall`.  :class:`RingCounter`
swaps the rings that ``ring_from_literal`` returns for instances of
counting subclasses.  Ring operations are counted, never timed: there are
tens of millions of them per pass.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
import types

# Arithmetic operators are the hot entry points of Matrix and CentroMatrix;
# other dunders (__eq__, __getitem__, __init__, ...) stay unwrapped.
WRAPPED_DUNDERS = frozenset({"__add__", "__sub__", "__mul__", "__neg__"})

# Ring operations are counted by RingCounter, never timed.
SKIP_MODULES = frozenset({"rings"})

# A call this long keeps its own span; shorter calls are only folded into
# the per-name counts and self times.  Kept spans are closed under
# ancestors, since a parent lasts at least as long as its child.
SPAN_MIN_S = 0.002


def censym_modules(package) -> dict:
    """Short name -> module for the package and every loaded submodule."""
    prefix = package.__name__ + "."
    mods = {"": package}
    for name, mod in list(sys.modules.items()):
        if name.startswith(prefix) and mod is not None:
            mods[name[len(prefix):]] = mod
    return mods


def snapshot(package) -> dict:
    """Identity snapshot of every binding the tracer may replace."""
    out = {}
    for short, mod in censym_modules(package).items():
        for attr, obj in vars(mod).items():
            out[(short, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for name, raw in vars(obj).items():
                    out[(short, attr, name)] = raw
    return out


class Tracer:
    """Per-name call counts, inclusive and self times, and long spans.

    ``stats[name]`` is ``[calls, inclusive_s, self_s, raised]``.  Self time
    is a call's duration minus the time of the wrapped calls inside it, so
    self times along a job add up to the job's time.  ``module_s[mod]`` is
    the time inside the module's functions, counting only the outermost of
    nested calls into the same module.
    """

    def __init__(self, package):
        self.package = package
        self.stats: dict = {}
        self.module_s: dict = {}
        self.spans: list = []
        self.sc_cold = 0
        self.sc_cold_s = 0.0
        self.inserts_grown = 0
        self._stack: list = []
        self._active: dict = {}
        self._ids = itertools.count(1)
        self._patches: list = []

    # -- installation ---------------------------------------------------

    def _targets(self):
        """(short module, owner class or None, attribute, raw object)."""
        for short, mod in censym_modules(self.package).items():
            if not short or short in SKIP_MODULES:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    yield short, None, attr, obj
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    for name, raw in list(vars(obj).items()):
                        if name.startswith("_") and name not in WRAPPED_DUNDERS:
                            continue
                        if isinstance(raw, (types.FunctionType, classmethod, staticmethod)):
                            yield short, obj, name, raw

    def install(self) -> None:
        mods = censym_modules(self.package)
        for short, owner, attr, raw in list(self._targets()):
            if owner is None:
                wrapped = self._wrap(raw, f"{short}.{attr}")
                for mod in mods.values():
                    for name, obj in list(vars(mod).items()):
                        if obj is raw:
                            self._patches.append((mod, name, raw))
                            setattr(mod, name, wrapped)
                continue
            name = f"{short}.{owner.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fn, name):
        entry = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, spans, ids = self._stack, self.spans, self._ids
        active, module_s = self._active, self.module_s
        mod = name.split(".", 1)[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, next(ids)]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            depth = active.get(mod, 0)
            active[mod] = depth + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                entry[3] += 1
                raise
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                active[mod] = depth
                if not depth:
                    module_s[mod] = module_s.get(mod, 0.0) + dt
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if dt >= SPAN_MIN_S:
                    spans.append((frame[1], parent, name, t0, t1))

        if name == "basis.structure_constants":
            return self._observe_cache(traced)
        if name == "linalg.RowBasis.insert":
            return self._observe_insert(traced)
        return traced

    def _observe_cache(self, traced):
        """Split structure-constant calls into cache hits and cold builds."""
        basis = censym_modules(self.package)["basis"]
        cache = getattr(basis, "_SC_CACHE", {})
        clock = time.perf_counter

        @functools.wraps(traced)
        def observed(*args, **kwargs):
            cold = tuple(args[:2]) not in cache
            t0 = clock()
            out = traced(*args, **kwargs)
            if cold:
                self.sc_cold += 1
                self.sc_cold_s += clock() - t0
            return out

        return observed

    def _observe_insert(self, traced):
        """Count inserts that grew the rank."""

        @functools.wraps(traced)
        def observed(*args, **kwargs):
            grown = traced(*args, **kwargs)
            if grown:
                self.inserts_grown += 1
            return grown

        return observed

    def job(self, label: str, fn, *args):
        """Run one job under a job-level span, which is always kept."""
        frame = [0.0, next(self._ids)]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            entry = self.stats.setdefault("job", [0, 0.0, 0.0, 0])
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += t1 - t0 - frame[0]
            self.spans.append((frame[1], 0, f"job:{label}", t0, t1))


# -- counting rings ------------------------------------------------------

RING_OPS = ("add", "mul", "sub", "neg", "inv")


class RingCounter:
    """Counts Ring method calls at the innermost base ring.

    Each concrete ring class gets a counting subclass, so ``isinstance``,
    ``==``, ``hash`` and ``literal()`` are unchanged.  A group ring keeps
    its class and gets a counting base, so an operation over ``c2:int`` is
    counted once, as the ``int`` operations it performs.  Zero tests are
    payload comparisons (``x != zero``), not Ring calls, and are not seen.
    """

    def __init__(self, rings_module):
        self.rings = rings_module
        self.counts = [0] * len(RING_OPS)
        self._classes: dict = {}
        self._patches: list = []

    def totals(self) -> dict:
        return dict(zip(RING_OPS, self.counts))

    def _counting_class(self, cls):
        sub_cls = self._classes.get(cls)
        if sub_cls is not None:
            return sub_cls
        counts = self.counts
        add, mul, neg, inv, sub = cls.add, cls.mul, cls.neg, cls.inv, cls.sub
        inherits_sub = sub is self.rings.Ring.sub

        class Counting(cls):
            def add(self, a, b):
                counts[0] += 1
                return add(self, a, b)

            def mul(self, a, b):
                counts[1] += 1
                return mul(self, a, b)

            def neg(self, a):
                counts[3] += 1
                return neg(self, a)

            def inv(self, a):
                counts[4] += 1
                return inv(self, a)

            if inherits_sub:
                # Ring.sub is add(a, neg(b)); count it once, as a sub
                def sub(self, a, b):
                    counts[2] += 1
                    return add(self, a, neg(self, b))
            else:
                def sub(self, a, b):
                    counts[2] += 1
                    return sub(self, a, b)

        Counting.__name__ = Counting.__qualname__ = "Counting" + cls.__name__
        self._classes[cls] = Counting
        self._classes[Counting] = Counting
        return Counting

    def counting(self, ring):
        """The same ring with a counting innermost base."""
        if isinstance(ring, self.rings.GroupRingC2):
            return type(ring)(self.counting(ring.base))
        cls = self._counting_class(type(ring))
        if type(ring) is cls:
            return ring
        out = cls.__new__(cls)
        out.__dict__.update(vars(ring))
        return out

    def install(self, package) -> None:
        """Make every binding of ``ring_from_literal`` return counting rings."""
        raw = self.rings.ring_from_literal

        @functools.wraps(raw)
        def counted_literal(text):
            return self.counting(raw(text))

        for mod in censym_modules(package).values():
            for name, obj in list(vars(mod).items()):
                if obj is raw:
                    self._patches.append((mod, name, raw))
                    setattr(mod, name, counted_literal)

    def uninstall(self) -> None:
        while self._patches:
            mod, name, raw = self._patches.pop()
            setattr(mod, name, raw)


# -- per-layer metrics ---------------------------------------------------

LAYER_MODULES = ("matrices", "basis", "linalg", "algebra", "frobenius",
                 "structure", "cellular", "cli", "reports")

ELEMENTWISE = ("matrices.Matrix.__add__", "matrices.Matrix.__sub__",
               "matrices.Matrix.conj_by_c", "matrices.Matrix.scale")
SOLVE = ("linalg.span_basis", "linalg.invert_matrix", "linalg.nullspace",
         "linalg.mat_vec")
IDEAL = ("algebra.ideal_generated", "algebra.quotient_by_ideal",
         "algebra.subalgebra_from_vectors")


def layer_metrics(traced: dict, counted: dict, plain: dict) -> dict:
    """Name -> (value, unit) for every per-layer metric, from the results
    of a traced, a counted and a plain pass of the same jobs."""
    st = traced["stats"]

    def calls(*names):
        return sum(st[n][0] for n in names if n in st)

    def incl(*names):
        return sum(st[n][1] for n in names if n in st)

    def self_s(*names):
        return sum(st[n][2] for n in names if n in st)

    def raised(*names):
        return sum(st[n][3] for n in names if n in st)

    def in_module(mod):
        return [n for n in st if n.split(".", 1)[0] == mod]

    rowbasis = [n for n in st if n.startswith("linalg.RowBasis.")]
    cli_checks = ["cli.run_check"] + [n for n in st if n.startswith("cli.check_")]
    sc_calls = calls("basis.structure_constants")
    sc_cold = traced["sc_cold"]
    inserts = calls("linalg.RowBasis.insert")
    ring_counts = counted["ring_counts"]
    out = {f"rings.{op}": (ring_counts[op], "count") for op in RING_OPS}
    out["rings.ops"] = (sum(ring_counts.values()), "count")
    out.update({
        "matrices.mul_calls": (calls("matrices.Matrix.__mul__"), "count"),
        "matrices.mul_self_s": (self_s("matrices.Matrix.__mul__"), "s"),
        "matrices.elementwise_calls": (calls(*ELEMENTWISE), "count"),
        "matrices.elementwise_self_s": (self_s(*ELEMENTWISE), "s"),
        "basis.sc_calls": (sc_calls, "count"),
        "basis.sc_cold_builds": (sc_cold, "count"),
        "basis.sc_hit_ratio": ((sc_calls - sc_cold) / sc_calls if sc_calls else 0.0, "ratio"),
        "basis.sc_build_s": (traced["sc_cold_s"], "s"),
        "basis.coords_calls": (calls("basis.coords"), "count"),
        "basis.coords_self_s": (self_s("basis.coords"), "s"),
        "linalg.rowbasis_calls": (calls(*rowbasis), "count"),
        "linalg.rowbasis_self_s": (self_s(*rowbasis), "s"),
        "linalg.insert_useful_ratio": (traced["inserts_grown"] / inserts if inserts else 0.0,
                                       "ratio"),
        "linalg.undetermined": (raised("linalg.RowBasis.insert", "linalg.invert_matrix"),
                                "count"),
        "linalg.solve_calls": (calls(*SOLVE), "count"),
        "linalg.solve_self_s": (self_s(*SOLVE), "s"),
        "algebra.mul_calls": (calls("algebra.StructureAlgebra.mul"), "count"),
        "algebra.mul_self_s": (self_s("algebra.StructureAlgebra.mul"), "s"),
        "algebra.check_witness_s": (incl("algebra.check_witness"), "s"),
        "algebra.validate_s": (incl("algebra.StructureAlgebra.validate"), "s"),
        "algebra.ideal_s": (incl(*IDEAL), "s"),
        "algebra.centre_s": (incl("algebra.centre"), "s"),
        "frobenius.verify_s": (incl("frobenius.verify_frobenius_system"), "s"),
        "frobenius.verify_self_s": (self_s("frobenius.verify_frobenius_system"), "s"),
        "frobenius.sep_split_s": (incl("frobenius.separability_check",
                                       "frobenius.splitness_check"), "s"),
        "structure.build_s": (traced["module_s"].get("structure", 0.0), "s"),
        "structure.build_self_s": (self_s(*in_module("structure")), "s"),
        "cellular.chain_build_s": (incl("cellular.cell_chain_odd", "cellular.cell_chain_even"),
                                   "s"),
        "cellular.verify_cell_ideal_s": (incl("cellular.verify_cell_ideal"), "s"),
        "cellular.verify_cell_chain_self_s": (self_s("cellular.verify_cell_chain"), "s"),
        "cellular.heredity_s": (incl("cellular.quasi_hereditary_chain_odd"), "s"),
        "cli.run_check_self_s": (self_s(*cli_checks), "s"),
        "cli.emit_s": (incl("cli.emit"), "s"),
        "cli.output_bytes": (plain["output_bytes"], "bytes"),
    })
    for mod in LAYER_MODULES:
        out[f"{mod}.self_s"] = (self_s(*in_module(mod)), "s")
    out["trace.overhead_ratio"] = (traced["ref_wall_s"] / plain["ref_wall_s"], "ratio")
    return out
