"""Per-layer tracing installed from outside the package.

Each traced function is replaced by a wrapper in every namespace that
holds it: the defining module, every toruslie module that imported it by
name (`from .indices import add`), the package namespace, and module-level
tables such as suites.SUITES.  Methods are replaced on their class.  The
wrappers keep a stack of open spans, so each layer gets a call count and
an inclusive time (outermost calls only, so recursion is not counted
twice), and probe.closure a self time (its time minus the traced calls
it made).  Spans are
aggregated per name in memory; nothing is written while the pass runs.
A reduce made inside an insert is part of the insert, and not traced.
"""

from __future__ import annotations

import importlib
import random
import statistics
import sys
import time
import types

# metric prefix -> (module, attribute); "Class.method" patches the class
TIMED = {
    "linalg.insert": ("toruslie.linalg", "SpanBasis.insert"),
    "linalg.reduce": ("toruslie.linalg", "SpanBasis.reduce"),
    "linalg.kernel_of_map": ("toruslie.linalg", "kernel_of_map"),
    "probe.apply_gen": ("toruslie.probe", "_apply_gen"),
    "probe.closure": ("toruslie.probe", "closure"),
    "probe.kernel_at": ("toruslie.probe", "kernel_at"),
    "probe.coeff_extract": ("toruslie.probe", "coeff_extract"),
    "tensor.image_probe": ("toruslie.tensor", "image_probe"),
    "tensor.act_direct": ("toruslie.tensor", "act_direct"),
    "tensor.derham_map": ("toruslie.tensor", "derham_map"),
    "tensor.derham_image_graded": ("toruslie.tensor", "derham_image_graded"),
    "weyl.commutator": ("toruslie.weyl", "commutator"),
    "weyl.operator_apply": ("toruslie.weyl", "operator_apply"),
    "fields.bracket": ("toruslie.fields", "bracket"),
    "fields.field_apply": ("toruslie.fields", "field_apply"),
    "fields.spanning_generators": ("toruslie.fields", "spanning_generators"),
    "glmod.unit_table": ("toruslie.glmod", "FinModule.unit_table"),
    "suites.identities": ("toruslie.suites", "run_identities"),
    "suites.axioms": ("toruslie.suites", "run_axioms"),
    "suites.derham": ("toruslie.suites", "run_derham"),
    "suites.minuscule": ("toruslie.suites", "run_minuscule"),
    "cli.emit_json": ("toruslie.cli", "emit_json"),
}

# counted only: these are called millions of times, and a clock read per
# call would cost more than the call
COUNTED = {
    "indices.add": ("toruslie.indices", "add"),
    "glmod.module_builds": ("toruslie.glmod", "FinModule.__init__"),
}

CLOSURE_COUNTERS = ("apps", "inserts", "pruned", "drops")

COUNT, RATIO, SEC = "count", "ratio", "s"

#: every per-layer metric, in output order: name -> unit
PER_LAYER = {}
for _name, _fields in (
        ("linalg.insert", ("calls", "s", "grew_ratio")),
        ("linalg.reduce", ("calls", "s")),
        ("linalg.kernel_of_map", ("calls", "s")),
        ("probe.apply_gen", ("calls", "s")),
        ("probe.closure", ("calls", "self_s") + CLOSURE_COUNTERS
         + ("waste_ratio", "fill_ratio")),
        ("probe.kernel_at", ("calls", "s")),
        ("probe.coeff_extract", ("calls", "s")),
        ("tensor.image_probe", ("calls", "s")),
        ("tensor.act_direct", ("calls", "s")),
        ("tensor.derham_map", ("calls", "s")),
        ("tensor.derham_image_graded", ("calls", "s")),
        ("weyl.commutator", ("calls", "s")),
        ("weyl.operator_apply", ("calls", "s")),
        ("fields.bracket", ("calls", "s")),
        ("fields.field_apply", ("calls", "s")),
        ("fields.spanning_generators", ("calls", "s")),
        ("glmod.unit_table", ("calls",)),
        ("suites.identities", ("s",)),
        ("suites.axioms", ("s",)),
        ("suites.derham", ("s",)),
        ("suites.minuscule", ("s",)),
        ("cli.emit_json", ("s",)),
        ("indices.add", ("calls",))):
    for _field in _fields:
        PER_LAYER["%s.%s" % (_name, _field)] = (
            SEC if _field in ("s", "self_s") else
            RATIO if _field.endswith("_ratio") else COUNT)
PER_LAYER["glmod.module_builds"] = COUNT
PER_LAYER["trace.overhead_ratio"] = RATIO
PER_LAYER["rational.muladd_ns"] = "ns"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "toruslie" or name.startswith("toruslie."))
            and isinstance(m, types.ModuleType)]


def _resolve(module: str, attr: str):
    """(owner, attribute name, original), or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        orig = owner.__dict__.get(last)
    else:
        orig = getattr(owner, last, None)
    return None if orig is None else (owner, last, orig)


class Tracer:
    """Installs the wrappers, aggregates spans, and restores on remove()."""

    def __init__(self):
        self.stats = {}          # name -> [calls, inclusive s, depth]
        self.closure_self_s = 0.0
        self.grew = 0            # SpanBasis.insert calls that grew the rank
        self.closure = dict.fromkeys(CLOSURE_COUNTERS + ("central_rank",), 0)
        self.missing = []        # targets a later refactor removed
        self._stack = []         # open spans: [name, time in traced children]
        self._undo = []          # (owner, key, original)
        self._originals = {}     # id(original) -> metric prefix
        self._wrappers = set()   # ids of installed wrappers

    # ----------------------------------------------------------- wrappers

    def _timed(self, name, fn, on_result=None):
        st = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        skip = "linalg.insert" if name == "linalg.reduce" else None
        closure = name == "probe.closure"

        def traced(*args, **kwargs):
            if skip is not None and stack and stack[-1][0] == skip:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            st[2] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st[2] -= 1
                st[0] += 1
                if not st[2]:
                    st[1] += dt
                if closure:
                    self.closure_self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, name, fn):
        st = self.stats.setdefault(name, [0, 0.0, 0])

        def counted(*args, **kwargs):
            st[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _on_insert(self, grew):
        if grew:
            self.grew += 1

    def _on_closure(self, res):
        for key in CLOSURE_COUNTERS:
            self.closure[key] += res.counters.get(key, 0)
        self.closure["central_rank"] += res.central_rank

    # ------------------------------------------------------- installation

    def install(self) -> None:
        hooks = {"linalg.insert": self._on_insert,
                 "probe.closure": self._on_closure}
        for table, timed in ((TIMED, True), (COUNTED, False)):
            for name, (module, attr) in table.items():
                found = _resolve(module, attr)
                if found is None:
                    self.missing.append(name)
                    continue
                owner, last, orig = found
                wrapper = (self._timed(name, orig, hooks.get(name)) if timed
                           else self._counted(name, orig))
                self._originals[id(orig)] = name
                self._wrappers.add(id(wrapper))
                if isinstance(owner, type):
                    self._set(owner, last, wrapper)
                else:
                    self._replace_everywhere(orig, wrapper)

    def _set(self, owner, key, value):
        """Bind key to value in a module, class or dict, remembering the old."""
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def _replace_everywhere(self, orig, wrapper):
        for mod in _package_modules():
            space = vars(mod)
            for key, value in list(space.items()):
                if value is orig:
                    self._set(mod, key, wrapper)
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is orig:
                            self._set(value, dkey, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def leftovers(self) -> list:
        """Places a traced original is still reachable, so calls would be missed.

        Looks further than install() patches: into module-level lists,
        tuples and sets, and into the defaults and closure cells of every
        function and method defined in the package.
        """
        found = []

        def look(where, value):
            if id(value) in self._originals:
                found.append("%s -> %s" % (where, self._originals[id(value)]))

        def look_function(where, fn):
            if id(fn) in self._wrappers:
                return
            for value in (fn.__defaults__ or ()):
                look(where + " default", value)
            for value in (fn.__kwdefaults__ or {}).values():
                look(where + " default", value)
            for cell in (fn.__closure__ or ()):
                try:
                    look(where + " closure", cell.cell_contents)
                except ValueError:  # empty cell
                    pass

        for mod in _package_modules():
            for key, value in vars(mod).items():
                where = "%s.%s" % (mod.__name__, key)
                look(where, value)
                if isinstance(value, (list, tuple, set, frozenset)):
                    for item in value:
                        look(where + "[]", item)
                elif type(value) is dict:
                    for item in value.values():
                        look(where + "{}", item)
                elif isinstance(value, types.FunctionType):
                    look_function(where, value)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    for ckey, cvalue in vars(value).items():
                        look("%s.%s" % (where, ckey), cvalue)
                        if isinstance(cvalue, types.FunctionType):
                            look_function("%s.%s" % (where, ckey), cvalue)
        return found

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict:
        """Every per-layer metric except the two the caller measures."""
        out = {}
        for name, (calls, incl, _) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".s"] = incl
        out["probe.closure.self_s"] = self.closure_self_s
        out["glmod.module_builds"] = out.get("glmod.module_builds.calls", 0)
        inserts = out.get("linalg.insert.calls", 0)
        out["linalg.insert.grew_ratio"] = self.grew / inserts if inserts else 0.0
        c = self.closure
        for key in CLOSURE_COUNTERS:
            out["probe.closure." + key] = c[key]
        out["probe.closure.waste_ratio"] = (1 - c["inserts"] / c["apps"]
                                            if c["apps"] else 0.0)
        out["probe.closure.fill_ratio"] = (c["central_rank"] / c["inserts"]
                                           if c["inserts"] else 0.0)
        return {name: out.get(name, 0) for name in PER_LAYER
                if name not in ("trace.overhead_ratio", "rational.muladd_ns")}


def muladd_ns(seed: int, ops: int = 4096, repeats: int = 9) -> float:
    """Median ns per exact x + c * a on operands with denominators dividing 30.

    The workloads' twist has denominators 2, 3 and 5, so their scalars
    live in (1/30)Z before elimination mixes them.  The time includes the
    loop's own overhead, a few percent of one operation.
    """
    rational = importlib.import_module("toruslie.rational")
    rng = random.Random("muladd:%d" % seed)
    pool = [rational.rat(rng.choice([-1, 1]) * rng.randint(1, 30),
                         rng.choice((1, 2, 3, 5, 6, 10, 15, 30)))
            for _ in range(256)]
    triples = [(rng.choice(pool), rng.choice(pool), rng.choice(pool))
               for _ in range(ops)]
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for x, c, a in triples:
            x + c * a
        samples.append((time.perf_counter() - t0) / ops * 1e9)
    return statistics.median(samples)


def backend() -> str:
    """Name of the exact scalar type in use (Fraction without gmpy2)."""
    return type(importlib.import_module("toruslie.rational").ONE).__name__
