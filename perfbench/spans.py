"""Span tracing of the neurocode layers, applied from outside the library.

``Tracer.install`` replaces the public functions of each library module
with timing wrappers in every module namespace that holds them (so the
names that ``cli``, ``classify``, ``complexes`` and ``survey`` imported are
wrapped too), wraps the constructors of the whole-code structures and the
``cached_property`` members of ``Code``, and ``uninstall`` restores every
original. Helpers that act on a single word, mask, interval or
pseudomonomial are left alone: they run per element, and their time stays
in the self time of the layer that calls them.

Each span carries its name, start, end, parent and request id; spans stay
in memory until ``write``. Self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict
from functools import cached_property, wraps

PACKAGE = "neurocode"
MODULES = ("io", "codes", "ideals", "complexes", "classify", "survey", "cli")

# Per-element helpers, not traced (see the module docstring).
LEAF_HELPERS = {
    "codes": {"full_mask", "mask_from_neurons", "neurons_from_mask", "submasks"},
    "ideals": {"indicator", "evaluate", "divides", "in_neural_ideal", "interval_to_pm"},
    "complexes": {"polarize", "is_effective", "face_to_interval"},
    "io": {"word_text", "interval_text", "monomial_prime_text"},
}

# Whole-code structures whose construction (with its validation) is a layer.
CONSTRUCTORS = {"codes": ("Code",), "ideals": ("CanonicalForm",),
                "complexes": ("SimplicialComplex", "SquarefreeMonomialIdeal")}

# Artifacts whose reuse is counted: a call is a hit when the code object
# already holds the artifact (Code properties: the instance dict has it;
# functions: the same function already returned for that object).
CACHED_FUNCTIONS = {"ideals.canonical_form", "complexes.factor_complex",
                    "complexes.factor_ideal", "complexes.polar_ideal",
                    "complexes.polar_complex", "complexes.prime_sets"}
CACHED_PROPERTIES = {"complement", "maximal_codewords", "maximal_intervals"}

DECIDERS = ("is_intersection_complete_bruteforce", "is_intersection_complete_cf",
            "is_intersection_complete_facets", "is_mic_bruteforce",
            "is_mic_algebraic", "is_mic_facets")

# Layers reported by name; anything else traced lands in "<module>.other".
LAYERS = (
    "io.parse_document", "io.parse_code", "io.render_code_document",
    "codes.Code", "codes.word_list", "codes.word_bits", "codes.complement",
    "codes.maximal_codewords", "codes.maximal_intervals",
    "ideals.canonical_form", "ideals.cf_monomials", "ideals.primary_decomposition",
    "ideals.CanonicalForm",
    "complexes.minimal_transversals", "complexes.downward_closure",
    "complexes.polar_ideal", "complexes.factor_ideal", "complexes.complex_of_ideal",
    "complexes.ideal_of_complex", "complexes.factor_complex",
    "complexes.polar_complex", "complexes.prime_sets", "complexes.sr_minimal_primes",
    "complexes.SimplicialComplex", "complexes.SquarefreeMonomialIdeal",
    *(f"classify.{d}" for d in DECIDERS), "classify.verify_dictionary",
    "survey.code_from_id", "survey.survey", "survey.summarize",
    "cli.run_command",
)
CACHE_ARTIFACTS = ("complement", "maximal_codewords", "maximal_intervals",
                   "canonical_form", "factor_complex", "factor_ideal",
                   "polar_ideal", "polar_complex", "prime_sets")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order.

    Times and counts are means per traced request.
    """
    out = [(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS]
    out += [(f"{m}.other.self_ms", "ms", "lower") for m in MODULES]
    out += [("io.parse_code.words", "count", "higher"),
            ("codes.Code.calls", "count", "lower"),
            ("codes.maximal_intervals.count", "count", "higher"),
            ("ideals.canonical_form.elements", "count", "higher"),
            ("complexes.minimal_transversals.calls", "count", "lower"),
            ("complexes.minimal_transversals.output", "count", "higher"),
            ("cli.output_bytes", "bytes", "higher")]
    for art in CACHE_ARTIFACTS:
        out += [(f"cache.{art}.hits", "count", "higher"),
                (f"cache.{art}.misses", "count", "lower")]
    out += [(f"classify.{d}.elapsed_over_self", "ratio", "lower") for d in DECIDERS]
    out += [("classify.elapsed_over_self", "ratio", "lower"),
            ("trace.overhead_ratio", "ratio", "lower"),
            ("trace.unattributed_ms", "ms", "lower"),
            ("trace.request_wall_ms", "ms", "lower")]
    return out


class _Frame:
    __slots__ = ("index", "start", "child_ns")

    def __init__(self, index: int, start: int):
        self.index = index
        self.start = start
        self.child_ns = 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # span columns: name id, start ns, end ns, parent index, request id
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_request = array("q")
        self.stack: list[_Frame] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.reported_ns: dict[str, int] = defaultdict(int)  # decider elapsed_us
        self.decider_self_ns: dict[str, int] = defaultdict(int)
        self.top_ns = 0
        self.request = -1
        self._held: dict[tuple[int, str], object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_request(self) -> None:
        """Start a new request id; artifact ownership is tracked per request."""
        self.request += 1
        self._held.clear()

    def enter(self, nid: int) -> _Frame:
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1].index if self.stack else -1)
        self.span_request.append(self.request)
        self.span_end.append(0)
        frame = _Frame(index, time.perf_counter_ns())
        self.span_start.append(frame.start)
        self.stack.append(frame)
        return frame

    def exit(self, frame: _Frame, name: str) -> int:
        """Close ``frame``; returns its self time in ns."""
        end = time.perf_counter_ns()
        stack = self.stack
        while stack and stack.pop() is not frame:
            pass  # frames opened just before an interrupt never closed
        self.span_end[frame.index] = end
        dur = end - frame.start
        own = dur - frame.child_ns
        if stack:
            stack[-1].child_ns += dur
        else:
            self.top_ns += dur
        self.self_ns[name] += own
        self.calls[name] += 1
        return own

    def _held_before(self, obj, artifact: str) -> bool:
        key = (id(obj), artifact)
        if key in self._held:
            return True
        self._held[key] = obj  # keeps id(obj) unique for the request
        return False

    # -- wrappers ------------------------------------------------------
    def _wrap_function(self, name: str, fn):
        tracer, nid = self, self._id(name)
        artifact = name.split(".", 1)[1] if name in CACHED_FUNCTIONS else None
        decider = name.split(".", 1)[1] if name.startswith("classify.is_") else None

        @wraps(fn)
        def traced(*args, **kwargs):
            hit = False
            if artifact is not None:
                key = artifact + repr(args[1:]) + repr(sorted(kwargs.items()))
                hit = tracer._held_before(args[0], key)
                tracer.counts[f"cache.{artifact}.{'hits' if hit else 'misses'}"] += 1
            frame = tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                own = tracer.exit(frame, name)
            if inspect.isgenerator(result):
                return tracer._wrap_iterator(name, nid, result)
            if decider is not None:
                tracer.reported_ns[decider] += result.elapsed_us * 1000
                tracer.decider_self_ns[decider] += own
            elif name == "io.parse_code":
                tracer.counts["io.parse_code.words"] += len(result.words)
            elif name == "ideals.canonical_form" and not hit:
                tracer.counts["ideals.canonical_form.elements"] += len(result.elements)
            elif name == "complexes.minimal_transversals":
                tracer.counts["complexes.minimal_transversals.output"] += len(result)
            return result
        return traced

    def _wrap_iterator(self, name: str, nid: int, it):
        """Each step of a returned generator is a span of the same name."""
        while True:
            frame = self.enter(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.exit(frame, name)
            yield item

    def _wrap_property(self, name: str, prop: cached_property):
        tracer, nid, attr = self, self._id(name), prop.attrname
        counted = attr in CACHED_PROPERTIES

        class TracedProperty:
            # a data descriptor, so cached values still pass through __get__
            def __get__(self, obj, owner=None):
                if obj is None:
                    return self
                cache = obj.__dict__
                if attr in cache:
                    if counted:
                        tracer.counts[f"cache.{attr}.hits"] += 1
                    return cache[attr]
                if counted:
                    tracer.counts[f"cache.{attr}.misses"] += 1
                frame = tracer.enter(nid)
                try:
                    value = prop.func(obj)
                finally:
                    tracer.exit(frame, name)
                cache[attr] = value
                if attr == "maximal_intervals":
                    tracer.counts["codes.maximal_intervals.count"] += len(value)
                return value

            def __set__(self, obj, value):
                raise AttributeError(attr)

        return TracedProperty()

    def _replace(self, owner, key, new) -> None:
        """Swap an attribute (or, for a dict, an item), remembering the original."""
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._restore.append((owner, key, vars(owner)[key]))
            setattr(owner, key, new)

    def install(self) -> None:
        mods = {m: sys.modules[f"{PACKAGE}.{m}"] for m in MODULES}
        wrapped = {}  # original object -> wrapper
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and attr not in LEAF_HELPERS.get(short, ())):
                    wrapped[obj] = self._wrap_function(f"{short}.{attr}", obj)
            for cls_name in CONSTRUCTORS.get(short, ()):
                cls = getattr(mod, cls_name)
                self._replace(cls, "__init__",
                              self._wrap_function(f"{short}.{cls_name}", cls.__init__))
        code_cls = mods["codes"].Code
        for attr, obj in list(vars(code_cls).items()):
            if isinstance(obj, cached_property):
                self._replace(code_cls, attr, self._wrap_property(f"codes.{attr}", obj))
        # every namespace that imported a wrapped function by name, and the
        # module-level dispatch tables (such as cli's method tables)
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._replace(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            self._replace(obj, key, wrapped[value])

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- results -------------------------------------------------------
    def write(self, path) -> int:
        """Write every span as CSV (gzip); returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index,name,start_ns,end_ns,parent,request\n")
            for i in range(len(self.span_name)):
                out.write(f"{i},{self.names[self.span_name[i]]},{self.span_start[i]},"
                          f"{self.span_end[i]},{self.span_parent[i]},"
                          f"{self.span_request[i]}\n")
        return len(self.span_name)


def namespace_snapshot() -> dict:
    """Every module attribute, dict item and class attribute of the package,
    so a caller can confirm that ``uninstall`` restored them all."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attr, obj in vars(mod).items():
            snap[name, attr] = obj
            if isinstance(obj, dict) and attr != "__builtins__":
                snap.update(((name, attr, key), value) for key, value in obj.items())
            elif isinstance(obj, type):
                snap.update(((name, attr, key), value) for key, value in vars(obj).items())
    return snap


def layer_metrics(tracer: Tracer, requests: int, wall_ns: int, overhead: float) -> dict:
    """Per-layer metrics, as means per traced request."""
    per = max(requests, 1)
    ms = 1e-6 / per
    values = {}
    other = defaultdict(int)
    known = set(LAYERS)
    for name, ns in tracer.self_ns.items():
        if name not in known:
            other[name.split(".", 1)[0]] += ns
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = tracer.self_ns.get(layer, 0) * ms
    for m in MODULES:
        values[f"{m}.other.self_ms"] = other.get(m, 0) * ms
    values["codes.Code.calls"] = tracer.calls.get("codes.Code", 0) / per
    values["complexes.minimal_transversals.calls"] = \
        tracer.calls.get("complexes.minimal_transversals", 0) / per
    for key in ("io.parse_code.words", "codes.maximal_intervals.count",
                "ideals.canonical_form.elements", "complexes.minimal_transversals.output",
                "cli.output_bytes"):
        values[key] = tracer.counts.get(key, 0) / per
    for art in CACHE_ARTIFACTS:
        for kind in ("hits", "misses"):
            values[f"cache.{art}.{kind}"] = tracer.counts.get(f"cache.{art}.{kind}", 0) / per
    for d in DECIDERS:
        own = tracer.decider_self_ns.get(d, 0)
        values[f"classify.{d}.elapsed_over_self"] = (
            tracer.reported_ns.get(d, 0) / own if own else 0.0)
    own = sum(tracer.decider_self_ns.values())
    values["classify.elapsed_over_self"] = (
        sum(tracer.reported_ns.values()) / own if own else 0.0)
    values["trace.overhead_ratio"] = overhead
    values["trace.unattributed_ms"] = (wall_ns - tracer.top_ns) * ms
    values["trace.request_wall_ms"] = wall_ns * ms
    return values
