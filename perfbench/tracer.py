"""Per-layer spans for hdx, attached from outside the package.

`Tracer.install()` replaces each traced function with a wrapper that records
a span: calls, and self time (the span's duration minus the time its child
spans cover). Spans are aggregated in memory per layer and read out after
the pass; nothing is written while a pass runs.

Several modules bind functions by name at import (`from .cohomology import
expansion` in cli, criterion, minimize and fat), so a function is replaced
in every `hdx` module namespace that holds it, not only where it is defined.
Methods of `Complex` and `F2Space` are replaced on the class.

Per-element helpers (`iter_bits`, `iter_span_gray`, `F2Space.reduce` and
`contains`, `Cochain.top_sum` and `norm`) are never wrapped: they run
millions of times inside one enumeration and a wrapper would swamp what is
being measured.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# (layer name, module, attribute); "Class.method" attributes are patched on
# the class, plain names in every hdx module that binds them.
LAYERS = (
    ("cli.main", "hdx.cli", "main"),
    ("generators.load_complex", "hdx.generators", "load_complex"),
    ("reportio.json_dumps", "hdx.reportio", "json_dumps"),
    ("core.build", "hdx.core", "Complex.__init__"),
    ("core.link", "hdx.core", "Complex.link"),
    ("core.localize", "hdx.core", "Complex.localize"),
    ("core.lift", "hdx.core", "Complex.lift"),
    ("f2.F2Space.add", "hdx.f2", "F2Space.add"),
    ("cohomology.space_basis", "hdx.cohomology", "space_basis"),
    ("cohomology.coboundary", "hdx.cohomology", "coboundary"),
    ("cohomology.expansion", "hdx.cohomology", "expansion"),
    ("cohomology.cosystole", "hdx.cohomology", "cosystole"),
    ("minimize.is_minimal", "hdx.minimize", "is_minimal"),
    ("minimize.is_locally_minimal", "hdx.minimize", "is_locally_minimal"),
    ("minimize.locally_minimize", "hdx.minimize", "locally_minimize"),
    ("fat.fat_profile", "hdx.fat", "fat_profile"),
    ("fat.verify_seep", "hdx.fat", "verify_seep"),
    ("spectral.regularity", "hdx.spectral", "regularity"),
    ("spectral.type_graph", "hdx.spectral", "type_graph"),
    ("spectral.lambda2", "hdx.spectral", "lambda2"),
    ("spectral.mixing_check_all", "hdx.spectral", "mixing_check_all"),
    ("spectral.skeleton_alpha", "hdx.spectral", "skeleton_alpha"),
    ("criterion.criterion_report", "hdx.criterion", "criterion_report"),
)

# Layers whose memo hits are counted: a call is a hit when it returns an
# object this pass has already seen returned.
HIT_LAYERS = ("cohomology.space_basis", "core.link")
# Layers whose enumerated elements are counted after the pass.
ELEMENT_LAYERS = ("cohomology.expansion", "cohomology.cosystole", "minimize.is_minimal")


def per_layer_metric_specs() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric, in report order."""
    specs = []
    for name, _, _ in LAYERS:
        specs.append((f"{name}.calls", "count"))
        specs.append((f"{name}.self_s", "s"))
        if name in ELEMENT_LAYERS:
            specs.append((f"{name}.elements", "count"))
            specs.append((f"{name}.elements_per_s", "1/s"))
        if name in HIT_LAYERS:
            specs.append((f"{name}.hit_ratio", "ratio"))
    specs += [
        ("cohomology.space_basis.rows", "count"),
        ("minimize.locally_minimize.steps", "count"),
        ("spectral.mixing_check_all.pairs_per_s", "1/s"),
        ("spectral.skeleton_alpha.subsets_per_s", "1/s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return specs


class Tracer:
    """Span recorder; install around one pass, uninstall, then read it out."""

    def __init__(self) -> None:
        self.calls = {name: 0 for name, _, _ in LAYERS}
        self.self_s = {name: 0.0 for name, _, _ in LAYERS}
        self.hits = {name: 0 for name in HIT_LAYERS}
        self.rows = 0
        self.steps = 0
        self.pairs = 0
        self.subsets = 0
        self._seen: dict[str, dict[int, object]] = {name: {} for name in HIT_LAYERS}
        self._deferred: list[tuple[str, tuple, dict, object]] = []
        self._stack: list[float] = []  # child time covered, per open span
        self._patched: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "hdx" or n.startswith("hdx."))]
        for name, modname, attr in LAYERS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is orig]:
                    self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, key, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - child
                if stack:
                    stack[-1] += dur
            tracer._observe(name, args, kwargs, result)
            return result

        return traced

    # -- counters ---------------------------------------------------------------

    def _observe(self, name, args, kwargs, result) -> None:
        if name in HIT_LAYERS:
            seen = self._seen[name]
            if id(result) in seen:
                self.hits[name] += 1
                return
            seen[id(result)] = result  # keeps the object alive, so ids stay unique
            if name == "cohomology.space_basis":
                self.rows += result.dim
        elif name in ELEMENT_LAYERS:
            self._deferred.append((name, args, kwargs, result))
        elif name == "minimize.locally_minimize":
            self.steps += len(result.steps)
        elif name == "spectral.mixing_check_all":
            self.pairs += 4 ** len(args[0].vertex_names)
        elif name == "spectral.skeleton_alpha" and result.mode == "exhaustive":
            self.subsets += 1 << len(args[0].vertex_names)

    def elements(self) -> dict[str, int]:
        """Enumerated elements per layer; call after `uninstall`.

        Counted from the inputs, using bases the traced calls memoized:
        2^|X(k)| - 2^dim S for expansion, 2^dim Z^k for cosystole, and
        2^dim B^k for an is_minimal call that returned True (a False answer
        may have exited early, so it counts nothing).
        """
        import hdx

        sigs = {
            "cohomology.expansion": inspect.signature(hdx.cohomology.expansion),
            "cohomology.cosystole": inspect.signature(hdx.cohomology.cosystole),
            "minimize.is_minimal": inspect.signature(hdx.minimize.is_minimal),
        }
        out = {name: 0 for name in ELEMENT_LAYERS}
        for name, args, kwargs, result in self._deferred:
            a = sigs[name].bind(*args, **kwargs).arguments
            X = a["X"]
            if name == "cohomology.expansion":
                kind = "coboundaries" if a["mode"] == "coboundary" else "cocycles"
                dim = hdx.space_basis(X, a["k"], kind).dim
                out[name] += (1 << X.n_faces(a["k"])) - (1 << dim)
            elif name == "cohomology.cosystole":
                out[name] += 1 << hdx.space_basis(X, a["k"], "cocycles").dim
            elif result and a["A"].k >= 0:
                out[name] += 1 << hdx.space_basis(X, a["A"].k, "coboundaries").dim
        return out
