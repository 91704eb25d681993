"""Outside-in layer tracing for the benchmark.

The tracer replaces the public entry points of each `modp` layer with
thin wrappers, wherever the function object is bound: module globals
(so `from .exactalg import f2_kernel_basis` in `modp.invariants` is
caught) and class attributes (so the aliases `Poly.__rmul__` and
`Poly.__radd__` are caught with `__mul__` and `__add__`).  Hot calls are
aggregated into per-layer counters, never recorded one by one.

A layer's self time is the time spent inside its outermost call minus
the time of the traced calls it made.  A call into a layer that is
already on the stack (for example `F2Matrix.rank` reaching
`_f2_pivot_rows`) is passed straight through, so `calls` counts entries
into the layer from outside it.
"""

from __future__ import annotations

import time


class Layer:
    """Aggregated counters of one layer."""

    __slots__ = ("name", "calls", "self_s", "depth", "sizes")

    def __init__(self, name: str, sizes: tuple[str, ...] = ()):
        self.name = name
        self.calls = 0
        self.self_s = 0.0
        self.depth = 0
        self.sizes = dict.fromkeys(sizes, 0)

    def reset(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.sizes = dict.fromkeys(self.sizes, 0)


def _basis_post(layer: Layer, result) -> None:
    n = len(result)
    layer.sizes["monomials"] += n
    if n > layer.sizes["max"]:
        layer.sizes["max"] = n


def _orbit_post(layer: Layer, result) -> None:
    layer.sizes["classes"] += len(result)


def _f2_pre(f2_matrix_type):
    def pre(layer: Layer, args: tuple) -> tuple:
        first = args[0]
        if isinstance(first, f2_matrix_type):
            rows, cols = len(first.rows), first.cols
        else:
            if not isinstance(first, list):
                first = list(first)
                args = (first,) + args[1:]
            rows = len(first)
            cols = args[1] if len(args) > 1 else max(
                (r.bit_length() for r in first), default=0)
        layer.sizes["rows"] += rows
        layer.sizes["cols"] += cols
        return args
    return pre


def layer_specs(m: dict) -> list[tuple]:
    """(layer name, entry points, size names, pre hook, post hook).

    `m` maps short module names to the imported `modp` modules.  Entry
    points are (module, dotted attribute) pairs."""
    ea = m["exactalg"]
    f2_pre = _f2_pre(ea.F2Matrix)
    return [
        ("exactalg.subst", [("exactalg", "SubstHom.apply")], (), None, None),
        ("exactalg.mul", [("exactalg", "Poly.__mul__")], (), None, None),
        ("exactalg.add", [("exactalg", "Poly.__add__")], (), None, None),
        ("exactalg.basis", [("exactalg", "PolyRing.monomials_of_degree")],
         ("monomials", "max"), None, _basis_post),
        ("exactalg.f2", [("exactalg", "_f2_pivot_rows"), ("exactalg", "f2_kernel_basis"),
                         ("exactalg", "F2Matrix.rank"),
                         ("exactalg", "F2Matrix.kernel_dimension"),
                         ("exactalg", "F2Matrix.kernel_basis")],
         ("rows", "cols"), f2_pre, None),
        ("exactalg.fp", [("exactalg", "FpMatrix.kernel_basis"), ("exactalg", "FpMatrix.rank"),
                         ("exactalg", "FpMatrix.kernel_dimension")], (), None, None),
        ("exactalg.det", [("exactalg", "determinant")], (), None, None),
        ("invariants.brute", [("invariants", "brute_invariant_dimension")], (), None, None),
        ("invariants.orbit", [("invariants", "_orbit_classes")], ("classes",), None,
         _orbit_post),
        ("invariants.verify", [("invariants", "verify_presentation")], (), None, None),
        ("charclass.deriv", [("charclass", "Derivation.__call__")], (), None, None),
        ("charclass.whitney", [("charclass", "whitney_sum")], (), None, None),
        ("charclass.jacobian", [("charclass", "jacobian_certificate")], (), None, None),
        ("charclass.dim_degree", [("charclass", "GradedPresentation.dim_degree")], (),
         None, None),
        ("quillen.dim", [("quillen", "quillen_dim")], (), None, None),
        ("quillen.sq", [("quillen", "SWRing.total_sq")], (), None, None),
        ("groupdata.bfs", [("groupdata", "weyl_length_series")], (), None, None),
        ("cli.parse", [("cli", "build_parser")], (), None, None),
        ("cli.emit", [("cli", "emit")], (), None, None),
    ]


class Tracer:
    """Installs and removes the layer wrappers; holds the counters."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.layers: dict[str, Layer] = {}
        self._stack = [0.0]
        self._bindings: list[tuple[object, str, object, object]] = []
        for name, entries, sizes, pre, post in layer_specs(modules):
            layer = self.layers[name] = Layer(name, sizes)
            for module_name, attr in entries:
                fn = self._resolve(module_name, attr)
                self._bind_everywhere(fn, self._wrapper(layer, fn, pre, post))
        self._add_cache_layer()

    # -- construction -------------------------------------------------

    def _resolve(self, module_name: str, dotted: str):
        owner = self.modules[module_name]
        *path, last = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        return vars(owner)[last] if isinstance(owner, type) else getattr(owner, last)

    def _bind_everywhere(self, fn, wrapper) -> None:
        """Record every module global and class attribute of `modp` that
        holds `fn`, so install() can swap in the wrapper."""
        found = 0
        for module in self.modules.values():
            owners = [module] + [v for v in vars(module).values()
                                 if isinstance(v, type) and v.__module__ == module.__name__]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        self._bindings.append((owner, attr, fn, wrapper))
                        found += 1
        if not found:
            raise RuntimeError(f"trace target {fn!r} is not bound anywhere in modp")

    def _wrapper(self, layer: Layer, fn, pre=None, post=None):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if layer.depth:
                return fn(*args, **kwargs)
            if pre is not None:
                args = pre(layer, args)
            layer.depth = 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                layer.depth = 0
                layer.calls += 1
                layer.self_s += dt - stack.pop()
                stack[-1] += dt
            if post is not None:
                post(layer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _add_cache_layer(self) -> None:
        """`ResultCache.roundtrip` gets a layer of its own whose self time
        excludes the `compute` callback (traced as `cli.compute`), plus
        hit and miss counters.  A `--no-cache` call counts as neither."""
        cache = self.layers["cli.cache"] = Layer("cli.cache", ("hits", "misses"))
        compute_layer = self.layers["cli.compute"] = Layer("cli.compute")
        cls = self.modules["cli"].ResultCache
        original = vars(cls)["roundtrip"]
        timed = self._wrapper(cache, original)

        def roundtrip(rc, op, params, compute):
            called = []

            def traced_compute():
                called.append(True)
                return self._wrapper(compute_layer, compute)()

            result = timed(rc, op, params, traced_compute)
            if rc.policy != "off":
                cache.sizes["misses" if called else "hits"] += 1
            return result

        roundtrip.__wrapped__ = original
        self._bindings.append((cls, "roundtrip", original, roundtrip))

    # -- use ----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def reset(self) -> None:
        for layer in self.layers.values():
            layer.reset()

    def snapshot(self) -> dict:
        """Flat {metric name: value} of every layer counter."""
        out = {}
        for name, layer in self.layers.items():
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.self_s"] = layer.self_s
            for size, value in layer.sizes.items():
                out[f"{name}.{size}"] = value
        return out
