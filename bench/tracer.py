"""Outside-in tracer for the colombeau library.

The tracer changes nothing under ``src/``.  ``Tracer.install`` rebinds,
in every ``colombeau.*`` module namespace, each public function defined
in the package to a wrapper that records a span.  Every namespace is
patched, not only the defining one, because ``from .nets import
sup_norm_on_box`` gives each importing module its own binding.  On top
of that it wraps ``Net.at`` (cache misses only: those are net builds),
``Mollifier.deriv``, ``sympy.lambdify``, the evaluator of every SmoothFn
returned by ``from_sympy`` (a *leaf*), the evaluators of every net
returned by ``embed_rn``, and the integrand handed to ``integrate_box``.

Spans live in memory as parallel lists: name, start, end, parent index
and the key of the operation that was running.  A span's self time is
its duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.  Install the tracer before
any fixture is built, so that every leaf and net is wrapped.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import importlib
import pkgutil
import time
import types

import numpy as np

_clock = time.perf_counter


def _lattice_digest(pts) -> bytes:
    a = np.ascontiguousarray(pts, dtype=float)
    h = hashlib.blake2b(a.view(np.uint8), digest_size=16)
    h.update(repr(a.shape).encode())
    return h.digest()


class Tracer:
    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list = []
        self.child_s: list[float] = []
        self._stack: list[int] = []
        self.op_key = None
        self.counts = collections.Counter()
        self.leaf_keys: set = set()
        self._n_leaves = 0

    # -- spans ---------------------------------------------------------

    def begin(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_key)
        self.child_s.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(_clock())
        return i

    def finish(self, i: int):
        t = _clock()
        self.end[i] = t
        self._stack.pop()
        p = self.parent[i]
        if p >= 0:
            self.child_s[p] += t - self.start[i]

    def span(self, fn, name, before=None, after=None):
        """``fn`` wrapped in a span; ``before`` may rewrite the arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            i = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.finish(i)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # -- instrumented objects ----------------------------------------

    def wrap_leaf(self, sfn):
        """Count and time every evaluation of a sympy-built SmoothFn."""
        serial = self._n_leaves
        self._n_leaves += 1
        inner = sfn._partial_fn
        tracer, counts = self, self.counts

        def pfn(alpha, pts):
            i = tracer.begin("smooth.leaf")
            try:
                return inner(alpha, pts)
            finally:
                tracer.finish(i)
                counts["smooth.leaf_calls"] += 1
                counts["smooth.leaf_points"] += len(pts)
                tracer.leaf_keys.add((serial, alpha, _lattice_digest(pts)))

        sfn._partial_fn = pfn
        return sfn

    def wrap_embedded(self, net):
        """Time every evaluation of the SmoothFns an embedded net yields."""
        factory = net._factory
        tracer, counts = self, self.counts

        def traced_factory(eps):
            fn = factory(eps)
            inner = fn._partial_fn

            def pfn(alpha, pts):
                i = tracer.begin("embed.eval")
                try:
                    return inner(alpha, pts)
                finally:
                    tracer.finish(i)
                    counts["embed.eval_calls"] += 1
                    counts["embed.eval_points"] += len(pts)

            fn._partial_fn = pfn
            return fn

        net._factory = traced_factory
        return net

    def counted_integrand(self, fn):
        """A copy of ``fn`` whose evaluations add to the quadrature count."""
        from colombeau.smooth import SmoothFn

        inner, counts = fn._partial_fn, self.counts

        def pfn(alpha, pts):
            counts["gfunc.quad_points"] += len(pts)
            return inner(alpha, pts)

        return SmoothFn(fn.dim, pfn, fn.max_order, fn.uses_fd, fn.label)

    # -- installation ----------------------------------------------------

    def _hooks(self):
        counts = self.counts

        def count(key, amount=lambda a, k, out: 1):
            def after(args, kwargs, out):
                counts[key] += amount(args, kwargs, out)
            return after

        def integrand_first(args, kwargs):
            return (self.counted_integrand(args[0]),) + args[1:], kwargs

        def solved(args, kwargs, out):
            for tr in out:
                counts["mechanics.nfev"] += tr.nfev
                counts["mechanics.steps"] += tr.n_steps
                counts["mechanics.segments"] += tr.n_segments

        return {
            "smooth.from_sympy": (None, lambda a, k, out: self.wrap_leaf(out)),
            "smooth.lambdify": (None, count("smooth.lambdify_calls")),
            "embed.embed_rn": (None, lambda a, k, out: self.wrap_embedded(out)),
            "nets.box_lattice": (None, count("nets.lattice_points",
                                             lambda a, k, out: len(out))),
            "nets.sup_norm_on_box": (None, count("nets.sup_calls")),
            "asymptotic.estimate_order": (None, count("asymptotic.fit_calls")),
            "mollifier.build_mollifier": (None, count("mollifier.builds")),
            "gfunc.integrate_box": (integrand_first,
                                    count("gfunc.integrate_calls")),
            "mechanics.solve_singular_oscillator": (None, solved),
        }

    def install(self, extra=()):
        """Patch every colombeau namespace, and the modules in ``extra``."""
        import sympy

        import colombeau
        from colombeau.mollifier import Mollifier
        from colombeau.nets import Net

        modules = [colombeau, *extra]
        for info in pkgutil.iter_modules(colombeau.__path__):
            modules.append(importlib.import_module(f"colombeau.{info.name}"))
        hooks = self._hooks()
        wrapped: dict = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith("colombeau.")):
                    continue
                module = obj.__module__.rsplit(".", 1)[1]
                if module.startswith("_"):  # multi-index helpers, not a layer
                    continue
                name = f"{module}.{obj.__name__}"
                if obj not in wrapped:
                    wrapped[obj] = self.span(obj, name, *hooks.get(name, (None, None)))
                setattr(mod, attr, wrapped[obj])

        sympy.lambdify = self.span(sympy.lambdify, "smooth.lambdify",
                                   *hooks["smooth.lambdify"])

        tracer, counts = self, self.counts
        net_at, deriv = Net.at, Mollifier.deriv

        def at(net, eps):
            if float(eps) in net._cache:
                return net_at(net, eps)
            i = tracer.begin("nets.net_build")
            try:
                return net_at(net, eps)
            finally:
                tracer.finish(i)
                counts["nets.net_builds"] += 1

        def traced_deriv(mol, k, x):
            i = tracer.begin("mollifier.kernel")
            try:
                return deriv(mol, k, x)
            finally:
                tracer.finish(i)
                counts["mollifier.kernel_calls"] += 1
                counts["mollifier.kernel_points"] += int(np.size(x))

        Net.at = at
        Mollifier.deriv = traced_deriv

    # -- results ---------------------------------------------------------

    def outer_time(self, names) -> float:
        """Wall time covered by spans named in ``names``, nested ones once."""
        names = set(names)
        inside = [False] * len(self.name)
        total = 0.0
        for i, n in enumerate(self.name):
            p = self.parent[i]
            nested = p >= 0 and inside[p]
            if n in names:
                inside[i] = True
                if not nested:
                    total += self.end[i] - self.start[i]
            else:
                inside[i] = nested
        return total

    def self_time_by_module(self) -> dict:
        out = collections.defaultdict(float)
        for i, n in enumerate(self.name):
            out[n.split(".", 1)[0]] += (self.end[i] - self.start[i]) - self.child_s[i]
        return out

    def span_arrays(self) -> dict:
        names = sorted(set(self.name))
        index = {n: k for k, n in enumerate(names)}
        ops = sorted({o for o in self.op if o is not None})
        op_index = {o: k for k, o in enumerate(ops)}
        return {
            "names": np.array(names),
            "ops": np.array(ops),
            "name": np.array([index[n] for n in self.name], dtype=np.int32),
            "op": np.array([op_index.get(o, -1) for o in self.op], dtype=np.int32),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
        }
