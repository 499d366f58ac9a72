"""Per-layer metrics computed from a tracer's spans and counters.

``raw`` gives additive quantities, so the figures of several processes
(the cli-cold children) can be summed before ``finish`` derives the
ratios.  Every time metric is the wall time covered by the named spans,
counting a span nested in another of the same set once.
"""

from __future__ import annotations

# the modules whose span self time is reported as <module>.self_s
LAYER_MODULES = ("asymptotic", "embed", "experiments", "forms", "gfunc",
                 "gnumber", "manifold", "manifolds", "mechanics", "mollifier",
                 "nets", "smooth", "tensor")

OP_BUILDERS = {"tensor.tensor_product", "tensor.contract", "tensor.field_apply",
               "tensor.gen_lie_derivative", "tensor.lie_derivative_tensor",
               "tensor.bracket", "forms.exterior_d", "forms.wedge", "forms.insert",
               "forms.lie_derivative_form"}

SPAN_TIMES = {
    "smooth.leaf_s": {"smooth.leaf"},
    "smooth.lambdify_s": {"smooth.lambdify"},
    "nets.sup_s": {"nets.sup_norm_on_box"},
    "nets.net_build_s": {"nets.net_build"},
    "asymptotic.fit_s": {"asymptotic.estimate_order"},
    "embed.eval_s": {"embed.eval"},
    "gfunc.integrate_s": {"gfunc.integrate_box"},
    "gfunc.associate_s": {"gfunc.associate"},
    "gfunc.coherence_s": {"gfunc.coherence_check"},
    "gfunc.classify_s": {"gfunc.classify"},
    "gfunc.point_value_s": {"gfunc.point_value"},
    "tensor.coherence_s": {"tensor.coherence_check_tensor"},
    "tensor.op_build_s": OP_BUILDERS,
    "forms.coherence_s": {"forms.coherence_check_form"},
    "forms.stokes_s": {"forms.stokes_check"},
    "forms.homotopy_s": {"forms.homotopy_H"},
    "mechanics.solve_s": {"mechanics.solve_singular_oscillator"},
    "manifolds.build_s": {"manifolds.circle", "manifolds.torus2", "manifolds.euclidean"},
    "mollifier.build_s": {"mollifier.build_mollifier"},
}

# the counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = ("smooth.leaf_calls", "smooth.leaf_distinct", "smooth.lambdify_calls",
                "nets.lattice_points", "mollifier.kernel_calls", "gfunc.quad_points",
                "mechanics.nfev", "mechanics.steps")

COUNTS = ("smooth.leaf_calls", "smooth.leaf_points", "smooth.lambdify_calls",
          "nets.sup_calls", "nets.lattice_points", "nets.net_builds",
          "asymptotic.fit_calls", "embed.eval_calls", "embed.eval_points",
          "gfunc.integrate_calls", "gfunc.quad_points", "mechanics.nfev",
          "mechanics.steps", "mechanics.segments", "mollifier.builds",
          "mollifier.kernel_calls", "mollifier.kernel_points")

def unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(("_us", "_us_per_call")):
        return "us"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def raw(tracer) -> dict:
    out = {name: tracer.outer_time(spans) for name, spans in SPAN_TIMES.items()}
    out.update({name: tracer.counts[name] for name in COUNTS})
    out["smooth.leaf_distinct"] = len(tracer.leaf_keys)
    self_s = tracer.self_time_by_module()
    out.update({f"{m}.self_s": self_s.get(m, 0.0) for m in LAYER_MODULES})
    return out


def add(total: dict, part: dict) -> dict:
    return {k: total.get(k, 0) + v for k, v in part.items()}


def finish(r: dict) -> dict:
    out = dict(r)
    calls = r["smooth.leaf_calls"]
    out["smooth.leaf_distinct_ratio"] = r["smooth.leaf_distinct"] / calls if calls else 0.0
    out["smooth.leaf_us_per_call"] = 1e6 * r["smooth.leaf_s"] / calls if calls else 0.0
    nfev = r["mechanics.nfev"]
    out["mechanics.rhs_us"] = 1e6 * r["mechanics.solve_s"] / nfev if nfev else 0.0
    return out
