"""Per-layer metrics from the spans of a traced run and the ops' own counts.

Every workload prints every metric; a layer the workload leaves idle
reads 0.  Times come from the traced run, scaled to the reference CPU
speed, so they include the tracing cost that ``trace.overhead_frac``
reports.
"""

from __future__ import annotations

from tracing import SpanStats

US, MS = 1e3, 1e6  # nanoseconds per unit


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(spans, stats, op_factors=None):
    """Return ({name: value}, {name: unit}) for one traced sample.

    ``op_factors[op]`` scales the times of that op's spans (see speed.py).
    """
    s = SpanStats(spans, op_factors)
    total = lambda key: sum(stats.get(key, []))  # noqa: E731
    iterations = total("iterations")
    config_iterations = total("config_iterations")
    steps = iterations + config_iterations
    breaks = total("monotone_breaks")
    element_sweeps = total("element_sweeps")
    spectra = s.calls["spectral.hessian_spectrum"]

    m = {}
    m["flow.field_evals_per_iteration"] = (
        _ratio(s.below("elements.field", "flow.integrate")[0], iterations), "count")
    m["flow.halvings"] = (total("halvings"), "count")
    m["flow.monotone_breaks"] = (breaks, "count")
    m["flow.break_ratio"] = (_ratio(breaks, steps), "ratio")
    m["flow.us_per_iteration"] = (
        _ratio(s.total_ns["flow.integrate"] / US, iterations), "us")
    m["flow.integrate_batch.us_per_config_iteration"] = (
        _ratio(s.total_ns["flow.integrate_batch"] / US, config_iterations), "us")
    m["flow.integrate_batch.field_rows_per_config_iteration"] = (
        _ratio(s.below("elements.field_batch", "flow.integrate_batch")[1],
               config_iterations), "count")
    m["flow.integrate_batch.tail_ratio"] = (
        _ratio(total("tail_ratio"), total("batches")), "ratio")
    m["elements.field.calls"] = (s.calls["elements.field"], "count")
    m["elements.field.self_us_mean"] = (s.self_mean("elements.field", US), "us")
    m["elements.field_batch.calls"] = (s.calls["elements.field_batch"], "count")
    m["elements.field_batch.configs"] = (s.size["elements.field_batch"], "count")
    m["elements.field_batch.ns_per_config"] = (
        _ratio(s.self_ns["elements.field_batch"], s.size["elements.field_batch"]), "ns")
    m["elements.mean_volume.calls"] = (s.calls["elements.mean_volume"], "count")
    m["elements.mean_volume.self_us_mean"] = (s.self_mean("elements.mean_volume", US), "us")
    m["mesh.quality_report.self_ms_mean"] = (s.self_mean("mesh.quality_report", MS), "ms")
    m["mesh.mesh_mean_volume.self_ms_mean"] = (
        s.self_mean("mesh.mesh_mean_volume", MS), "ms")
    m["mesh.quality_share"] = (
        _ratio(s.total_ns["mesh.quality_report"], s.total_ns["mesh.smooth"]), "frac")
    m["mesh.smooth_step.self_ms_mean"] = (s.self_mean("mesh.smooth_step", MS), "ms")
    m["mesh.sweeps"] = (s.calls["mesh.smooth_step"], "count")
    m["mesh.us_per_element_sweep"] = (
        _ratio(s.total_ns["mesh.smooth"] / US, element_sweeps), "us")
    m["mesh.load_mesh.ms"] = (s.total_mean("mesh.load_mesh", MS), "ms")
    m["mesh.save_mesh.ms"] = (s.total_mean("mesh.save_mesh", MS), "ms")
    m["sphere.pi.calls"] = (s.calls["sphere.pi"], "count")
    m["sphere.pi.self_us_mean"] = (s.self_mean("sphere.pi", US), "us")
    m["sphere.push_tangent.calls"] = (s.calls["sphere.push_tangent"], "count")
    m["sphere.push_tangent.self_us_mean"] = (s.self_mean("sphere.push_tangent", US), "us")
    m["sphere.psi.calls"] = (s.calls["sphere.psi"], "count")
    m["spectral.hessian_spectrum.self_ms_mean"] = (
        s.self_mean("spectral.hessian_spectrum", MS), "ms")
    m["spectral.asymmetry_ratio.self_ms_mean"] = (
        s.self_mean("spectral.asymmetry_ratio", MS), "ms")
    m["spectral.field_evals_per_spectrum"] = (
        _ratio(s.below("elements.field", "spectral.hessian_spectrum")[0], spectra), "count")
    m["cli.main.self_ms_mean"] = (s.self_mean("cli.main", MS), "ms")
    m["sampling.random_configuration.self_us_mean"] = (
        s.self_mean("sampling.random_configuration", US), "us")
    return ({k: float(v) for k, (v, _) in m.items()},
            {k: unit for k, (_, unit) in m.items()})
