"""Per-layer metrics: the names `--trace 1` prints, and how each is read
from the traced replay's sidecar or from the workload's own probes.

Every workload prints every metric; a layer the workload never reaches
reads 0 (for example `mna.*` on `thermal_grid`)."""

MIB = 1024 * 1024

# Allocation layers: name -> spans whose allocations and peak heap rise it
# sums (a parent span's figures include its children's).
ALLOC_LAYERS = {
    "grid": ["grid.expand"],
    "scenario": ["scenario.resolved_params", "scenario.to_samples", "scenario.backend_build"],
    "soa": ["soa.step", "fit.costs"],
    "scalar": ["scalar.step"],
    "event": ["event.step"],
    "mna": ["mna.simulate"],
    "metrics": ["metrics.loop_metrics", "losses.core_loss"],
    "report_stored": ["report.render"],
    "report_streamed": ["report.streamed"],
    "fit": ["fit.starting_points", "fit.descent"],
    "json": ["json.parse", "json.content_hash"],
    "cache": ["cache.get", "cache.insert"],
}

PER_LAYER = [
    ("grid.expand_ms", "ms"),
    ("scenario.resolved_params_ms", "ms"),
    ("scenario.resolved_params_calls", "count"),
    ("scenario.to_samples_ms", "ms"),
    ("scenario.samples_generated", "count"),
    ("scenario.backend_build_ms", "ms"),
    ("exec.lockstep_groups", "count"),
    ("exec.mean_lanes", "count"),
    ("exec.engine_ms", "ms"),
    ("exec.engine_1w_ms", "ms"),
    ("exec.parallel_efficiency", "ratio"),
    ("exec.outside_engine_ms", "ms"),
    ("soa.step_ms", "ms"),
    ("soa.ns_per_lane_sample", "ns"),
    ("scalar.step_ms", "ms"),
    ("scalar.ns_per_sample", "ns"),
    ("event.step_ms", "ms"),
    ("event.ns_per_sample", "ns"),
    ("event.delta_cycles", "count"),
    ("event.process_activations", "count"),
    ("mna.simulate_ms", "ms"),
    ("mna.accepted_steps", "count"),
    ("mna.rejected_steps", "count"),
    ("mna.newton_iterations", "count"),
    ("mna.lu_solves", "count"),
    ("kernel.slope_updates", "count"),
    ("metrics.loop_metrics_ms", "ms"),
    ("metrics.ns_per_sample", "ns"),
    ("losses.core_loss_ms", "ms"),
    ("fit.evaluations", "count"),
    ("fit.costs_ms", "ms"),
    ("fit.lanes_per_cost_call", "count"),
    ("fit.descent_ms", "ms"),
    ("fit.starting_points_ms", "ms"),
    ("report.render_ms", "ms"),
    ("report.bytes", "bytes"),
    ("report.ndjson_ms", "ms"),
    ("report.digest_ms", "ms"),
    ("report.render_ns_per_entry.stored", "ns"),
    ("report.render_ns_per_entry.streamed", "ns"),
    ("json.parse_ms", "ms"),
    ("json.content_hash_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.bytes", "bytes"),
    ("cache.get_us", "us"),
    ("cache.insert_us", "us"),
]
for _phase in ("connect", "ttfb", "read"):
    for _cls in ("hit", "miss", "stream"):
        PER_LAYER.append((f"transport.{_phase}_ms.{_cls}", "ms"))
PER_LAYER += [
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.stream_p50_ms", "ms"),
    ("serve.rejected_503", "count"),
    ("serve.req_per_s", "1/s"),
    ("serve.req_p99_ms", "ms"),
]
for _layer in ALLOC_LAYERS:
    PER_LAYER.append((f"alloc.count.{_layer}", "count"))
    PER_LAYER.append((f"alloc.peak_mib.{_layer}", "MiB"))
PER_LAYER += [
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
]


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def from_sidecar(sidecar, probes):
    """All per-layer values: the sidecar's spans and counters, overlaid with
    `probes` (values the workload measured outside the replay)."""
    spans = sidecar["spans"]
    work = sidecar["work"]

    def total_ns(name):
        return spans.get(name, {}).get("total_ns", 0)

    def ms(name):
        return total_ns(name) / 1e6

    def mean_ns(name):
        return _ratio(total_ns(name), spans.get(name, {}).get("count", 0))

    def count(key):
        return work.get(key, 0)

    values = {
        "grid.expand_ms": ms("grid.expand"),
        "scenario.resolved_params_ms": ms("scenario.resolved_params"),
        "scenario.resolved_params_calls": count("resolved_params_calls"),
        "scenario.to_samples_ms": ms("scenario.to_samples"),
        "scenario.samples_generated": count("samples_generated"),
        "scenario.backend_build_ms": ms("scenario.backend_build"),
        "exec.lockstep_groups": count("lockstep_groups"),
        "exec.mean_lanes": _ratio(count("lockstep_lanes"), count("lockstep_groups")),
        "exec.engine_ms": sidecar["engine_nw_ns"] / 1e6,
        "exec.engine_1w_ms": sidecar["engine_1w_ns"] / 1e6,
        "exec.parallel_efficiency": _ratio(
            sidecar["engine_1w_ns"], sidecar["workers"] * sidecar["engine_nw_ns"]),
        "soa.step_ms": ms("soa.step"),
        "soa.ns_per_lane_sample": _ratio(total_ns("soa.step"), count("soa_lane_samples")),
        "scalar.step_ms": ms("scalar.step"),
        "scalar.ns_per_sample": _ratio(total_ns("scalar.step"), count("scalar_samples")),
        "event.step_ms": ms("event.step"),
        "event.ns_per_sample": _ratio(total_ns("event.step"), count("event_samples")),
        "event.delta_cycles": count("delta_cycles"),
        "event.process_activations": count("process_activations"),
        "mna.simulate_ms": ms("mna.simulate"),
        "mna.accepted_steps": count("accepted_steps"),
        "mna.rejected_steps": count("rejected_steps"),
        "mna.newton_iterations": count("newton_iterations"),
        "mna.lu_solves": count("lu_solves"),
        "kernel.slope_updates": count("slope_updates"),
        "metrics.loop_metrics_ms": ms("metrics.loop_metrics"),
        "metrics.ns_per_sample": _ratio(total_ns("metrics.loop_metrics"), count("metric_samples")),
        "losses.core_loss_ms": ms("losses.core_loss"),
        "fit.evaluations": count("evaluations"),
        "fit.costs_ms": ms("fit.costs"),
        "fit.lanes_per_cost_call": _ratio(count("evaluations"), count("cost_calls")),
        "fit.descent_ms": ms("fit.descent"),
        "fit.starting_points_ms": ms("fit.starting_points"),
        "report.render_ms": ms("report.render"),
        "report.bytes": count("report_bytes"),
        "report.ndjson_ms": ms("report.ndjson"),
        "report.digest_ms": ms("report.digest"),
        "report.render_ns_per_entry.stored": _ratio(total_ns("report.render"),
                                                    count("stored_entries")),
        "report.render_ns_per_entry.streamed": _ratio(total_ns("report.streamed"),
                                                      count("streamed_entries")),
        "json.parse_ms": ms("json.parse"),
        "json.content_hash_ms": ms("json.content_hash"),
        "cache.get_us": mean_ns("cache.get") / 1e3,
        "cache.insert_us": mean_ns("cache.insert") / 1e3,
        "trace.coverage": sidecar["coverage"],
        "trace.overhead_frac": sidecar["overhead_frac"],
    }
    if count("cost_calls"):
        # The fit's SoA sweeps run inside BatchObjective::costs, the
        # narrowest public boundary around them (it adds per-lane loop
        # metrics).
        values["soa.step_ms"] = ms("fit.costs")
        values["soa.ns_per_lane_sample"] = _ratio(total_ns("fit.costs"), count("lane_samples"))
    for layer, names in ALLOC_LAYERS.items():
        values[f"alloc.count.{layer}"] = sum(spans.get(n, {}).get("allocations", 0) for n in names)
        values[f"alloc.peak_mib.{layer}"] = max(
            spans.get(n, {}).get("peak_bytes", 0) for n in names) / MIB
    values.update(probes)
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
