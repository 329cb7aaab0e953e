"""Arithmetic of the benchmark: sample statistics, failure accounting,
output-digest checks, span self time, and the tables that turn one harness
run's raw samples into the metrics BENCHMARK.json names.

Everything here is pure; run.py does the building and the processes, and
tests/test_stats.py checks this module on hand-computed inputs.
"""

import statistics

DEFAULT_SEED = 20070710
WORKLOADS = ("paper_2k", "chaos_2k", "sock_mesh")

END_TO_END_UNITS = {
    "setup_s": "s",
    "s_per_sim_min": "s",
    "minute_s_p50": "s",
    "peak_rss_mib": "MiB",
    "cpu_us_per_msg": "us",
}

PER_LAYER_UNITS = {
    "topology.generate_s": "s",
    "flow.build_s": "s",
    "flow.tick_ms_per_min": "ms",
    "flow.ns_per_slot_tick": "ns",
    "flow.edge_slots": "count",
    "flow.sharded_tick_ms_per_min": "ms",
    "core.ddpolice_ms_per_min": "ms",
    "core.suspicions": "count",
    "core.rounds": "count",
    "core.cuts": "count",
    "core.cut_yield": "ratio",
    "core.detect_min": "min",
    "fault.ms_per_min": "ms",
    "fault.timeouts": "count",
    "fault.retries": "count",
    "fault.retry_ratio": "ratio",
    "workload.churn_ms_per_min": "ms",
    "attack.ms_per_min": "ms",
    "experiments.maintenance_ms_per_min": "ms",
    "p2p.repair_ms_per_min": "ms",
    "snapshot.save_ms": "ms",
    "snapshot.load_ms": "ms",
    "snapshot.bytes": "bytes",
    "obs.profile_overhead_pct": "%",
    "host.gauge_ms": "ms",
    "netengine.cpu_ms_per_proto_min": "ms",
    "netengine.msgs": "count",
    "netengine.bytes_per_msg": "bytes",
    "p2p.dup_ratio": "ratio",
    "core.local_cuts": "count",
    "netengine.echo_revocations": "count",
    "net.codec_ns_per_msg": "ns",
    "net.stream_ns_per_byte": "ns",
    "p2p.guid_ns_per_op": "ns",
}


def median(values):
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) picks them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def summarize(values):
    """Median, quartiles, spread (IQR over median), min, max and count."""
    q1, q2, q3 = quartiles(values)
    return {
        "n": len(values),
        "median": q2,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / q2 if q2 else 0.0,
        "min": float(min(values)),
        "max": float(max(values)),
    }


def self_times(spans):
    """Self time per span name: each span's duration minus the part of its
    interval that its child spans cover. `spans` are dicts with id, name,
    start_ns, end_ns and parent (-1 for a root)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    totals = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered, cursor = 0, start
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], cursor), min(c["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[s["name"]] = totals.get(s["name"], 0) + (end - start - covered)
    return totals


def by_scenario(episodes):
    """Episodes grouped by the scenario they ran, in scenario order."""
    groups = {}
    for e in episodes:
        groups.setdefault(int(e["scenario"]), []).append(e)
    return [groups[k] for k in sorted(groups)]


def check_episodes(raw, golden):
    """Output check of one sim run, as (attempted, failed) simulated minutes.
    An episode fails when it threw, or when its digest differs from the
    expected one for its scenario: the pinned digest for scenario 0 (the
    run's own seed) at the pinned seed, otherwise the digest most episodes
    of that scenario agree on (same seed and config, so the output must
    repeat bit for bit)."""
    episodes = raw["episodes"]
    attempted = sum(int(e["minutes"]) for e in episodes)
    pinned = golden.get("digests", {}).get(raw["workload"])
    at_pinned_seed = int(raw["seed"]) == int(golden.get("seed", DEFAULT_SEED))
    failed = 0
    for group in by_scenario(episodes):
        digests = [e["digest"] for e in group if e["ok"]]
        if at_pinned_seed and pinned and int(group[0]["scenario"]) == 0:
            expected = pinned
        elif digests:
            expected = statistics.mode(digests)
        else:
            expected = None
        failed += sum(int(e["minutes"]) for e in group
                      if not e["ok"] or e["digest"] != expected)
    return attempted, failed


def sock_failures(raw):
    """sock_mesh as (peers, attackers never cut + honest peers cut)."""
    return int(raw["peers"]), int(raw["attackers_uncut"]) + int(raw["honest_cut"])


def _good(episodes, traced):
    return [e for e in episodes if e["ok"] and bool(e["traced"]) == traced]


def _ratio(num, den):
    return num / den if den else 0.0


def at_ref(seconds, gauge_s, ref_s):
    """A measured time scaled to the host's quiet speed: seconds times
    ref_s over the gauge time measured beside it (see harness Gauge)."""
    return seconds * ref_s / gauge_s


def end_to_end(raw):
    """End-to-end metrics of one untraced harness run. Times are scaled by
    the host gauge measured beside them (at_ref). A sim cost is the mean
    over the run's scenarios of its median over that scenario's episodes
    (or minutes); setup_s is the median over every construction."""
    mib = raw["peak_rss_kib"] / 1024.0
    ref = raw["gauge_ref_s"]
    setup = median([at_ref(s, g, ref)
                    for s, g in zip(raw["setup_s"], raw["setup_gauge_s"])])
    if raw["kind"] == "sim":
        per_scenario = {"s_per_sim_min": [], "minute_s_p50": [],
                        "cpu_us_per_msg": []}
        for group in by_scenario(_good(raw["episodes"], traced=False)):
            wall, cpu, minutes = [], [], []
            for e in group:
                steps = [at_ref(t, g, ref)
                         for t, g in zip(e["step_wall_s"], e["step_gauge_s"])]
                wall.append(sum(steps) / e["minutes"])
                cpu.append(sum(at_ref(c, g, ref) for c, g in
                               zip(e["step_cpu_s"], e["step_gauge_s"])) * 1e6
                           / sum(e["step_ticks"]))
                minutes += steps
            per_scenario["s_per_sim_min"].append(median(wall))
            per_scenario["minute_s_p50"].append(median(minutes))
            per_scenario["cpu_us_per_msg"].append(median(cpu))
        means = {k: statistics.fmean(v) for k, v in per_scenario.items()}
        return {
            "setup_s": setup,
            "s_per_sim_min": means["s_per_sim_min"],
            "minute_s_p50": means["minute_s_p50"],
            "peak_rss_mib": mib,
            "cpu_us_per_msg": means["cpu_us_per_msg"],
        }
    # Costs count from the steady (post-cut) window; a run too short to
    # reach it falls back to the whole run. The gauge is taken at every
    # protocol-minute boundary.
    steady = int(raw["steady_minutes"])
    if steady > 0:
        cpu, minutes, msgs = raw["steady_cpu_s"], steady, raw["steady_msgs"]
        per_minute = raw["minute_cpu_s"][-steady:]
        gauges = raw["minute_gauge_s"][-steady:]
    else:
        cpu, minutes, msgs = raw["cpu_s"], raw["proto_minutes"], raw["msgs"]
        per_minute = raw["minute_cpu_s"]
        gauges = raw["minute_gauge_s"] or raw["setup_gauge_s"]
    host = median(gauges)
    return {
        "setup_s": setup,
        "s_per_sim_min": at_ref(cpu, host, ref) / minutes,
        "minute_s_p50": median([at_ref(c, host, ref) for c in per_minute]),
        "peak_rss_mib": mib,
        "cpu_us_per_msg": at_ref(cpu, host, ref) * 1e6 / msgs,
    }


def per_layer(raw):
    """Per-layer metrics of one traced harness run. Layers a workload does
    not run read 0."""
    layer = raw["layers"]
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    if raw["kind"] == "sim":
        minutes = layer["traced_minutes"]
        phases = layer["phase_ns"]

        def ms_per_min(phase):
            return _ratio(phases.get(phase, 0.0) / 1e6, minutes)

        def s_per_min(traced):
            return median([e["wall_s"] / e["minutes"]
                           for e in _good(raw["episodes"], traced)
                           if e["flow_jobs"] == 1])

        out.update({
            "topology.generate_s": median(layer["generate_s"]),
            "flow.build_s": median(layer["flow_build_s"]),
            "flow.tick_ms_per_min": ms_per_min("flow_ticks"),
            "flow.ns_per_slot_tick": _ratio(phases.get("flow_ticks", 0.0),
                                            layer["slot_ticks"]),
            "flow.edge_slots": layer["edge_slots"],
            "flow.sharded_tick_ms_per_min":
                _ratio(layer["sharded_flow_ns"] / 1e6, layer["sharded_minutes"]),
            "core.ddpolice_ms_per_min": ms_per_min("defense"),
            "core.suspicions": layer["suspicions"],
            "core.rounds": layer["rounds"],
            "core.cuts": layer["cuts"],
            "core.cut_yield": _ratio(layer["cuts"], layer["rounds"]),
            "core.detect_min": layer["detect_min"],
            "fault.ms_per_min": ms_per_min("fault"),
            "fault.timeouts": layer["timeouts"],
            "fault.retries": layer["retries"],
            "fault.retry_ratio": _ratio(layer["retries"], layer["transfers"]),
            "workload.churn_ms_per_min": ms_per_min("churn"),
            "attack.ms_per_min": ms_per_min("attack"),
            "experiments.maintenance_ms_per_min": ms_per_min("maintenance"),
            "p2p.repair_ms_per_min": ms_per_min("repair"),
            "snapshot.save_ms": median(layer["save_ms"]) if layer["save_ms"] else 0.0,
            "snapshot.load_ms": median(layer["load_ms"]) if layer["load_ms"] else 0.0,
            "snapshot.bytes": layer["snapshot_bytes"],
            "obs.profile_overhead_pct":
                (_ratio(s_per_min(True), s_per_min(False)) - 1.0) * 100.0,
            "host.gauge_ms": median([g for e in _good(raw["episodes"], True)
                                     for g in e["step_gauge_s"]]) * 1e3,
        })
        return out
    wire = layer["wire"]
    out.update({
        "core.suspicions": layer["suspicions"],
        "core.rounds": layer["rounds"],
        "core.cuts": layer["local_cuts"],
        "core.cut_yield": _ratio(layer["local_cuts"], layer["rounds"]),
        "core.detect_min": raw["detect_min"],
        "host.gauge_ms": median(raw["minute_gauge_s"] or raw["setup_gauge_s"]) * 1e3,
        "netengine.cpu_ms_per_proto_min":
            layer["poll_cpu_s"] * 1e3 / raw["proto_minutes"],
        "netengine.msgs": layer["msgs"],
        "netengine.bytes_per_msg": _ratio(layer["bytes"], layer["msgs"]),
        "p2p.dup_ratio": _ratio(layer["duplicates"],
                                layer["forwarded"] + layer["duplicates"]),
        "core.local_cuts": layer["local_cuts"],
        "netengine.echo_revocations": layer["echo_revocations"],
        "net.codec_ns_per_msg": wire["codec_ns_per_msg"],
        "net.stream_ns_per_byte": wire["stream_ns_per_byte"],
        "p2p.guid_ns_per_op": wire["guid_ns_per_op"],
    })
    return out
