"""The benchmark's math: medians, the tail rule, quartile spread, span self
time, and the derivation of every metric from kbcbench's raw output.

The raw output (written by kbcbench) holds per-operation samples, final
values, correctness checks and, in traced mode, spans. Spans carry a name,
start and end in nanoseconds, the index of their parent span (-1 for a
root), an operation id and numeric attributes.
"""

import math
import statistics

# Percentiles the tail rule may pick, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("update_ms", "ms"),
    ("read_us", "us"),
    ("f1", "ratio"),
    ("peak_rss_mb", "MiB"),
)

STRATEGIES = ("sampling", "variational", "rerun")
DEV_LOOP_STEPS = ("A1", "FE1", "FE2", "I1", "S1", "S2", "trial_add",
                  "trial_retract")

PER_LAYER = (
    ("insert_p50_ms", "ms"),
    ("delete_p50_ms", "ms"),
    ("first_write_ms", "ms"),
    ("write_tail_ms", "ms"),
    ("devloop_s", "s"),
    ("query_p50_us", "us"),
    ("query_tail_us", "us"),
    ("queries_per_s", "1/s"),
    ("failed_frac", "ratio"),
    ("dsl.create_ms", "ms"),
    ("storage.load_ms", "ms"),
    ("core.initialize_ms", "ms"),
    ("incremental.materialize_ms", "ms"),
    ("kbc.build_ms", "ms"),
    ("serve.service.create_ms", "ms"),
    ("grounding.ms", "ms"),
    ("grounding.work", "count"),
    ("inference.learn_ms", "ms"),
) + tuple(("incremental.infer_ms." + s, "ms") for s in STRATEGIES) + tuple(
    ("incremental.strategy." + s, "count") for s in STRATEGIES) + (
    ("incremental.mh_acceptance", "ratio"),
    ("incremental.affected_vars", "count"),
    ("incremental.samples_remaining", "count"),
    ("incremental.remat_count", "count"),
    ("core.unaccounted_ms", "ms"),
    ("core.unaccounted_share", "ratio"),
) + tuple(("kbc.step_ms." + s, "ms") for s in DEV_LOOP_STEPS) + (
    ("factor.compile_ms", "ms"),
    ("inference.sweep_ns_per_var", "ns"),
    ("serve.comm.codec_us", "us"),
    ("serve.handlers.query_us", "us"),
    ("serve.service.pin_ns", "ns"),
    ("serve.srv.transport_us", "us"),
    ("serve.service.engine_ms", "ms"),
    ("serve.service.wait_ms", "ms"),
    ("serve.service.queue_depth_max", "count"),
    ("serve.service.shed", "count"),
    ("serve.gen_lag_ms", "ms"),
    ("trace.overhead_share", "ratio"),
)


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return sum(values) / len(values) if values else 0.0


def tail(values):
    """The highest ladder percentile with at least ten samples beyond it.

    Uses the nearest-rank percentile: the p-th percentile of n samples is
    the ceil(p * n / 100)-th smallest, and the samples beyond it are the
    ones ranked after it. Returns (percentile, value, samples_beyond), or
    None when even the median has fewer than ten samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct * n / 100.0 - 1e-9))
        beyond = n - rank
        if beyond >= TAIL_MIN_BEYOND:
            best = (pct, ordered[rank - 1], beyond)
    return best


def spread(values):
    """Distance between the first and third quartile as a share of the
    median, with the quartiles of statistics.quantiles(values, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def self_times(spans):
    """Self time of every span in nanoseconds: its duration minus the part
    of its interval that its children cover (overlapping children count
    once, and only inside the parent's interval)."""
    children = _children_index(spans)
    result = []
    for i, span in enumerate(spans):
        start, end = span["start_ns"], span["end_ns"]
        intervals = sorted(
            (max(start, spans[c]["start_ns"]), min(end, spans[c]["end_ns"]))
            for c in children.get(i, ()))
        covered = 0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def _duration_ms(span):
    return (span["end_ns"] - span["start_ns"]) * 1e-6


def _children_index(spans):
    children = {}
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append(i)
    return children


def _update_metrics(spans, selves, units):
    """Per-layer split of updates. `units` is a list of lists of update span
    indices; each unit is one write (streams) or one dev-loop pass. Stage
    times are summed within a unit and averaged over units, so the split
    adds up to the mean wall time of a unit."""
    children = _children_index(spans)
    per_unit = []
    updates = []
    for unit in units:
        acc = {"wall": 0.0, "self": 0.0, "grounding": 0.0, "learn": 0.0,
               "work": 0.0}
        for s in STRATEGIES:
            acc["infer." + s] = 0.0
        for i in unit:
            span = spans[i]
            acc["wall"] += _duration_ms(span)
            acc["self"] += selves[i] * 1e-6
            acc["work"] += span["attrs"].get("grounding_work", 0.0)
            for c in children.get(i, ()):
                name = spans[c]["name"]
                d = _duration_ms(spans[c])
                if name == "grounding":
                    acc["grounding"] += d
                elif name == "inference.learn":
                    acc["learn"] += d
                elif name.startswith("incremental.infer."):
                    strategy = name[len("incremental.infer."):]
                    acc["infer." + strategy] = acc.get("infer." + strategy, 0.0) + d
            updates.append(i)
        per_unit.append(acc)
    m = {}
    if not per_unit:
        return m
    m["grounding.ms"] = mean([u["grounding"] for u in per_unit])
    m["inference.learn_ms"] = mean([u["learn"] for u in per_unit])
    for s in STRATEGIES:
        m["incremental.infer_ms." + s] = mean([u["infer." + s] for u in per_unit])
    m["core.unaccounted_ms"] = mean([u["self"] for u in per_unit])
    wall = sum(u["wall"] for u in per_unit)
    m["core.unaccounted_share"] = (
        sum(u["self"] for u in per_unit) / wall if wall > 0 else 0.0)
    m["grounding.work"] = median([u["work"] for u in per_unit])

    updates.sort(key=lambda i: spans[i]["start_ns"])
    counts = {s: 0 for s in STRATEGIES}
    for i in updates:
        for c in children.get(i, ()):
            name = spans[c]["name"]
            if name.startswith("incremental.infer."):
                strategy = name[len("incremental.infer."):]
                if strategy in counts:
                    counts[strategy] += 1
    for s in STRATEGIES:
        m["incremental.strategy." + s] = float(counts[s])
    attrs = [spans[i]["attrs"] for i in updates]
    m["incremental.mh_acceptance"] = mean(
        [a["acceptance"] for a in attrs if a.get("acceptance", -1.0) >= 0.0])
    m["incremental.affected_vars"] = mean(
        [a["affected_vars"] for a in attrs if "affected_vars" in a])
    remaining = [a["samples_remaining"] for a in attrs if "samples_remaining" in a]
    m["incremental.samples_remaining"] = remaining[-1] if remaining else 0.0
    generations = [a["snapshot_generation"] for a in attrs
                   if "snapshot_generation" in a]
    m["incremental.remat_count"] = float(sum(
        1 for a, b in zip(generations, generations[1:]) if b != a))
    return m


def _span_median(spans, name, scale):
    return median([(s["end_ns"] - s["start_ns"]) * scale
                   for s in spans if s["name"] == name])


def _span_mean(spans, name, scale):
    return mean([(s["end_ns"] - s["start_ns"]) * scale
                 for s in spans if s["name"] == name])


def end_to_end(raw):
    samples, values = raw["samples"], raw["values"]
    if raw["workload"] == "dev_loop":
        update_ms = median(samples.get("devloop_ms", []))
        # Quality has no outliers to resist, and the mean of a few corpora
        # varies less between runs than their median.
        f1 = mean(samples.get("f1", []))
    else:
        update_ms = median(samples.get("update_ms", []))
        f1 = values.get("f1", 0.0)
    return {
        "setup_s": median(samples.get("setup_s", [])),
        "update_ms": update_ms,
        "read_us": median(samples.get("read_us", [])),
        "f1": f1,
        "peak_rss_mb": values.get("peak_rss_mb", 0.0),
    }


def per_layer(raw):
    """Every per-layer metric; 0 where a metric does not apply to the
    workload (README.md lists which apply where)."""
    spans, samples, values = raw["spans"], raw["samples"], raw["values"]
    workload = raw["workload"]
    selves = self_times(spans)
    m = {name: 0.0 for name, _ in PER_LAYER}

    writes = samples.get("insert_ms", []) + samples.get("delete_ms", [])
    m["insert_p50_ms"] = median(samples.get("insert_ms", []))
    m["delete_p50_ms"] = median(samples.get("delete_ms", []))
    m["first_write_ms"] = median(samples.get("first_write_ms", []))
    write_tail = tail(writes)
    if write_tail:
        m["write_tail_ms"] = write_tail[1]
    m["devloop_s"] = median(samples.get("devloop_ms", [])) * 1e-3
    m["query_p50_us"] = median(samples.get("query_us", []))
    query_tail = tail(samples.get("query_us", []))
    if query_tail:
        m["query_tail_us"] = query_tail[1]
    m["queries_per_s"] = values.get("queries_per_s", 0.0)
    m["failed_frac"] = raw["failed"] / raw["attempted"] if raw["attempted"] else 0.0

    m["dsl.create_ms"] = _span_mean(spans, "dsl.create", 1e-6)
    m["storage.load_ms"] = _span_mean(spans, "storage.load", 1e-6)
    m["core.initialize_ms"] = _span_mean(spans, "core.initialize", 1e-6)
    m["incremental.materialize_ms"] = mean(
        [s["attrs"]["materialize_s"] * 1e3 for s in spans
         if s["name"] == "core.initialize" and "materialize_s" in s["attrs"]])
    m["kbc.build_ms"] = _span_mean(spans, "kbc.build", 1e-6)
    m["serve.service.create_ms"] = _span_mean(spans, "serve.service.create", 1e-6)

    if workload == "dev_loop":
        children = _children_index(spans)
        units = [children.get(i, []) for i, s in enumerate(spans)
                 if s["name"] == "kbc.devloop"]
        for step in DEV_LOOP_STEPS:
            m["kbc.step_ms." + step] = _span_median(spans, "kbc.step." + step, 1e-6)
    elif workload == "insert_stream":
        units = [[i] for i, s in enumerate(spans)
                 if s["name"].startswith("core.apply_update.")]
    else:
        units = [[i] for i, s in enumerate(spans) if s["name"] == "serve.update"]
    m.update(_update_metrics(spans, selves, units))

    m["factor.compile_ms"] = _span_median(spans, "factor.compile", 1e-6)
    m["inference.sweep_ns_per_var"] = median(
        [(s["end_ns"] - s["start_ns"]) / s["attrs"]["var_sweeps"]
         for s in spans if s["name"] == "inference.sweeps"])

    if workload == "serve_mixed":
        # The stage split of a wire write: the engine's stage seconds, the
        # generator's lag, and the rest (queue wait + transport).
        m["serve.service.engine_ms"] = mean(samples.get("engine_ms", []))
        m["serve.gen_lag_ms"] = mean(samples.get("gen_lag_ms", []))
        m["serve.service.wait_ms"] = mean(samples.get("update_ms", [])) - \
            m["serve.service.engine_ms"]
        m["serve.comm.codec_us"] = _span_median(spans, "serve.comm.codec", 1e-3)
        m["serve.handlers.query_us"] = _span_median(
            spans, "serve.handlers.query", 1e-3)
        m["serve.service.pin_ns"] = _span_median(spans, "serve.service.pin", 1.0)
        m["serve.srv.transport_us"] = (m["query_p50_us"] - m["serve.comm.codec_us"]
                                       - m["serve.handlers.query_us"])
        m["serve.service.queue_depth_max"] = values.get("queue_depth_max", 0.0)
        m["serve.service.shed"] = values.get("shed", 0.0)
        # A wire write's self time is queue wait and transport, reported as
        # serve.service.wait_ms; the engine's own unaccounted time is not
        # visible through the wire.
        m["core.unaccounted_ms"] = 0.0
        m["core.unaccounted_share"] = 0.0

    traced = samples.get("traced", [])
    untraced = samples.get("untraced", [])
    if traced and untraced:
        base = median(untraced)
        m["trace.overhead_share"] = (median(traced) - base) / base
    return m


def summarize(raw, trace):
    """The benchmark's result line: correctness, counts and metrics."""
    checks = raw["checks"]
    correct = bool(checks) and all(c["ok"] for c in checks) and raw["attempted"] > 0
    if trace:
        values = per_layer(raw)
        units = dict(PER_LAYER)
    else:
        values = end_to_end(raw)
        units = dict(END_TO_END)
        correct = correct and all(v > 0 for v in values.values())
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
