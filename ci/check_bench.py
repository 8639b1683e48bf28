#!/usr/bin/env python3
"""Bench-baseline regression gate and profile.json schema validator.

Usage:
  check_bench.py compare <current.json> <baseline.json> [--tol name=bound]...
  check_bench.py write-baseline <run.json> <baseline.json>
  check_bench.py --schema <profile.json>
  check_bench.py --self-test

compare
  Reads the "metrics" object from both documents (every bench emits one:
  a flat map of metric name -> number) and checks each baseline metric
  against the current run under a per-metric tolerance class chosen by
  name:

    *slots_per_sec*                 higher is better; current must reach
                                    0.5x baseline (shared-runner noise)
    peak_rss_mb                     lower is better; at most 1.25x baseline
    *_ns_per_slot                   lower is better; at most 2.0x baseline
    *_overhead_pct                  at most baseline + 3.0 points
    everything else                 simulator-deterministic counts: within
                                    0.1% of baseline

  --tol name=bound overrides the numeric bound for one metric (a ratio
  for the ratio classes, points for overhead, relative fraction for the
  deterministic class). Scalar config keys outside "metrics"/"rows"
  (bench, nodes, slots, ...) must match exactly — a baseline recorded
  under a different configuration is a failure, not a comparison.

write-baseline
  Regenerates a committed BENCH_*.json baseline from a bench run's JSON
  output — no more hand-edited baselines. Validates that the run carries
  a non-empty "metrics" object, prints every metric that changes against
  the existing baseline (if any), and writes the run document in the
  canonical flat formatting the repo commits.

--schema
  Validates a profile.json against the sorn-profile-v1 layout: the nine
  slot phases in enum order with per-slot percentile stats, the pool
  block (one thread, no workers, since the engine runs every slot on one
  thread) and the memory gauge block.

Exit status: 0 on pass, 1 on any regression / schema violation.
"""
import json
import sys

PROFILE_SCHEMA = "sorn-profile-v1"
PROFILE_PHASES = [
    "schedule_advance", "lane_sweep", "merge_replay", "voq_settle",
    "retransmit", "control_tick", "fault_tick", "slot_hook",
    "telemetry_flush",
]
PERCENTILE_KEYS = ["count", "mean", "p0", "p25", "p50", "p90", "p99",
                   "p99.9", "p100"]


def fail(message):
    print(f"FAIL: {message}")
    return 1


# ---- tolerance classes -------------------------------------------------

def classify(name):
    """Return (kind, default_bound) for a metric name."""
    if "slots_per_sec" in name:
        return "min_ratio", 0.5
    if name == "peak_rss_mb":
        return "max_ratio", 1.25
    if name.endswith("_ns_per_slot"):
        return "max_ratio", 2.0
    if name.endswith("_overhead_pct"):
        return "max_abs_increase", 3.0
    return "near_exact", 0.001


def check_metric(name, current, baseline, bound_override):
    """Return None on pass, an error string on regression."""
    for label, value in (("baseline", baseline), ("current", current)):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return (f"{name}: {label} value {value!r} is not a number — "
                    f"the gate cannot compare it")
    kind, bound = classify(name)
    if bound_override is not None:
        bound = bound_override
    if kind in ("min_ratio", "max_ratio") and baseline <= 0:
        # A zero baseline makes a ratio gate vacuous (every current value
        # passes a floor of 0) or impossible (a ceiling of 0); either way
        # the baseline is broken, not the run.
        return (f"{name}: baseline {baseline:g} makes the {kind} gate "
                f"meaningless — regenerate the baseline")
    if kind == "min_ratio":
        floor = bound * baseline
        if current < floor:
            return (f"{name}: {current:g} below {bound:g}x baseline "
                    f"{baseline:g} (floor {floor:g})")
        return None
    if kind == "max_ratio":
        ceiling = bound * baseline
        if current > ceiling:
            return (f"{name}: {current:g} above {bound:g}x baseline "
                    f"{baseline:g} (ceiling {ceiling:g})")
        return None
    if kind == "max_abs_increase":
        if current > baseline + bound:
            return (f"{name}: {current:g} exceeds baseline {baseline:g} "
                    f"by more than {bound:g}")
        return None
    # near_exact: deterministic sim counts, tolerate float formatting only.
    scale = max(abs(baseline), 1.0)
    if abs(current - baseline) > bound * scale:
        return (f"{name}: {current:g} deviates from deterministic "
                f"baseline {baseline:g} by more than {bound * 100:g}%")
    return None


def compare(current_doc, baseline_doc, overrides):
    errors = []
    base_metrics = baseline_doc.get("metrics", {})
    cur_metrics = current_doc.get("metrics", {})
    # Config keys must agree: comparing against a baseline recorded at a
    # different scale would pass or fail for the wrong reason. A top-level
    # key that is also a metric (bench_large_n's peak_rss_mb) is a
    # measurement, gated below under its metric tolerance.
    for key, base_val in baseline_doc.items():
        if key in ("metrics", "rows") or key in base_metrics:
            continue
        if not isinstance(base_val, (str, int, float, bool)):
            continue
        if key not in current_doc:
            errors.append(f"config key {key!r} missing from current run")
        elif current_doc[key] != base_val:
            errors.append(f"config mismatch: {key} = "
                          f"{current_doc[key]!r}, baseline {base_val!r}")
    if not base_metrics:
        errors.append("baseline has no \"metrics\" object")
    for name, base_val in sorted(base_metrics.items()):
        if name not in cur_metrics:
            errors.append(f"metric {name!r} missing from current run")
            continue
        err = check_metric(name, cur_metrics[name], base_val,
                           overrides.get(name))
        if err is not None:
            errors.append(err)
        else:
            print(f"  ok: {name} = {cur_metrics[name]:g} "
                  f"(baseline {base_val:g})")
    for name in sorted(set(cur_metrics) - set(base_metrics)):
        print(f"  note: new metric {name!r} not in baseline (ignored)")
    return errors


def cmd_compare(argv):
    paths, overrides = [], {}
    it = iter(argv)
    for arg in it:
        if arg == "--tol":
            name, _, bound = next(it).partition("=")
            overrides[name] = float(bound)
        else:
            paths.append(arg)
    if len(paths) != 2:
        return fail("compare needs <current.json> <baseline.json>")
    current = json.load(open(paths[0]))
    baseline = json.load(open(paths[1]))
    print(f"comparing {paths[0]} against baseline {paths[1]}")
    errors = compare(current, baseline, overrides)
    for err in errors:
        print(f"  REGRESSION: {err}")
    if errors:
        return fail(f"{len(errors)} regression(s) vs baseline")
    print("PASS: no regressions vs baseline")
    return 0


# ---- baseline regeneration ---------------------------------------------

def write_baseline(run_doc, baseline_path, old_doc=None):
    """Validate run_doc and write it as the new baseline. Returns errors."""
    metrics = run_doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        return ["run has no non-empty \"metrics\" object; refusing to "
                "write a baseline nothing can compare against"]
    for name, value in sorted(metrics.items()):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return [f"metric {name!r} is not a number: {value!r}"]
    if old_doc is not None:
        old_metrics = old_doc.get("metrics", {})
        for name in sorted(set(old_metrics) | set(metrics)):
            old, new = old_metrics.get(name), metrics.get(name)
            if old is None:
                print(f"  new metric: {name} = {new:g}")
            elif new is None:
                print(f"  dropped metric: {name} (was {old:g})")
            elif old != new:
                print(f"  {name}: {old:g} -> {new:g}")
        for key in sorted(set(old_doc) | set(run_doc) - {"metrics", "rows"}):
            if key in ("metrics", "rows"):
                continue
            if old_doc.get(key) != run_doc.get(key):
                print(f"  config {key}: {old_doc.get(key)!r} -> "
                      f"{run_doc.get(key)!r}")
    # Canonical flat formatting: one line, "rows" entries one per line —
    # the shape the repo's committed baselines use, so diffs stay small.
    rows = run_doc.get("rows")
    doc = {k: v for k, v in run_doc.items() if k != "rows"}
    text = json.dumps(doc, separators=(", ", ": "))
    if rows is not None:
        body = ",\n".join(
            "  " + json.dumps(r, separators=(", ", ": ")) for r in rows)
        text = text[:-1] + ", \"rows\": [\n" + body + "\n]\n}"
    with open(baseline_path, "w") as f:
        f.write(text + "\n")
    return []


def cmd_write_baseline(argv):
    if len(argv) != 2:
        return fail("write-baseline needs <run.json> <baseline.json>")
    run_path, baseline_path = argv
    run_doc = json.load(open(run_path))
    old_doc = None
    try:
        old_doc = json.load(open(baseline_path))
    except (FileNotFoundError, json.JSONDecodeError):
        pass
    print(f"writing baseline {baseline_path} from {run_path}")
    errors = write_baseline(run_doc, baseline_path, old_doc)
    for err in errors:
        print(f"  REJECTED: {err}")
    if errors:
        return fail("run is not baseline-worthy")
    print(f"wrote {baseline_path} "
          f"({len(run_doc['metrics'])} metrics)")
    return 0


# ---- profile.json schema ----------------------------------------------

def check_profile(doc):
    errors = []

    def need(obj, key, types, where):
        if not isinstance(obj, dict) or key not in obj:
            errors.append(f"{where}: missing key {key!r}")
            return None
        if not isinstance(obj[key], types):
            errors.append(f"{where}: {key!r} has type "
                          f"{type(obj[key]).__name__}")
            return None
        return obj[key]

    if doc.get("schema") != PROFILE_SCHEMA:
        errors.append(f"schema is {doc.get('schema')!r}, "
                      f"want {PROFILE_SCHEMA!r}")
    need(doc, "slots", int, "top-level")

    phases = need(doc, "phases", list, "top-level") or []
    names = [p.get("phase") for p in phases if isinstance(p, dict)]
    if names != PROFILE_PHASES:
        errors.append(f"phases are {names}, want {PROFILE_PHASES}")
    for p in phases:
        where = f"phase {p.get('phase')!r}"
        for key in ("calls", "total_ns", "active_slots"):
            need(p, key, int, where)
        slot_ns = need(p, "slot_ns", dict, where)
        if slot_ns is not None:
            for key in PERCENTILE_KEYS:
                need(slot_ns, key, (int, float), f"{where} slot_ns")

    pool = need(doc, "pool", dict, "top-level")
    if pool is not None:
        for key in ("threads", "batches", "shards", "owner_wait_ns",
                    "window_ns"):
            need(pool, key, int, "pool")
        workers = need(pool, "workers", list, "pool") or []
        for w in workers:
            for key in ("worker", "busy_ns", "idle_ns", "shards"):
                need(w, key, int, f"pool worker {w.get('worker')}")

    memory = need(doc, "memory", dict, "top-level")
    if memory is not None:
        need(memory, "samples", int, "memory")
        need(memory, "peak_rss_bytes", int, "memory")
        gauges = need(memory, "gauges", list, "memory") or []
        for g in gauges:
            need(g, "name", str, "gauge")
            need(g, "bytes", int, f"gauge {g.get('name')!r}")
            need(g, "peak_bytes", int, f"gauge {g.get('name')!r}")
        gauge_names = [g.get("name") for g in gauges if isinstance(g, dict)]
        if gauge_names != sorted(gauge_names):
            errors.append(f"gauges not name-sorted: {gauge_names}")
    return errors


def cmd_schema(path):
    doc = json.load(open(path))
    errors = check_profile(doc)
    for err in errors:
        print(f"  SCHEMA: {err}")
    if errors:
        return fail(f"{path}: {len(errors)} schema violation(s)")
    phases = {p["phase"]: p for p in doc["phases"]}
    timed = sum(p["total_ns"] for p in doc["phases"])
    print(f"schema OK: {path} — {doc['slots']} slots, "
          f"{timed / 1e6:.1f} ms timed across phases, "
          f"{len(doc['memory']['gauges'])} gauges, "
          f"lane_sweep {phases['lane_sweep']['calls']} calls")
    return 0


# ---- self test ---------------------------------------------------------

def cmd_self_test():
    baseline = {
        "bench": "bench_large_n", "nodes": 4096, "slots": 400,
        "metrics": {"slots_per_sec": 100.0, "peak_rss_mb": 800.0,
                    "delivered_cells": 123456},
    }

    def clone(**metric_changes):
        doc = json.loads(json.dumps(baseline))
        doc["metrics"].update(metric_changes)
        return doc

    cases = [
        ("identical run passes", clone(), {}, 0),
        ("noise within tolerance passes",
         clone(slots_per_sec=60.0, peak_rss_mb=900.0), {}, 0),
        ("slots/sec regression fails",
         clone(slots_per_sec=40.0), {}, 1),
        ("RSS blow-up fails", clone(peak_rss_mb=2000.0), {}, 1),
        ("deterministic count drift fails",
         clone(delivered_cells=123956), {}, 1),
        ("--tol override tightens the gate",
         clone(slots_per_sec=60.0), {"slots_per_sec": 0.9}, 1),
        ("zero ratio baseline is an explicit error, not a vacuous pass",
         clone(), {}, 1, {"slots_per_sec": 0.0}),
        ("non-numeric baseline is an explicit error",
         clone(), {}, 1, {"delivered_cells": "123456"}),
        ("non-numeric current value is an explicit error",
         clone(delivered_cells="oops"), {}, 1),
    ]
    failures = 0
    for name, current, overrides, want, *extra in cases:
        base = baseline
        if extra:
            base = json.loads(json.dumps(baseline))
            base["metrics"].update(extra[0])
        errors = compare(current, base, overrides)
        got = 1 if errors else 0
        status = "ok" if got == want else "SELF-TEST FAILURE"
        if got != want:
            failures += 1
        print(f"[{status}] {name}")

    mismatched = clone()
    mismatched["nodes"] = 1024
    if not compare(mismatched, baseline, {}):
        failures += 1
        print("[SELF-TEST FAILURE] config mismatch must fail")
    else:
        print("[ok] config mismatch fails")

    # bench_large_n also writes peak_rss_mb at the top level: it must be
    # gated as the metric (ceiling), not matched exactly as config.
    top_rss = json.loads(json.dumps(baseline))
    top_rss["peak_rss_mb"] = 800.0
    for rss, want in ((900.0, 0), (2000.0, 1)):
        run = clone(peak_rss_mb=rss)
        run["peak_rss_mb"] = rss
        got = 1 if compare(run, top_rss, {}) else 0
        status = "ok" if got == want else "SELF-TEST FAILURE"
        if got != want:
            failures += 1
        print(f"[{status}] top-level peak_rss_mb {rss:g} vs baseline 800 "
              f"{'fails' if want else 'passes'} under the metric ceiling")

    profile = {
        "schema": PROFILE_SCHEMA, "slots": 10,
        "phases": [{"phase": name, "calls": 10, "total_ns": 1000,
                    "active_slots": 10,
                    "slot_ns": {k: 0 for k in PERCENTILE_KEYS}}
                   for name in PROFILE_PHASES],
        "pool": {"threads": 1, "batches": 0, "shards": 0,
                 "owner_wait_ns": 0, "window_ns": 0, "workers": []},
        "memory": {"samples": 1, "peak_rss_bytes": 1 << 20,
                   "gauges": [{"name": "a", "bytes": 1, "peak_bytes": 2}]},
    }
    if check_profile(profile):
        failures += 1
        print("[SELF-TEST FAILURE] valid profile must pass schema")
    else:
        print("[ok] valid profile passes schema")
    profile["phases"] = profile["phases"][:-1]
    if not check_profile(profile):
        failures += 1
        print("[SELF-TEST FAILURE] missing phase must fail schema")
    else:
        print("[ok] missing phase fails schema")

    # write-baseline round-trip: a regenerated baseline must compare clean
    # against the run that produced it, and a metrics-free run must be
    # rejected.
    import os
    import tempfile
    run_doc = clone(slots_per_sec=140.0, peak_rss_mb=750.0)
    run_doc["rows"] = [{"seconds": "2.86", "slots/sec": "140"}]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "BENCH_test.json")
        if write_baseline(run_doc, path, baseline):
            failures += 1
            print("[SELF-TEST FAILURE] write-baseline must accept a run "
                  "with metrics")
        else:
            written = json.load(open(path))
            if written != run_doc:
                failures += 1
                print("[SELF-TEST FAILURE] written baseline must round-trip")
            elif compare(run_doc, written, {}):
                failures += 1
                print("[SELF-TEST FAILURE] run must compare clean against "
                      "its own baseline")
            else:
                print("[ok] write-baseline round-trips and compares clean")
        bad = {"bench": "x", "rows": []}
        if not write_baseline(bad, os.path.join(tmp, "bad.json")):
            failures += 1
            print("[SELF-TEST FAILURE] metrics-free run must be rejected")
        else:
            print("[ok] write-baseline rejects a metrics-free run")

    if failures:
        return fail(f"{failures} self-test case(s) wrong")
    print("self-test OK")
    return 0


def main():
    argv = sys.argv[1:]
    if not argv:
        print(__doc__)
        return 2
    if argv[0] == "--self-test":
        return cmd_self_test()
    if argv[0] == "--schema":
        if len(argv) != 2:
            return fail("--schema needs exactly one profile.json path")
        return cmd_schema(argv[1])
    if argv[0] == "compare":
        return cmd_compare(argv[1:])
    if argv[0] == "write-baseline":
        return cmd_write_baseline(argv[1:])
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main())
