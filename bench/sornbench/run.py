#!/usr/bin/env python3
"""sornbench: the host-performance ledger of the SORN simulator.

One command builds the simulator from source, checks its outputs and
measures it end to end and layer by layer on five workloads:

    python3 bench/sornbench/run.py [--seed S] [--reps R] [--workloads a,b]
                                   [--out results.json]

does a correctness pass per workload, R timed rounds that cycle through the
workloads, and three traced rounds; it prints every metric by name with its
unit, writes the results JSON and trace.json next to each other, and exits
nonzero on any correctness failure. Other entry points:

    run.py --workload W --seed S --seconds T --trace 0|1
        one workload, timed rounds for T seconds; the last stdout line is
        {"correct", "attempted", "failed", "metrics"} with the end-to-end
        metrics (--trace 0) or the per-layer metrics (--trace 1).
    run.py compare A.json B.json    verdict per (end-to-end metric, workload)
    run.py calibrate A.json B.json C.json [--out calibration.json]
    run.py --self-test              checks compare() on synthetic results
    run.py --smoke                  every workload shortened, once

Each repetition is one process of the C++ program (sornbench.cpp) running
one batch job, ScenarioRunner::create() then run(). The seed reaches the
program only through the ScenarioConfig this script writes for it. See
README.md for why each workload exists and what each metric should move.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "sornbench"

# No process may use more engine threads than this.
MAX_THREADS = min(2, os.cpu_count() or 1)

# Traced repetitions per workload; per-layer metrics come from the one with
# the median run time, so one disturbed run does not set trace.overhead_frac.
TRACED_ROUNDS = 3

# Host speed. Every repetition times a fixed probe just before create()
# (see probe_host_s in sornbench.cpp). REF_PROBE_S is its time on the
# reference host when quiet (4 vCPU Xeon, 2.0 GHz: the 5th to 10th
# percentile of 1031 probes). On a shared host the simulator's speed
# follows the neighbours' load by 0.6-1.5x over minutes, and more steeply
# than the probe's: over 150 runs in three sweeps, log run time rose 1.2-1.7
# times as fast as log probe time, and log set-up time 1.4 times. So a
# repetition's slowdown is (probe time / REF_PROBE_S) ** SENSITIVITY, and the
# wall-clock metrics are reported at the quiet reference speed: slots_per_s
# times the slowdown, setup_s divided by it.
REF_PROBE_S = 0.018
SENSITIVITY = 1.5

# Per-process time limit; a hung repetition counts as a failure.
PROCESS_TIMEOUT_S = 150

# --smoke multiplies every slot count by this.
SMOKE_FACTOR = 0.1

# Fields shared by every workload: design sorn, zero propagation delay (as
# in the paper's Fig. 2f runs) and the O(N) procedural demand backend.
COMMON = {"design": "sorn", "propagation_ns": 0,
          "traffic_backend": "procedural"}

# ScenarioConfig fields derived from --seed. Nothing else varies with it.
SEEDED_FIELDS = ("arrival_seed", "seed", "workload_seed", "fault_seed",
                 "control_fault_seed")

# Three nodes fail and later heal: each transition forces a failure replan
# in the control loop.
REPLAN_FAULTS = "".join(
    f"{slot} {action} {node}\n"
    for slot, action in ((700, "fail-node"), (1400, "heal-node"))
    for node in (5, 100, 200))

WORKLOADS = {
    "flows-websearch": {
        "why": "the default simulate path: pFabric web-search arrivals capped "
               "at 64 KiB (offered load 0.10), routing at injection, flow "
               "records and FCTs, 85k cells queued; no control, transport or "
               "pool",
        "config": {
            "nodes": 1024, "cliques": 32, "locality": 0.6, "lanes": 1,
            "workload": "flows", "flow_size": "pfabric-web-search",
            "flow_size_cap": 65536, "load": 3.0, "classify": "clique",
            "slots": 2000, "drain_slots": 1500, "threads": 1,
        },
    },
    "fig2f-saturation": {
        "why": "the paper's throughput measurement at N=512: VOQ-bound (88 of "
               "101 MB RSS is queued cells), with no arrivals or flow records",
        "config": {
            "nodes": 512, "cliques": 16, "locality": 0.6, "lanes": 1,
            "workload": "saturation", "warmup_slots": 1000,
            "measure_slots": 500, "threads": 1,
        },
    },
    "incast-dctcp": {
        "why": "128:1 incast into 32-cell queues under DCTCP (offered load "
               "0.03): drops, ECN marks, the ack path and retransmits",
        "config": {
            "nodes": 512, "cliques": 16, "locality": 0.5, "lanes": 1,
            "workload": "incast", "incast_fanin": 128,
            "incast_bytes": 16384, "incast_period_slots": 600,
            "max_queue_cells": 32, "transport": "dctcp",
            "ecn_threshold_cells": 8, "retransmit_timeout": 256,
            "slots": 12000, "drain_slots": 1500, "threads": 1,
        },
    },
    "large-n-t2": {
        "why": "N=4096, 16 lanes, the only 2-thread workload: pool dispatch "
               "and the serial merge replay; a 15-slot burst at load 2 then "
               "its drain (80% of the run), 90 MB peak RSS",
        "config": {
            "nodes": 4096, "cliques": 64, "locality": 0.6, "lanes": 16,
            "workload": "flows", "flow_size": "fixed",
            "fixed_flow_bytes": 40960, "load": 2.0, "slots": 15,
            "drain_slots": 150, "threads": MAX_THREADS,
        },
    },
    "control-replan": {
        "why": "the control loop: 7 estimator epochs and 3 replans, two "
               "forced by a node fail and heal, take 99% of the run; 10 "
               "flows, so the data plane idles",
        "config": {
            "nodes": 384, "cliques": 16, "locality": 0.6, "lanes": 1,
            "workload": "flows", "flow_size": "pfabric-data-mining",
            "flow_size_cap": 65536, "load": 0.4, "epoch_slots": 250,
            "estimate_noise": 0.5, "fault_script": REPLAN_FAULTS,
            "retransmit_timeout": 512, "slots": 1600, "drain_slots": 400,
            "threads": 1,
        },
    },
}

# (name, unit, better, bound, floor): bound is the share of the baseline
# median by which the metric may get worse before compare() calls it a
# regression; floor is the least allowed change in the metric's own unit.
# set-up takes a few milliseconds of page faults and allocation, so a share
# of it alone would sit inside that noise.
END_TO_END = (
    ("slots_per_s", "1/s", "higher", 0.25, 0.0),
    ("setup_s", "s", "lower", 0.25, 0.005),
    ("peak_rss_mb", "MB", "lower", 0.12, 0.0),
)
WALL_CLOCK = {"slots_per_s", "setup_s"}

WS, SAT, INC, LN, CR = WORKLOADS
ALL = tuple(WORKLOADS)
FLOWS = (WS, INC, LN, CR)

# (name, unit, layer, end-to-end metric it should move, on which workloads)
PER_LAYER = (
    ("topo.design_build_ms", "ms", "topo", "setup_s", ALL),
    ("traffic.demand_build_ms", "ms", "traffic", "setup_s", ALL),
    ("scenario.wiring_ms", "ms", "scenario", "setup_s", ALL),
    ("routing.route_calls", "count", "routing", "slots_per_s", (WS, SAT, INC)),
    ("routing.ns_per_route", "ns", "routing", "slots_per_s", (WS, SAT, INC)),
    ("routing.share", "frac", "routing", "slots_per_s", (WS, SAT, INC)),
    ("traffic.arrivals", "count", "traffic", "slots_per_s", (WS, INC, LN)),
    ("traffic.ns_per_arrival", "ns", "traffic", "slots_per_s", (WS, INC, LN)),
    ("traffic.offered_load", "load", "traffic", "none (describes the input)",
     FLOWS),
    ("sim.slot_samples", "count", "sim", "slots_per_s", FLOWS),
    ("sim.slot_us_p50", "us", "sim", "slots_per_s", FLOWS),
    ("sim.slot_us_p99", "us", "sim", "slots_per_s", FLOWS),
    ("sim.slot_us_max", "us", "sim", "slots_per_s", FLOWS),
    ("sim.cell_hops", "count", "sim", "slots_per_s", (SAT, LN)),
    ("sim.ns_per_cell_hop", "ns", "sim", "slots_per_s", (SAT, LN)),
    ("sim.schedule_advance_ms", "ms", "sim", "slots_per_s", ALL),
    ("sim.lane_sweep_ms", "ms", "sim", "slots_per_s", ALL),
    ("sim.merge_replay_ms", "ms", "sim", "slots_per_s", (LN,)),
    ("sim.voq_settle_ms", "ms", "sim", "slots_per_s", (LN,)),
    ("sim.retransmit_ms", "ms", "sim", "slots_per_s", (INC, CR)),
    ("sim.unattributed_ms", "ms", "sim", "slots_per_s", ALL),
    ("parallel.batches_per_slot", "1/slot", "sim/parallel", "slots_per_s",
     (LN,)),
    ("parallel.owner_wait_ms", "ms", "sim/parallel", "slots_per_s", (LN,)),
    ("parallel.worker_busy_frac", "frac", "sim/parallel", "slots_per_s",
     (LN,)),
    ("control.epochs", "count", "control", "slots_per_s", (CR,)),
    ("control.replans", "count", "control", "slots_per_s", (CR,)),
    ("control.epoch_ms_p50", "ms", "control", "slots_per_s", (CR,)),
    ("control.replan_ms_p50", "ms", "control", "slots_per_s", (CR,)),
    ("control.replan_ms_max", "ms", "control", "slots_per_s", (CR,)),
    ("control.tick_ms", "ms", "control", "slots_per_s", (CR,)),
    ("control.share", "frac", "control", "slots_per_s", (CR,)),
    ("fault.events", "count", "fault", "slots_per_s", (CR,)),
    ("fault.tick_ms", "ms", "fault", "slots_per_s", (CR,)),
    ("sim.waste_frac", "frac", "sim", "slots_per_s", (INC,)),
    ("transport.cells_sent", "count", "transport", "slots_per_s", (INC,)),
    ("transport.ecn_acked_frac", "frac", "transport", "slots_per_s", (INC,)),
    ("transport.cwnd_mean", "cells", "transport", "slots_per_s", (INC,)),
    ("sim.cells_in_flight_peak", "cells", "sim", "peak_rss_mb", (SAT, LN)),
    ("sim.voq_bytes_per_cell", "B/cell", "sim", "peak_rss_mb", (SAT, LN)),
    ("mem.voq_cells_mb", "MB", "obs", "peak_rss_mb", (SAT, LN)),
    ("mem.metrics_distributions_mb", "MB", "obs", "peak_rss_mb", (SAT, LN)),
    ("mem.flow_records_mb", "MB", "obs", "peak_rss_mb", (SAT, LN)),
    ("mem.schedule_matchings_mb", "MB", "obs", "peak_rss_mb", (SAT, LN)),
    ("mem.traffic_demand_mb", "MB", "obs", "peak_rss_mb", (SAT, LN)),
    ("mem.unattributed_mb", "MB", "obs", "peak_rss_mb", (SAT, LN)),
    ("trace.overhead_frac", "frac", "trace", "none (cost of tracing)", ALL),
)

# Simulated results: reported, never gated, and identical on every run of a
# seed. A change that only makes the simulator faster must leave them alone.
SIM_RESULTS = (
    ("sim.delivered_cells", "count"),
    ("sim.completed_flows", "count"),
    ("sim.fct_p99_us", "us"),
    ("sim.saturation_r", "frac"),
    ("sim.r_over_predicted", "frac"),
    ("sim.digest", "fnv1a64"),
)

# What two results must share before their wall clocks are compared.
HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type")


class BenchError(Exception):
    """Set-up failed (build, missing tool): no measurement is possible."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------- build ---

def build():
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    steps = [
        [cmake, "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        [cmake, "--build", str(BUILD), "--target", "sornbench",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    with open(build_log, "w") as out:
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
            if proc.returncode != 0:
                tail = build_log.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    if not BINARY.exists():
        raise BenchError(f"build produced no {BINARY}")


def fingerprint(seed, reps, configs):
    cache = {}
    cache_path = BUILD / "CMakeCache.txt"
    if cache_path.exists():
        for line in cache_path.read_text().splitlines():
            if line.startswith(("#", "//")) or "=" not in line:
                continue
            key, _, value = line.partition("=")
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            commit = head.stdout.strip()
            status = subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True)
            dirty = bool(status.stdout.strip())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
        "reps": reps,
        "configs": configs,
    }


def host_key(fp):
    return {k: fp.get(k) for k in HOST_KEYS}


# ------------------------------------------------------------ workloads ---

def workload_config(name, seed, factor=1.0):
    """The ScenarioConfig of a workload; `factor` scales every slot count
    (--smoke shortens the workloads with it)."""
    config = dict(COMMON)
    config.update(WORKLOADS[name]["config"])
    config.update({field: seed for field in SEEDED_FIELDS})
    for key in ("slots", "drain_slots", "warmup_slots", "measure_slots",
                "epoch_slots"):
        if key in config:
            config[key] = max(1, int(config[key] * factor))
    if "fault_script" in config:
        events = (line.split(" ", 1)
                  for line in config["fault_script"].splitlines())
        config["fault_script"] = "".join(
            f"{int(int(slot) * factor)} {event}\n" for slot, event in events)
    return config


# ------------------------------------------------------------- running ---

def run_sornbench(config_path, trace_path=None):
    """One sornbench process. Returns (record, error)."""
    cmd = [str(BINARY), "--scenario", str(config_path)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {PROCESS_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    try:
        return json.loads(proc.stdout), None
    except json.JSONDecodeError as err:
        return None, f"unparsable output: {err}"


def check_run(config, rec, reference):
    """Output checks every repetition must pass. Returns a list of problems."""
    problems = []
    if reference is not None and rec["digest"] != reference:
        problems.append(
            f"metrics digest {rec['digest']} != reference {reference}")
    if rec["delivered_cells"] <= 0:
        problems.append("no cell was delivered")
    if rec["completed_flows"] > rec["flows_injected"] and \
            config["workload"] != "saturation":
        problems.append("more flows completed than injected")
    if config["workload"] == "saturation":
        # Capacity bound (Addanki et al.): every delivered cell used
        # mean_hops link-slots, and a link carries one cell per slot.
        r, hops = rec["saturation_r"], rec["mean_hops"]
        if not 0.0 < r or r * hops > 1.0 + 1e-9:
            problems.append(f"saturation r={r} with {hops} mean hops "
                            "breaks the capacity bound")
    if rec["threads"] > MAX_THREADS:
        problems.append(f"ran {rec['threads']} engine threads "
                        f"(limit {MAX_THREADS})")
    return problems


class Workload:
    """Everything measured for one workload within one invocation."""

    def __init__(self, name, seed, factor):
        self.name = name
        self.config = workload_config(name, seed, factor)
        stem = BUILD / "configs" / f"{name}-s{seed}"
        stem.parent.mkdir(parents=True, exist_ok=True)
        self.config_path = stem.with_suffix(".json")
        self.verify_path = stem.with_name(stem.name + "-verify.json")
        self.config_path.write_text(json.dumps(self.config, indent=1))
        self.verify_path.write_text(json.dumps(
            dict(self.config, threads=1, check_invariants=True), indent=1))
        self.spans_path = BUILD / "spans" / f"{name}.json"
        self.spans_path.parent.mkdir(parents=True, exist_ok=True)
        self.reference = None
        self.verify_rec = None
        self.runs = []
        self.traced_runs = []
        self.attempted = 0
        self.failures = []

    def attempt(self, what, config_path, **kwargs):
        self.attempted += 1
        rec, err = run_sornbench(config_path, **kwargs)
        if err is None:
            problems = check_run(self.config, rec, self.reference)
            if problems:
                err = "; ".join(problems)
        if err is not None:
            self.failures.append(f"{what}: {err}")
            log(f"  FAIL {self.name} {what}: {err}")
            return None
        return rec

    def verify(self):
        rec = self.attempt("verify", self.verify_path)
        if rec is not None:
            self.reference = rec["digest"]
            self.verify_rec = rec

    def timed(self):
        if self.reference is None:
            return
        rec = self.attempt(f"rep {len(self.runs) + 1}", self.config_path)
        if rec is not None:
            self.runs.append(rec)

    def trace(self):
        if self.reference is None:
            return
        rec = self.attempt(f"traced {len(self.traced_runs) + 1}",
                           self.config_path, trace_path=self.spans_path)
        if rec is not None:
            rec["spans"] = json.loads(self.spans_path.read_text())
            self.traced_runs.append(rec)

    def traced(self):
        """The traced repetition with the median run time at the reference
        host speed, or None."""
        if not self.traced_runs:
            return None
        ordered = sorted(self.traced_runs,
                         key=lambda r: r["run_s"] / slowdown(r))
        return ordered[len(ordered) // 2]


# ----------------------------------------------------------- statistics ---

def summary(values, unit, better):
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "unit": unit, "better": better, "samples": values}


def percentile(values, p):
    if not values:
        return 0.0
    ordered = sorted(values)
    k = (len(ordered) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def slowdown(rec):
    """How much slower than on the quiet reference host this repetition
    ran, as estimated from its host probe."""
    return (rec["host_probe_s"] / REF_PROBE_S) ** SENSITIVITY


def simulated_slots(config, rec):
    """Slots run() simulated. Saturation resets its counters after warmup."""
    if config["workload"] == "saturation":
        return rec["slots"] + config["warmup_slots"]
    return rec["slots"]


def end_to_end(w):
    samples = {
        "slots_per_s": [simulated_slots(w.config, r) * slowdown(r)
                        / r["run_s"] for r in w.runs],
        "setup_s": [r["setup_s"] / slowdown(r) for r in w.runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in w.runs],
    }
    out = {name: summary(samples[name], unit, better)
           for name, unit, better, _, _ in END_TO_END if samples[name]}
    if w.runs:
        out["host_slowdown"] = summary([slowdown(r) for r in w.runs], "x",
                                       "lower")
    out["failed_frac"] = {"median": ratio(len(w.failures), w.attempted),
                          "unit": "frac", "better": "lower"}
    return out


def sim_results(w):
    rec = w.verify_rec
    r = rec["saturation_r"]
    saturation = w.config["workload"] == "saturation"
    return {
        "sim.delivered_cells": rec["delivered_cells"],
        "sim.completed_flows": rec["completed_flows"],
        "sim.fct_p99_us": rec["fct_p99_us"],
        "sim.saturation_r": r,
        "sim.r_over_predicted":
            r * (3.0 - w.config["locality"]) if saturation else 0.0,
        "sim.digest": rec["digest"],
    }


def per_layer(w, t):
    """Per-layer metrics of traced repetition `t`, as {name: value}."""
    trace, prof = t["trace"], t["profile"]
    run_ns = t["run_s"] * 1e9
    # Untraced and traced run times at the reference host speed.
    untraced_run_s = (statistics.median(r["run_s"] / slowdown(r)
                                        for r in w.runs)
                      if w.runs else t["run_s"] / slowdown(t))
    phase_ns = {p["phase"]: p["total_ns"] for p in prof["phases"]}
    calls = trace["route_calls"]
    route_ns = max(0.0, trace["route_ns"] - calls * trace["clock_pair_ns"])
    slots = simulated_slots(w.config, t)
    # Hop counters cover the slots SimMetrics counted (saturation: the
    # measured window only); charge them that share of the run time.
    hops = t["delivered_cells"] + t["forwarded_cells"]
    hop_run_s = untraced_run_s * t["slots"] / slots

    spans = t["spans"]["spans"]
    run_index = next(i for i, s in enumerate(spans) if s["name"] == "run")
    slot_us = {"slot": [], "epoch_slot": [], "replan_slot": []}
    for s in spans:
        if s["parent"] == run_index:
            slot_us[s["name"]].append(s["end_us"] - s["start_us"])
    all_slots = [d for ds in slot_us.values() for d in ds]
    replans_ms = [d * 1e-3 for d in slot_us["replan_slot"]]

    pool = prof["pool"]
    workers = pool["workers"]
    busy_ns = sum(x["busy_ns"] for x in workers)
    gauges = {g["name"]: g["peak_bytes"] for g in prof["memory"]["gauges"]}
    mib = 1.0 / (1 << 20)
    in_flight = t["cells_in_flight_peak"]
    transport = t.get("transport", {})
    return {
        "topo.design_build_ms": trace["design_build_ms"],
        "traffic.demand_build_ms": trace["demand_build_ms"],
        "scenario.wiring_ms": t["setup_s"] * 1e3 - trace["design_build_ms"]
                              - trace["demand_build_ms"],
        "routing.route_calls": calls,
        "routing.ns_per_route": ratio(route_ns, calls),
        "routing.share": route_ns / run_ns,
        "traffic.arrivals": trace["arrivals"],
        "traffic.ns_per_arrival": ratio(trace["arrival_replay_ns"],
                                        trace["arrivals"]),
        "traffic.offered_load": trace["offered_load"],
        "sim.slot_samples": len(all_slots),
        "sim.slot_us_p50": percentile(all_slots, 50),
        "sim.slot_us_p99": percentile(all_slots, 99),
        "sim.slot_us_max": max(all_slots, default=0.0),
        "sim.cell_hops": hops,
        "sim.ns_per_cell_hop": ratio(hop_run_s * 1e9, hops),
        "sim.schedule_advance_ms": phase_ns["schedule_advance"] * 1e-6,
        "sim.lane_sweep_ms": phase_ns["lane_sweep"] * 1e-6,
        "sim.merge_replay_ms": phase_ns["merge_replay"] * 1e-6,
        "sim.voq_settle_ms": phase_ns["voq_settle"] * 1e-6,
        "sim.retransmit_ms": phase_ns["retransmit"] * 1e-6,
        "sim.unattributed_ms":
            (run_ns - sum(phase_ns.values()) - route_ns) * 1e-6,
        "parallel.batches_per_slot": pool["batches"] / slots,
        "parallel.owner_wait_ms": pool["owner_wait_ns"] * 1e-6,
        "parallel.worker_busy_frac":
            ratio(busy_ns, len(workers) * pool["window_ns"]),
        "control.epochs": len(slot_us["epoch_slot"]) + len(replans_ms),
        "control.replans": t["replans"],
        "control.epoch_ms_p50": percentile(slot_us["epoch_slot"], 50) * 1e-3,
        "control.replan_ms_p50": percentile(replans_ms, 50),
        "control.replan_ms_max": max(replans_ms, default=0.0),
        "control.tick_ms": phase_ns["control_tick"] * 1e-6,
        "control.share": phase_ns["control_tick"] / run_ns,
        "fault.events": t["fault_events"],
        "fault.tick_ms": phase_ns["fault_tick"] * 1e-6,
        "sim.waste_frac":
            ratio(t["dropped_cells"] + t["duplicate_cells"], hops),
        "transport.cells_sent": transport.get("cells_sent", 0),
        "transport.ecn_acked_frac": ratio(transport.get("ecn_acked_cells", 0),
                                          transport.get("acked_cells", 0)),
        "transport.cwnd_mean": transport.get("cwnd_mean", 0.0),
        "sim.cells_in_flight_peak": in_flight,
        "sim.voq_bytes_per_cell": ratio(gauges.get("voq_cells", 0),
                                        in_flight),
        "mem.voq_cells_mb": gauges.get("voq_cells", 0) * mib,
        "mem.metrics_distributions_mb":
            gauges.get("metrics_distributions", 0) * mib,
        "mem.flow_records_mb": gauges.get("flow_records", 0) * mib,
        "mem.schedule_matchings_mb":
            gauges.get("schedule_matchings", 0) * mib,
        "mem.traffic_demand_mb": gauges.get("traffic_demand", 0) * mib,
        "mem.unattributed_mb": t["peak_rss_mb"] - sum(gauges.values()) * mib,
        "trace.overhead_frac":
            t["run_s"] / slowdown(t) / untraced_run_s - 1.0,
    }


# ------------------------------------------------------------- measure ---

def measure(names, seed, reps=None, seconds=None, traced=True, factor=1.0):
    """Verify, time and trace the named workloads. Returns {name: Workload}.

    Runs `reps` timed rounds, or rounds until `seconds` have passed (at
    least three). Rounds cycle through the workloads so slow drift in the
    host hits every workload alike.
    """
    build()
    work = {name: Workload(name, seed, factor) for name in names}
    for w in work.values():
        log(f"verify {w.name}")
        w.verify()
    start = time.monotonic()
    rounds = 0

    def more_rounds():
        if reps is not None:
            return rounds < reps
        return rounds < 3 or time.monotonic() - start < seconds

    while more_rounds():
        rounds += 1
        log(f"round {rounds}")
        for w in work.values():
            w.timed()
    if traced:
        for i in range(TRACED_ROUNDS):
            log(f"traced round {i + 1}")
            for w in work.values():
                w.trace()
    return work


def report(work, seed, reps, out_path):
    configs = {name: w.config for name, w in work.items()}
    results = {"schema": "sornbench-results-v1",
               "fingerprint": fingerprint(seed, reps, configs),
               "workloads": {}}
    trace_doc = {"schema": "sornbench-trace-v1", "workloads": {}}
    meta = {m[0]: m[1:] for m in PER_LAYER}
    for name, w in work.items():
        entry = {"attempted": w.attempted, "failed": len(w.failures),
                 "failures": w.failures, "end_to_end": end_to_end(w)}
        if w.verify_rec is not None:
            entry["sim"] = sim_results(w)
        traced = w.traced()
        if traced is not None:
            entry["per_layer"] = {
                k: dict(zip(("value", "unit", "layer", "moves", "on"),
                            (v,) + meta[k]))
                for k, v in per_layer(w, traced).items()}
            trace_doc["workloads"][name] = traced["spans"]
        results["workloads"][name] = entry
    print_results(results)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(results, indent=1) + "\n")
    trace_path = out_path.with_name("trace.json")
    trace_path.write_text(json.dumps(trace_doc) + "\n")
    log(f"wrote {out_path} and {trace_path}")
    return results


def fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_results(results):
    units = dict(SIM_RESULTS)
    for name, entry in results["workloads"].items():
        print(f"== {name}: {entry['attempted']} attempted, "
              f"{entry['failed']} failed")
        for metric, s in entry["end_to_end"].items():
            line = f"  {metric:<30} {fmt(s['median']):>14} {s['unit']:<7}"
            if "q1" in s:
                line += (f" (q1 {fmt(s['q1'])}, q3 {fmt(s['q3'])}, "
                         f"n={s['n']})")
            print(line.rstrip())
        for metric, m in entry.get("per_layer", {}).items():
            print(f"  {metric:<30} {fmt(m['value']):>14} {m['unit']}")
        for metric, value in entry.get("sim", {}).items():
            print(f"  {metric:<30} {fmt(value):>14} {units[metric]}")
        for failure in entry["failures"]:
            print(f"  FAILURE {failure}")


def result_line(results, name, traced):
    """The last stdout line of a single-workload run."""
    entry = results["workloads"][name]
    metrics = {}
    if traced:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        values = {k: m["value"] for k, m in entry.get("per_layer", {}).items()}
        values.update(entry.get("sim", {}))
        for m in benchmark["per_layer"]:
            if m["name"] in values:
                metrics[m["name"]] = {"value": values[m["name"]],
                                      "unit": m["unit"]}
    else:
        for metric, unit, _, _, _ in END_TO_END:
            if metric in entry["end_to_end"]:
                metrics[metric] = {
                    "value": entry["end_to_end"][metric]["median"],
                    "unit": unit}
    return json.dumps({"correct": entry["failed"] == 0,
                       "attempted": entry["attempted"],
                       "failed": entry["failed"], "metrics": metrics})


# -------------------------------------------------------------- compare ---

def verdict(better, bound, a, b, drift=0.0, floor=0.0):
    """better | worse | within bound | unresolved, for one metric/workload.

    `a` is the baseline, `b` the candidate. The bound is `bound` times a's
    median, and never less than `floor`. The noise is the widest of the
    run-to-run spread (IQR over median) of either side and `drift`, the
    set-to-set spread calibrated on this host. A change larger than bound
    plus noise is decided whatever the noise. Below that, noise wider than
    the bound leaves the verdict unresolved, unless every candidate run
    beats every baseline run and the drift is within the bound (two sets run
    minutes apart are not paired, so dominance proves nothing under drift).
    """
    bound = max(bound, floor / a["median"])
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    noise = max(spread, drift)
    all_better = all(sign * (y - x) > 0
                     for x in a["samples"] for y in b["samples"])
    if gain < -(bound + noise):
        return "worse"
    if gain > bound + noise:
        return "better"
    if noise > bound:
        return "better" if all_better and drift <= bound else "unresolved"
    if gain < -bound:
        return "worse"
    a_spread = (a["q3"] - a["q1"]) / a["median"]
    if gain > bound or (gain > a_spread and all_better):
        return "better"
    return "within bound"


def compare(a, b, stream=None, drift=None):
    """Print verdicts for B against baseline A. Returns (verdicts, flags).

    `drift` maps (metric, workload) to the calibrated set-to-set spread.
    """
    stream = stream or sys.stdout
    drift = drift or {}
    same_host = host_key(a["fingerprint"]) == host_key(b["fingerprint"])
    if not same_host:
        print("host fingerprints differ; wall-clock metrics are not "
              f"compared:\n  A {host_key(a['fingerprint'])}\n"
              f"  B {host_key(b['fingerprint'])}", file=stream)
    verdicts, flags = {}, []
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, _, better, bound, floor in END_TO_END:
            if metric in WALL_CLOCK and not same_host:
                continue
            sa = wa["end_to_end"].get(metric)
            sb = wb["end_to_end"].get(metric)
            if sa is None or sb is None:
                continue
            v = verdict(better, bound, sa, sb,
                        drift.get((metric, name), 0.0), floor)
            verdicts[(metric, name)] = v
            floor_note = f" (at least {fmt(floor)})" if floor else ""
            print(f"{name:<18} {metric:<13} {fmt(sa['median']):>12} -> "
                  f"{fmt(sb['median']):>12} {sb['unit']:<4} "
                  f"bound {bound:.0%}{floor_note}: {v}", file=stream)
        fa = wa["end_to_end"]["failed_frac"]["median"]
        fb = wb["end_to_end"]["failed_frac"]["median"]
        verdicts[("failed_frac", name)] = (
            "worse" if fb > fa else "within bound")
        if fb > fa:
            print(f"{name:<18} failed_frac   {fa:.4g} -> {fb:.4g}: worse",
                  file=stream)
        configs_a = a["fingerprint"]["configs"].get(name)
        if configs_a != b["fingerprint"]["configs"].get(name):
            print(f"{name:<18} configs or seed differ; simulated results "
                  "not compared", file=stream)
            continue
        for key, value in wa.get("sim", {}).items():
            other = wb.get("sim", {}).get(key)
            if other != value:
                flags.append((key, name))
                print(f"{name:<18} SIM DRIFT {key}: {value} -> {other}",
                      file=stream)
    return verdicts, flags


# ------------------------------------------------------------ calibrate ---

def load_drift(fp):
    """calibration.json's set-to-set spreads, if it was made on host `fp`."""
    path = HERE / "calibration.json"
    if not path.exists():
        return {}
    doc = json.loads(path.read_text())
    if doc["fingerprint"] != host_key(fp):
        return {}
    return {(metric, name): row["set_to_set_spread"]
            for metric, m in doc["metrics"].items()
            for name, row in m["workloads"].items()}


def calibrate(paths):
    """Set-to-set spread of every (end-to-end metric, workload) median."""
    sets = [json.loads(Path(p).read_text()) for p in paths]
    out = {"sets": [str(p) for p in paths],
           "fingerprint": host_key(sets[0]["fingerprint"]),
           "metrics": {}}
    for metric, unit, better, bound, floor in END_TO_END:
        rows = {}
        for name in WORKLOADS:
            stats = [s["workloads"][name]["end_to_end"][metric]
                     for s in sets if name in s["workloads"]
                     and metric in s["workloads"][name]["end_to_end"]]
            if len(stats) < 2:
                continue
            meds = [e["median"] for e in stats]
            rows[name] = {
                "medians": meds,
                "set_to_set_spread":
                    (max(meds) - min(meds)) / statistics.median(meds),
                "max_within_set_iqr":
                    max((e["q3"] - e["q1"]) / e["median"] for e in stats),
            }
        out["metrics"][metric] = {"unit": unit, "better": better,
                                  "bound": bound, "floor": floor,
                                  "workloads": rows}
    return out


# ------------------------------------------------------------ self-test ---

def _fake(slots_per_s, spread=0.01, digest="abc", nproc=4, setup_s=0.01):
    def stat(med, unit, better):
        return summary([med * (1 - spread), med, med * (1 + spread)],
                       unit, better)
    fp = {"nproc": nproc, "cpu_model": "x", "compiler": "c",
          "build_type": "b", "configs": {"w": {"nodes": 8}}}
    return {
        "fingerprint": fp,
        "workloads": {"w": {
            "end_to_end": {
                "slots_per_s": stat(slots_per_s, "1/s", "higher"),
                "setup_s": stat(setup_s, "s", "lower"),
                "peak_rss_mb": stat(100.0, "MB", "lower"),
                "failed_frac": {"median": 0.0},
            },
            "sim": {"sim.delivered_cells": 10, "sim.digest": digest}}},
    }


def self_test():
    quiet = io.StringIO()
    base = _fake(1000.0)
    checks = []

    v, flags = compare(base, _fake(1000.0), quiet)
    checks.append(("identical runs are within bound",
                   set(v.values()) == {"within bound"} and not flags))
    v, _ = compare(base, _fake(700.0), quiet)
    checks.append(("a 30% slowdown is worse",
                   v[("slots_per_s", "w")] == "worse"))
    v, _ = compare(base, _fake(1500.0), quiet)
    checks.append(("a 50% speedup is better",
                   v[("slots_per_s", "w")] == "better"))
    v, _ = compare(_fake(1000.0, spread=0.4), _fake(950.0, spread=0.4),
                   quiet)
    checks.append(("noise wider than the bound is unresolved",
                   v[("slots_per_s", "w")] == "unresolved"))
    _, flags = compare(base, _fake(1000.0, digest="abd"), quiet)
    checks.append(("simulated-result drift is flagged",
                   ("sim.digest", "w") in flags))
    v, _ = compare(base, _fake(1200.0), quiet,
                   drift={("slots_per_s", "w"): 0.3})
    checks.append(("calibrated drift wider than the bound is unresolved",
                   v[("slots_per_s", "w")] == "unresolved"))
    v, _ = compare(base, _fake(400.0), quiet,
                   drift={("slots_per_s", "w"): 0.3})
    checks.append(("a slowdown beyond bound plus drift is worse",
                   v[("slots_per_s", "w")] == "worse"))
    v, _ = compare(base, _fake(1000.0, setup_s=0.014), quiet)
    checks.append(("a 4 ms rise of a 10 ms set-up is within the 5 ms floor",
                   v[("setup_s", "w")] == "within bound"))
    v, _ = compare(base, _fake(1000.0, setup_s=0.016), quiet)
    checks.append(("a 6 ms rise of a 10 ms set-up is worse",
                   v[("setup_s", "w")] == "worse"))
    v, flags = compare(base, _fake(500.0, nproc=64), quiet)
    checks.append(("other hosts skip wall clocks but compare counts",
                   ("slots_per_s", "w") not in v
                   and ("peak_rss_mb", "w") in v and not flags))
    failing = _fake(1000.0)
    failing["workloads"]["w"]["end_to_end"]["failed_frac"]["median"] = 0.5
    v, _ = compare(base, failing, quiet)
    checks.append(("any rise in failed_frac is worse",
                   v[("failed_frac", "w")] == "worse"))

    for label, passed in checks:
        print(f"{'ok  ' if passed else 'FAIL'} {label}")
    return 0 if all(passed for _, passed in checks) else 1


# ----------------------------------------------------------------- main ---

def main(argv):
    if argv and argv[0] in ("compare", "calibrate"):
        parser = argparse.ArgumentParser(prog=f"run.py {argv[0]}")
        parser.add_argument("files", nargs="+")
        parser.add_argument("--out")
        args = parser.parse_args(argv[1:])
        if argv[0] == "compare":
            if len(args.files) != 2:
                parser.error("compare takes two results files")
            a, b = (json.loads(Path(p).read_text()) for p in args.files)
            drift = load_drift(a["fingerprint"])
            verdicts, flags = compare(a, b, drift=drift)
            return 1 if flags or "worse" in verdicts.values() else 0
        if len(args.files) < 2:
            parser.error("calibrate takes at least two results files")
        doc = json.dumps(calibrate(args.files), indent=1) + "\n"
        if args.out:
            Path(args.out).write_text(doc)
        print(doc, end="")
        return 0

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=30)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", default=str(BUILD / "results.json"))
    parser.add_argument("--workload", help="one workload, timed for --seconds")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    names = [args.workload] if args.workload else args.workloads.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; "
                     f"known: {', '.join(WORKLOADS)}")
    if args.reps < 1 or args.seconds <= 0:
        parser.error("--reps and --seconds must be positive")

    try:
        if args.smoke:
            reps = 1
            work = measure(names, args.seed, reps=1, factor=SMOKE_FACTOR)
        elif args.workload:
            reps = None
            work = measure(names, args.seed, seconds=args.seconds,
                           traced=bool(args.trace))
        else:
            reps = args.reps
            work = measure(names, args.seed, reps=args.reps)
        results = report(work, args.seed, reps, Path(args.out))
    except BenchError as err:
        log(f"sornbench: {err}")
        return 1
    if args.workload:
        print(result_line(results, args.workload, bool(args.trace)))
    failed = any(e["failed"] for e in results["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
