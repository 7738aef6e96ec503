"""The beckring benchmark: one workload, one seed, end to end or traced.

    python3 bench/run.py --workload analyze-large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from src/.
Steps:

1. the seeded request list is drawn (workloads.py); --seconds sets the number
   of passes over it, one per `pass_seconds` of the workload;
2. each pass: PROBES_PER_PASS fresh processes each import beckring.cli and
   resolve the canonical AN ring, each followed by one that imports numpy
   alone (setup_s comes from the medians of both), then
   a fresh single-threaded worker (bench/worker.py) runs the whole list as
   one closed-loop client, one CLI invocation per request;
3. every answer of every pass goes through the gate in reference.py;
4. each request time is rescaled to the reference speed by the calibration
   kernel (calibrate.py) the worker runs around it, a request's latency is
   its fastest pass, and the latency metrics are taken over these; set-up
   times are rescaled by fresh processes that import numpy alone;
5. with --trace 1 one more, traced worker runs the same list and the
   per-layer metrics come from its spans; its wall time minus the median
   untraced pass is the tracing overhead.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}: the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1. The full result (argv lists, seed, held-out seed, machine info,
per-request outcomes) is written to bench/out/. Exits 1 if any answer is
wrong or a request raised, 2 if the checkout or its inputs are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import reference  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

PROBES_PER_PASS = 3  # set-up probes before each pass
HELD_OUT_SEED = 7919  # reserved for confirming later claims; do not tune on it
RUN_LIMIT_S = 170  # the whole run, set-up probes and workers included

# The kernel of calibrate.py takes this long when the machine runs at the
# speed all reported times are rescaled to: its fast state, on the 2-CPU
# Intel Xeon host the benchmark was defined on.
REFERENCE_KERNEL_S = 0.0015

# A fresh process importing numpy alone takes this long at the reference
# speed, on the same host. Set-up is mostly imports, and slows with the
# host's speed about as numpy's import does, not as the kernel does.
REFERENCE_NUMPY_IMPORT_S = 0.07

# a fresh process's imports, without the program: the baseline for setup_s
BASELINE_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "print(time.perf_counter() - t0)\n"
)

PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import beckring.cli\n"
    "from beckring.catalog import canonical_anderson_naseer\n"
    "canonical_anderson_naseer()\n"
    "t1 = time.perf_counter()\n"
    "import numpy\n"
    "print(t1 - t0, beckring.cli.__file__, numpy.__version__)\n"
)

CHECK_NAMES = (
    "ring_axioms", "graph_invariants", "core_preservation", "omega_le_chi",
    "oracle_equivalence", "product_omega_formula", "chi_sandwich", "nilradical_bound",
    "zn_closed_form", "reduced_equality", "counterexample_family", "dsl_round_trip",
    "report_json_round_trip", "s_statistic",
)

# per-layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "rings.zero_rel_s": ("rings.zero_rel_matrix",),
    "rings.unit_mask_s": ("rings.unit_mask",),
    "rings.is_local_s": ("rings.is_local",),
    "rings.nilradical_s": ("rings.nilradical",),
    "rings.field_factor_count_s": ("rings.field_factor_count",),
    "rings.validate_s": ("rings.validate",),
    "graphs.build_s": ("graphs.build_graph",),
    "graphs.core_s": ("graphs.core",),
    "graphs.export_s": ("graphs.export_graph",),
    "solvers.max_clique_s": ("solvers.max_clique",),
    "solvers.split_s": ("solvers.best_clique_split",),
    "solvers.chromatic_s": ("solvers.chromatic_number",),
    "solvers.min_s_s": ("solvers.min_s_optimal_coloring",),
    "solvers.verify_s": ("solvers.verify",),
    "theorems.omega_formula_s": ("theorems.omega_product_formula",),
    "theorems.chi_bounds_s": ("theorems.chi_bounds",),
    "theorems.product_coloring_s": ("theorems.product_coloring",),
    "theorems.an_condition_s": ("theorems.an_condition",),
    "theorems.counterexample_s": ("theorems.counterexample_family",),
}
LAYERS = ("rings", "graphs", "solvers", "theorems", "report", "cli", "dsl", "oracle")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BECKRING_BUDGET", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    return env


def _left(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def _probe(code: str, deadline: float) -> list[str]:
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=_left(deadline))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout.split()


def measure_setup(probes: int, deadline: float) -> tuple[list[float], list[float], str]:
    """Set-up times of fresh processes, each followed by a baseline process
    that imports numpy alone; both as measured."""
    times, baseline, numpy_version = [], [], "unknown"
    for _ in range(probes):
        seconds, module_file, numpy_version = _probe(PROBE, deadline)
        if not os.path.abspath(module_file).startswith(SRC + os.sep):
            raise RuntimeError(f"beckring imported from {module_file}, not from {SRC}")
        times.append(float(seconds))
        baseline.append(float(_probe(BASELINE_PROBE, deadline)[0]))
    return times, baseline, numpy_version


def run_worker(requests_path: str, result_path: str, trace: bool, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), requests_path, result_path]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=_left(deadline))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-1000:]}")
    with open(result_path, encoding="utf-8") as f:
        return json.load(f)


def gate(requests: list[dict], result: dict, table: dict) -> list[dict]:
    """Each request's status, plus its latency as measured (raw_latency_s)
    and at the reference speed (latency_s). A budget-exhausted request's
    time is mostly its wall-clock deadline, which does not change with the
    machine's speed, so it is kept as measured."""
    outcomes = []
    speed = result["calibration_s"]
    for i, (req, rec) in enumerate(zip(requests, result["records"])):
        status, detail, gap = reference.check(req, rec, table, ROOT)
        raw = rec["end"] - rec["start"]
        latency = raw if status == "budget" else stats.at_reference_speed(
            raw, speed[i], speed[i + 1], REFERENCE_KERNEL_S)
        outcomes.append({"index": req["index"], "status": status, "detail": detail, "gap": gap,
                         "latency_s": latency, "raw_latency_s": raw, "rc": rec["rc"]})
    return outcomes


def end_to_end(passes: list[dict], pass_outcomes: list[list[dict]], setup_times: list[float],
               baseline_times: list[float]) -> dict:
    """Each request's latency is the fastest of its passes at the reference
    speed: the kernel follows the machine's slow spells of minutes, and the
    fastest pass drops what it misses, since a slow moment only adds."""
    latencies = stats.fastest([[o["latency_s"] for o in outcomes] for outcomes in pass_outcomes])
    raw = stats.fastest([[o["raw_latency_s"] for o in outcomes] for outcomes in pass_outcomes])
    n = len(latencies)
    tail = stats.tail_percentile(latencies)
    flat = [o for outcomes in pass_outcomes for o in outcomes]
    counts = {s: sum(1 for o in flat if o["status"] == s) for s in ("ok", "budget", "wrong", "error")}
    gaps = [sum(o["gap"] for o in outcomes if o["gap"] is not None) for outcomes in pass_outcomes]
    return {
        "setup_s": statistics.median(setup_times) * REFERENCE_NUMPY_IMPORT_S / statistics.median(baseline_times),
        "wall_s": sum(latencies),
        "raw_setup_s": statistics.median(setup_times),
        "raw_wall_s": sum(raw),
        "raw_latency_p50_s": statistics.median(raw),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail[1] if tail else max(latencies),
        "tail_percentile": tail[0] if tail else 100.0,
        "samples": n,
        "pass_wall_s": [sum(o["latency_s"] for o in outcomes) for outcomes in pass_outcomes],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        "certified_frac": counts["ok"] / len(flat),
        "failed_frac": (len(flat) - counts["ok"]) / len(flat),
        "open_gap": statistics.median(gaps),
        "status_counts": counts,
    }


def per_layer(traced: dict, e2e_untraced: dict, e2e_traced_wall: float) -> dict:
    spans = stats.without_request(traced["spans"], "setup")
    by_name = stats.self_time_by_name(spans)
    by_layer = stats.layer_self_times(spans)
    counts = traced["counts"]
    out = {f"{layer}.self_s": by_layer.get(layer, 0.0) for layer in LAYERS}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(by_name.get(name, 0.0) for name in names)
    builds = [s for s in spans if s[stats.NAME] == "graphs.build_graph"]
    solver_ratio = stats.unique_ratio(spans, stats.SOLVER_SPANS)
    build_ratio = stats.unique_ratio(spans, ("graphs.build_graph",))
    out.update({
        "rings.mul_many_elems": counts.get("rings.mul_many_elems", 0),
        "rings.add_many_elems": counts.get("rings.add_many_elems", 0),
        "rings.scalar_ops": counts.get("rings.scalar_ops", 0),
        "graphs.build_calls": len(builds),
        "graphs.vertices_built": sum(int(s[stats.KEY].split(":")[1]) for s in builds),
        "graphs.unique_build_ratio": build_ratio if build_ratio is not None else 0.0,
        "solvers.budget_errors": stats.budget_errors(spans),
        "solvers.calls": stats.count_calls(spans, stats.SOLVER_SPANS),
        "solvers.unique_solve_ratio": solver_ratio if solver_ratio is not None else 0.0,
        "catalog.an_resolve_s": stats.outermost_time(traced["spans"], ("catalog.canonical_anderson_naseer",)),
        "trace.overhead_s": e2e_traced_wall - statistics.median(e2e_untraced["pass_wall_s"]),
        "failed_frac": e2e_untraced["failed_frac"],
        "open_gap": e2e_untraced["open_gap"],
    })
    check_s = traced["check_s"]
    for name in CHECK_NAMES:
        out[f"verify.check.{name}_s"] = check_s.get(name, 0.0)
    return out


def machine_info(numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as f:
            ref = f.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as f:
                    commit = f.read().strip()
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "commit": commit}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "beckring", "cli.py")):
        print(f"no beckring sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    try:
        table = reference.load()
    except (OSError, ValueError) as e:
        print(f"reference table unusable: {e}", file=sys.stderr)
        return 2
    requests = workloads.generate(args.workload, args.seed)
    n_passes = workloads.passes(args.workload, args.seconds)
    missing = [r["ref"] for r in requests if r["ref"] is not None and r["ref"] not in table]
    if missing:
        print(f"no reference entry for {sorted(set(missing))}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(OUT, exist_ok=True)
    shutil.rmtree(os.path.join(ROOT, workloads.EXPORT_DIR), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, workloads.EXPORT_DIR))
    requests_path = os.path.join(OUT, f"{tag}-requests.json")
    with open(requests_path, "w", encoding="utf-8") as f:
        json.dump(requests, f)

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setup_times, baseline_times, passes, pass_outcomes = [], [], [], []
        for p in range(n_passes):
            times, baseline, numpy_version = measure_setup(PROBES_PER_PASS, deadline)
            setup_times += times
            baseline_times += baseline
            passes.append(run_worker(requests_path, os.path.join(OUT, f"{tag}-worker{p}.json"), False, deadline))
            pass_outcomes.append(gate(requests, passes[-1], table))
        traced = traced_outcomes = None
        if args.trace:
            traced = run_worker(requests_path, os.path.join(OUT, f"{tag}-traced.json"), True, deadline)
            traced_outcomes = gate(requests, traced, table)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 2

    e2e = end_to_end(passes, pass_outcomes, setup_times, baseline_times)
    groups = [(f"pass {p} ", outcomes) for p, outcomes in enumerate(pass_outcomes)]
    groups.append(("traced ", traced_outcomes or []))
    bad = {o["index"] for _, group in groups for o in group if o["status"] in ("wrong", "error")}
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        traced_wall = sum(o["latency_s"] for o in traced_outcomes)
        values = per_layer(traced, e2e, traced_wall)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        values = e2e
        names = [m["name"] for m in spec["end_to_end"]]

    print(f"workload {args.workload}, seed {args.seed} (held-out seed {HELD_OUT_SEED}), "
          f"{len(requests)} requests, one closed-loop client, trace {args.trace}")
    for label, group in groups:
        for o in group:
            if o["status"] != "ok":
                argv = " ".join(requests[o["index"]]["argv"])
                print(f"  {label}request {o['index']} {argv}: {o['status']} {o['detail']}")
    c = e2e["status_counts"]
    print(f"  outcomes over {n_passes} passes: {c['ok']} ok, {c['budget']} budget-exhausted, {c['wrong']} wrong, {c['error']} errors")
    print(f"  times below at the reference speed (kernel {REFERENCE_KERNEL_S * 1000:.1f} ms, numpy import "
          f"{REFERENCE_NUMPY_IMPORT_S * 1000:.0f} ms); as measured: setup {e2e['raw_setup_s']:.4f} s, "
          f"wall {e2e['raw_wall_s']:.4f} s, p50 {e2e['raw_latency_p50_s']:.4f} s")
    print(f"  setup_s {e2e['setup_s']:.4f} s (median of {len(setup_times)} fresh processes)")
    print(f"  wall_s {e2e['wall_s']:.4f} s (each request's fastest of {n_passes} passes)")
    print(f"  latency_p50_s {e2e['latency_p50_s']:.4f} s")
    print(f"  latency_tail_s {e2e['latency_tail_s']:.4f} s (p{e2e['tail_percentile']:.1f} of {e2e['samples']} requests)")
    print(f"  peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    print(f"  certified_frac {e2e['certified_frac']:.4f} ratio")
    print(f"  failed_frac {e2e['failed_frac']:.4f} ratio (budget exhaustion counts as failed)")
    print(f"  open_gap {e2e['open_gap']} count (sum of upper - lower over budget-exhausted requests)")
    if args.trace:
        for name in names:
            print(f"  {name} {values[name]} {units[name]}")

    result = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "machine": machine_info(numpy_version),
        "argv": [r["argv"] for r in requests], "setup_times_s": setup_times,
        "baseline_times_s": baseline_times,
        "calibration_s": [r["calibration_s"] for r in passes],
        "end_to_end": e2e, "outcomes": pass_outcomes,
        "per_layer": values if args.trace else None,
    }
    with open(os.path.join(OUT, f"{tag}-result.json"), "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)

    failed = len(bad)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(requests),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
