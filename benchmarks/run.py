"""gramclust benchmark: seeded workloads, checked outputs, end-to-end metrics.

    python3 benchmarks/run.py --workload noise-n --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is taken from ``src/``.
With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced pass over the same operations.  ``--workload all`` runs every
workload, each in a fresh process.  Each run writes a result file under
``benchmarks/results/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"
SETUP_SAMPLES = 3

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ops_per_s": "1/s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
    "cert_gap_rel": "ratio",
    "cb_over_r2": "ratio",
}

# per-layer metrics: "<module>.<function>.<stat>" read from spans, the rest
# from reports and operation records
PER_LAYER = {
    "cli.main.self_s": "s",
    "matrixcore.validate_psd.calls": "count",
    "matrixcore.validate_psd.self_s": "s",
    "matrixcore.gram_factorize.calls": "count",
    "ball.min_enclosing_ball.calls": "count",
    "ball.min_enclosing_ball.self_s": "s",
    "ball.radius_squared.self_s": "s",
    "hardness.build_mu.self_s": "s",
    "hardness.dictatorship_objective.self_s": "s",
    "conic.search_cb.calls": "count",
    "conic.search_cb.self_s": "s",
    "conic.search_cb.hit_share": "share",
    "conic.partition_moments_mc.self_s": "s",
    "conic.classify_batch.calls": "count",
    "conic.classify_batch.self_s": "s",
    "sdp.solve_sdp.self_s": "s",
    "sdp.ascend_from.self_s": "s",
    "sdp.iterations": "count",
    "sdp.rank": "count",
    "sdp.dual_gap_rel": "ratio",
    "sdp.converged_share": "share",
    "rounding.round_best_of.self_s": "s",
    "rounding.clustering_value.calls": "count",
    "rounding.trials_per_s": "1/s",
    "rounding.oracle_gap_rel": "ratio",
    "oracle.brute_force_clust.self_s": "s",
    "oracle.states_per_s": "1/s",
    "tracing.latency_p50_s": "s",
    "tracing.overhead_s": "s",
    "tracing.absent_functions": "count",
}


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean_or_zero(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 operations beyond it, and its value.

    With 20 or fewer operations no percentile above the median qualifies,
    and the maximum is reported as percentile 100.
    """
    ordered = sorted(latencies)
    if len(ordered) <= 20:
        return 100.0, ordered[-1]
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


# ---------------------------------------------------------------------------
# environment record


def git_commit() -> str:
    """HEAD of the checkout, read from its .git directory without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = {var: os.environ.get(var, "unset") for var in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "GRAMCLUST_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "blas_threads": threads,
        "git_commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one workload


def import_seconds(env: dict) -> float:
    """Spawn a fresh interpreter that imports gramclust.cli; wall seconds."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", "import gramclust.cli"], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"cannot import gramclust.cli from {SRC}: "
                         f"{done.stderr.decode(errors='replace').strip()[-300:]}")
    return seconds


def run_rounds(workload, budget: float, rounds: list | None = None):
    """Whole rounds, starting another only if it should end within budget.

    With ``rounds`` given, replays exactly those instances instead.
    """
    ops, played = [], []
    start = time.perf_counter()
    longest = 0.0
    for index in range(len(rounds) if rounds is not None else 10**9):
        began = time.perf_counter()
        instances = rounds[index] if rounds is not None else workload.round()
        ops.extend(workload.run(inst) for inst in instances)
        played.append(instances)
        longest = max(longest, time.perf_counter() - began)
        if rounds is None and time.perf_counter() - start + longest > budget:
            break
    return ops, played


def end_to_end(workload, ops, probes, setup_s) -> tuple[dict, dict]:
    latencies = [op.latency_s for op in ops]
    passed = sum(op.ok for op in ops)
    attempted = len(ops) + len(probes)
    failed = sum(not op.ok for op in ops + probes)
    percentile, tail_s = tail(latencies)
    if workload.in_process:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss = median_or_zero(op.rss_mb for op in ops if op.rss_mb is not None)
    quality = [op.quality for op in ops if op.ok and "cb_over_r2" in op.quality]
    values = {
        "setup_s": setup_s,
        "latency_p50_s": float(statistics.median(latencies)),
        "latency_tail_s": tail_s,
        "ops_per_s": passed / sum(latencies),
        "ok_share": (attempted - failed) / attempted,
        "peak_rss_mb": rss,
        "cert_gap_rel": mean_or_zero(q["cert_gap_rel"] for q in quality),
        "cb_over_r2": mean_or_zero(q["cb_over_r2"] for q in quality),
    }
    extra = {
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "latency_tail_percentile": percentile,
        "timed_operations": len(ops),
    }
    return values, extra


def per_layer(ctx, ops, untraced_p50: float) -> dict:
    from tracer import HIT, NAME, OP, per_op_totals

    op_ids = [op.index for op in ops]
    totals: dict = {}
    check_totals: dict = {}
    span_sets = list(ctx.child_spans)
    if ctx.tracer is not None and ctx.tracer.spans:
        span_sets.append(("op", ctx.tracer.spans))
    hits = calls = 0
    for role, spans in span_sets:
        target = totals if role == "op" else check_totals if role == "check" else None
        if target is None:
            continue
        for op_id, row in per_op_totals(spans).items():
            merged = target.setdefault(op_id, {})
            for key, value in row.items():
                merged[key] = merged.get(key, 0.0) + value
        if role == "op":
            for span in spans:
                if span[NAME] == "conic.search_cb" and span[OP] in op_ids:
                    calls += 1
                    hits += bool(span[HIT])

    def per_op(key, source=totals):
        return median_or_zero(source.get(i, {}).get(key, 0.0) for i in op_ids)

    sdp = [op.report["sdp"] for op in ops if op.report is not None and "sdp" in op.report]
    trials_per_s = [
        op.report["rounding"]["trials"] / totals[op.index]["rounding.round_best_of.time_s"]
        for op in ops
        if op.report is not None and totals.get(op.index, {}).get("rounding.round_best_of.time_s")
    ]
    states_per_s = [
        op.quality["states"] / check_totals[op.index]["oracle.brute_force_clust.time_s"]
        for op in ops
        if "states" in op.quality and check_totals.get(op.index, {}).get("oracle.brute_force_clust.time_s")
    ]
    traced_p50 = float(statistics.median(op.latency_s for op in ops))
    values = {
        name: per_op(name) for name in PER_LAYER
        if name.endswith((".self_s", ".calls")) and not name.startswith("oracle.")
    }
    values.update({
        "conic.search_cb.hit_share": hits / calls if calls else 0.0,
        "sdp.iterations": median_or_zero(s["iterations"] for s in sdp),
        "sdp.rank": median_or_zero(s["rank"] for s in sdp),
        "sdp.dual_gap_rel": mean_or_zero((s["dual_upper"] - s["value"]) / s["value"] for s in sdp),
        "sdp.converged_share": mean_or_zero(float(s["converged"]) for s in sdp),
        "rounding.trials_per_s": median_or_zero(trials_per_s),
        "rounding.oracle_gap_rel": mean_or_zero(
            op.quality["oracle_gap_rel"] for op in ops if "oracle_gap_rel" in op.quality),
        "oracle.brute_force_clust.self_s": per_op("oracle.brute_force_clust.self_s", check_totals),
        "oracle.states_per_s": median_or_zero(states_per_s),
        "tracing.latency_p50_s": traced_p50,
        "tracing.overhead_s": traced_p50 - untraced_p50,
        "tracing.absent_functions": float(len(ctx.absent)),
    })
    return {name: values[name] for name in PER_LAYER}


def op_record(op) -> dict:
    record = {"index": op.index, "label": op.label, "latency_s": op.latency_s,
              "ok": op.ok, "wrong": op.wrong, "errors": op.errors, "rss_mb": op.rss_mb}
    if op.report is not None and "sdp" in op.report:
        record["sdp_iterations"] = op.report["sdp"]["iterations"]
    record.update(op.quality)
    return record


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Run one workload; returns the full result record."""
    import numpy as np

    from tracer import Tracer
    from workloads import WORKLOADS, Context

    if not (SRC / "gramclust" / "cli.py").is_file():
        raise SystemExit(f"no gramclust sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cls = WORKLOADS[name]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ctx = Context(work=work, toy=toy)
        setup = [import_seconds(ctx.env) for _ in range(SETUP_SAMPLES)]
        workload = cls(np.random.default_rng([seed, list(WORKLOADS).index(name)]), ctx)
        setup_s = float(statistics.median(setup)) + workload.setup()

        # a traced run first repeats the untraced pass on half the budget
        budget = seconds / 2.0 if trace else seconds
        ops, rounds = run_rounds(workload, budget)
        # the probe repeats the quickest operation of the first round
        first = min(ops[:len(rounds[0])], key=lambda op: op.latency_s)
        probe = workload.probe(rounds[0][first.index - ops[0].index], first)
        probes = [probe] if probe is not None else []
        metrics, extra = end_to_end(workload, ops, probes, setup_s)
        result = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "toy": toy,
            "environment": environment(seed),
            "end_to_end": metrics,
            **extra,
            "operations": [op_record(op) for op in ops + probes],
        }
        wrong = any(op.wrong for op in ops + probes)
        if trace:
            ctx.tracer = Tracer()
            if workload.in_process:
                ctx.tracer.install()
                ctx.absent.update(ctx.tracer.absent)
                workload.before_traced_pass()
            traced, _ = run_rounds(workload, budget, rounds)
            result["per_layer"] = per_layer(ctx, traced, metrics["latency_p50_s"])
            result["absent"] = sorted(ctx.absent)
            result["traced_operations"] = [op_record(op) for op in traced]
            result["attempted"] += len(traced)
            result["failed"] += sum(not op.ok for op in traced)
            result["spans"] = [{"role": role, "spans": spans} for role, spans in ctx.child_spans]
            if ctx.tracer.spans:
                result["spans"].append({"role": "op", "spans": ctx.tracer.spans})
            wrong = wrong or any(op.wrong for op in traced)
        # typed errors are failed operations; only a failed check is a wrong answer
        result["correct"] = not wrong
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_result(result: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    toy = "-toy" if result["toy"] else ""
    path = RESULTS / f"BENCH_{result['workload']}-seed{result['seed']}-trace{result['trace']}{toy}.json"
    path.write_text(json.dumps(result, indent=1))
    return path


def summary(result: dict) -> dict:
    """The last output line: correctness, counts and the metrics of this mode."""
    if result["trace"]:
        values, units = result["per_layer"], PER_LAYER
    else:
        values, units = result["end_to_end"], END_TO_END
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def print_result(result: dict, path: Path) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}"
          f"  nproc {result['environment']['nproc']}")
    for name, value in result["end_to_end"].items():
        print(f"  {name:<42} {value:.6g} {END_TO_END[name]}")
    print(f"  {'fail_share':<42} {result['fail_share']:.6g} share"
          f"  ({result['failed']} of {result['attempted']} attempted)")
    print(f"  latency_tail_s is p{result['latency_tail_percentile']:.1f}"
          f" of {result['timed_operations']} timed operations")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<42} {value:.6g} {PER_LAYER[name]}")
    if result.get("absent"):
        print(f"  absent functions: {', '.join(result['absent'])}")
    failures = sorted({e.split(':')[0] for op in result["operations"] for e in op["errors"]})
    if failures:
        print(f"  failures: {'; '.join(failures)}")
    print(f"  result file {path.relative_to(ROOT)}")


def run_all(args) -> int:
    """Every workload in a fresh process; a table, then one combined line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            return done.returncode or 1
        line = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny instances and a single round, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    path = write_result(result)
    print_result(result, path)
    print(json.dumps(summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
