"""pciclone benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload verify_deep --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Each workload runs in one fresh process, a closed
loop with one client, with BLAS threads capped at the CPU count.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit, and the provenance.  The exit code
is 0 only when every op passed its correctness check.  See README.md for
what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracer import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify_deep", "verify_wide", "design_scan")
SETUP_STARTS = 5
PROBE_REPEATS = 3
# Every run must end well inside the 180 s a run is allowed.
RUN_BUDGET_S = 170.0

# Per-layer metrics read from the traced ops of one workload, per op.
# Each layer is read on the workload it dominates (its home), so every
# traced run reports every metric: a run of another workload also traces
# ops of each home workload besides its own ops.
# (metric, key in the per-op table, home workload)
PER_OP = (
    ("machine.build_machine.self_s", None, "verify_wide"),
    ("canonical.compose.self_s", None, "verify_wide"),
    ("canonical.compose.calls", None, "verify_wide"),
    ("canonical.embed.self_s", None, "verify_wide"),
    ("machine.assembly_bytes", None, "verify_wide"),
    ("canonical.commutation_residual.self_s", None, "verify_wide"),
    ("canonical.commutation_residual.calls", None, "verify_wide"),
    ("canonical.to_symplectic.self_s", None, "verify_wide"),
    ("canonical.to_symplectic.calls", None, "verify_wide"),
    ("gaussian.symplectic_residual.self_s", None, "verify_wide"),
    ("montecarlo.compare_to_analytic.self_s", None, "verify_wide"),
    ("gaussian.fidelity_with_coherent.calls", None, "verify_wide"),
    ("cli.cmd_verify.self_s", None, "verify_wide"),
    ("montecarlo.block_normals.self_s", None, "verify_deep"),
    ("montecarlo.block_normals.calls", None, "verify_deep"),
    ("montecarlo.normals_bytes", "montecarlo.block_normals.work", "verify_deep"),
    ("montecarlo.simulate.self_s", None, "verify_deep"),
    ("montecarlo.transform_flops", "montecarlo.simulate.work", "verify_deep"),
    ("optimize.solve_amplifier.self_s", None, "design_scan"),
    ("optimize.solve_amplifier.calls", None, "design_scan"),
    ("optimize.solve_amplifier.iterations", None, "design_scan"),
    ("optimize.minimize_asymmetry.self_s", None, "design_scan"),
    ("machine.asymmetry_gain.calls", None, "design_scan"),
    ("machine.noise_report.self_s", None, "design_scan"),
)
UNITS = (("_s", "s"), ("_mb", "MB"), ("_frac", "ratio"), ("_bytes", "B"), ("_flops", "flop"),
         (".calls", "count"), (".iterations", "count"))
COMPUTED = ("machine.assembly_bytes", "montecarlo.normals_bytes", "montecarlo.transform_flops")


def unit_of(metric):
    return next(unit for suffix, unit in UNITS if metric.endswith(suffix))


class Failed(Exception):
    """A benchmark process failed or ran out of time; no result is printed."""


class Launcher:
    """Starts benchmark processes against the checkout's ``src``."""

    def __init__(self, deadline):
        self.deadline = deadline
        threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = threads

    def run(self, argv):
        """Run a process to its end; returns (wall seconds, exit code, stdout)."""
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=self.env, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise Failed(f"timed out: {' '.join(argv)}")
        return time.monotonic() - start, proc.returncode, out

    def worker(self, args, *extra):
        argv = [sys.executable, str(HERE / "worker.py"), *extra,
                "--seed", str(args.seed), "--launched-at", repr(time.monotonic())]
        if args.tiny:
            argv.append("--tiny")
        if args.corrupt_expected:
            argv.append("--corrupt-expected")
        _, code, out = self.run(argv)
        if code != 0:
            raise Failed(f"worker exited with {code}: {' '.join(extra)}")
        return json.loads(out.strip().splitlines()[-1])


def tail_percentile(values):
    """Highest whole percentile from p90 up with at least ten samples above
    it, or None when the run has fewer than 100 samples."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 89, -1):
        rank = math.ceil(pct / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def end_to_end(args, launcher):
    """Untraced run.  Returns (worker output, metrics for the JSON line,
    metrics to print as (value, unit, note), ops attempted, ops failed)."""
    setups = [launcher.worker(args, "--mode", "setup", "--workload", args.workload)["setup_s"]
              for _ in range(SETUP_STARTS - 1)]
    out = launcher.worker(args, "--mode", "run", "--workload", args.workload,
                          "--seconds", str(args.seconds))
    setups.append(out["setup_s"])
    lat = out["latencies"]
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} process starts"),
        "ops_per_s": (len(lat) / out["wall_s"], "1/s", f"{len(lat)} ops in {out['wall_s']:.3f} s"),
        "op_p50_s": (statistics.median(lat), "s", f"n={len(lat)} timed ops"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB", "peak resident memory of the workload process"),
    }
    report = dict(metrics)
    tail = tail_percentile(lat)
    if tail is None:
        report["op_tail_s"] = (None, "s", f"omitted: {len(lat)} ops leave no percentile with 10 beyond it")
    else:
        report["op_tail_s"] = (tail[1], "s", f"p{tail[0]} of n={len(lat)}")
    report["fail_frac"] = (out["failed"] / out["attempted"], "ratio",
                           f"{out['failed']}/{out['attempted']} ops incl. the warm-up")
    notes = [n for n in out["notes"] if "error" not in n]
    if notes and "max_abs_z" in notes[0]:
        flagged = sum(n["z5_flagged"] for n in notes)
        report["worst_abs_z"] = (max(n["max_abs_z"] for n in notes), "z",
                                 f"{flagged} ops above compare_to_analytic's own 5")
    elif notes:
        report["worst_gain_rel_err"] = (max(n["gain_rel_err"] for n in notes), "ratio",
                                        "solved gain against gain_from_counts")
    return out, metrics, report, out["attempted"], out["failed"]


def layer_tables(spans, counts):
    """Per workload: per-op totals of self time, calls, work and counts."""
    names = {s[0]: s[1] for s in spans}
    own = self_times(spans)
    totals = defaultdict(lambda: defaultdict(float))
    ops = defaultdict(set)
    for s in spans:
        if s[5] is None:
            continue
        workload = s[5].split(":")[0]
        ops[workload].add(s[5])
        table = totals[workload]
        table[f"{s[1]}.self_s"] += own[s[0]]
        table[f"{s[1]}.calls"] += 1
        table[f"{s[1]}.work"] += s[6]
        if s[4] is not None and names[s[4]] == "machine.build_machine":
            table["machine.assembly_bytes"] += s[6]
    for op_id, op_counts in counts.items():
        for name, amount in op_counts.items():
            totals[op_id.split(":")[0]][name] += amount
    return {w: {k: v / len(ops[w]) for k, v in t.items()} for w, t in totals.items()}


def root_attribution(spans, workload):
    """Share of the traced op wall time covered by the layer spans."""
    own = self_times(spans)
    roots = [s for s in spans if s[1] == f"op.{workload}"]
    wall = sum(s[3] - s[2] for s in roots)
    return 1.0 - sum(own[s[0]] for s in roots) / wall


def scaling_metrics(scaling):
    spans = scaling["spans"]
    metrics = {}
    for m in scaling["points"]:
        op = f"scaling:{m}"
        mine = [s for s in spans if s[5] == op]
        wall = {s[1]: s[3] - s[2] for s in mine if s[4] is None}
        rng = sum(s[3] - s[2] for s in mine if s[1] == "montecarlo.block_normals")
        metrics[f"scaling.M{m}.build_machine_s"] = wall["scaling.build"]
        metrics[f"scaling.M{m}.to_symplectic_s"] = wall["scaling.to_symplectic"]
        metrics[f"scaling.M{m}.simulate_rng_s"] = rng
        metrics[f"scaling.M{m}.simulate_rest_s"] = wall["scaling.simulate"] - rng
    metrics["scaling.peak_rss_mb"] = scaling["peak_rss_mb"]
    metrics["gaussian.apply_map.self_s"] = statistics.median(scaling["apply_map_s"])
    return metrics


def cli_probes(launcher):
    """Bare import and a small `pciclone verify`, as separate processes."""
    python = sys.executable
    imports = [launcher.run([python, "-c", "import pciclone"]) for _ in range(PROBE_REPEATS)]
    verify = [launcher.run([python, "-m", "pciclone", "verify", "1", "1", "2", "200000", "42"])
              for _ in range(PROBE_REPEATS)]
    failed = sum(code != 0 for _, code, _ in imports)
    failed += sum(code != 0 or not json.loads(out)["passed"] for _, code, out in verify)
    metrics = {
        "cli.import_s": statistics.median(w for w, _, _ in imports),
        "cli.verify_subprocess_s": statistics.median(w for w, _, _ in verify),
    }
    return metrics, len(imports) + len(verify), failed


def per_layer(args, launcher):
    """Traced run, K-scaling series and CLI probes; returns like end_to_end."""
    out = launcher.worker(args, "--mode", "trace", "--workload", args.workload,
                          "--seconds", str(args.seconds))
    scaling = launcher.worker(args, "--mode", "scaling")
    probe_metrics, probe_ops, probe_failed = cli_probes(launcher)

    tables = layer_tables(out["spans"], out["counts"])
    # A layer the program no longer calls reads 0 rather than breaking the run.
    metrics = {metric: tables[home].get(key or metric, 0.0) for metric, key, home in PER_OP}
    traced, untraced = out["traced_walls"], out["untraced_walls"]
    metrics["trace.overhead_s"] = (sum(traced) - sum(untraced)) / len(traced)
    metrics["trace.attributed_frac"] = root_attribution(out["spans"], args.workload)
    metrics.update(probe_metrics)
    metrics.update(scaling_metrics(scaling))

    trace_dir = HERE / "out"
    trace_dir.mkdir(exist_ok=True)
    trace_path = trace_dir / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "provenance": out["provenance"],
        "span_fields": ["id", "name", "start", "end", "parent", "op", "work"],
        "spans": out["spans"],
        "counts": out["counts"],
        "untraced_walls": untraced,
        "traced_walls": traced,
        "scaling": scaling,
        "per_op": tables,
        "metrics": metrics,
    }))
    print(f"trace written to {trace_path.relative_to(ROOT)}")
    for workload, table in sorted(tables.items()):
        ops = sum(1 for s in out["spans"] if s[1] == f"op.{workload}")
        print(f"self time per op on {workload} ({ops} traced ops):")
        for key, value in sorted(table.items(), key=lambda kv: -kv[1]):
            if key.endswith(".self_s") and not key.startswith("op."):
                print(f"  {key:48s} {value:.6f} s")
        print(f"  layer spans cover {root_attribution(out['spans'], workload):.4f} of op wall")
    print(f"tracing overhead on {args.workload}: {metrics['trace.overhead_s']:+.6f} s per op "
          f"({sum(traced):.3f} s traced vs {sum(untraced):.3f} s untraced, {len(traced)} ops)")
    report = {name: (value, unit_of(name), "computed" if name in COMPUTED else "")
              for name, value in metrics.items()}
    return out, report, report, out["attempted"] + probe_ops, out["failed"] + probe_failed


def main(argv=None):
    parser = argparse.ArgumentParser(description="pciclone benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="check ops against wrong expected values (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pciclone" / "__init__.py").is_file():
        print(f"no pciclone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    launcher = Launcher(time.monotonic() + RUN_BUDGET_S)
    try:
        measure = per_layer if args.trace else end_to_end
        out, emitted, report, attempted, failed = measure(args, launcher)
    except Failed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, closed loop, 1 client, "
          f"{'traced' if args.trace else 'untraced'}")
    for name, (value, unit, note) in report.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name} {shown} {unit}" + (f"  ({note})" if note else ""))
    print("provenance " + json.dumps(dict(out["provenance"], ops_attempted=attempted,
                                          ops_failed=failed)))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in emitted.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
