"""One benchmark process: import pciclone, make the inputs, run the ops.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src``
and BLAS threads capped; it prints one JSON line with its results when it
ends.  Set-up time runs from the parent's launch of this process to the
point where the inputs exist.  Modes:

    setup    import and make the inputs, then exit (times set-up only)
    run      untimed warm-up op, then timed ops in a closed loop
    trace    warm-up, each op of a fixed list untraced then traced, then
             traced ops of every other workload for 1/15 of the run
    scaling  K-scaling series of the network layers at N = N' = 4
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import pciclone
from pciclone import cli, montecarlo

from tracer import Tracer, instrumented

ROOT = Path(__file__).resolve().parent.parent

STRUCTURAL_TOL = 1e-10
# compare_to_analytic flags |z| > 5 over 5 z-scores per mode.  At
# K = 1030 modes and 4096 samples a correct machine crosses 5 in about
# 0.5% of ops (the sample-variance z has a heavy lower tail), so the
# per-op gate is 6.5, where that family-wise rate is below 1e-5.  Ops
# that cross 5 are still counted and reported as z5_flagged.
Z_GATE = 6.5
GAIN_RTOL = 1e-6
AUX_TOL = 1e-6
SCAN_RTOL = 1e-9


@dataclasses.dataclass(frozen=True)
class Verify:
    """One op is what `pciclone verify N N' M samples seed --psi psi` does."""

    name: str
    counts: tuple[int, int, int]
    samples: int
    nominal_op_s: float

    def inputs(self, seed, count):
        rng = random.Random(f"{self.name}/{seed}")
        parser = cli.build_parser()
        out = []
        for _ in range(count):
            psi = complex(round(rng.uniform(-2, 2), 6), round(rng.uniform(-2, 2), 6))
            argv = ["verify", *map(str, self.counts), str(self.samples),
                    str(rng.getrandbits(63)), f"--psi={psi!r}", f"--tol={STRUCTURAL_TOL}"]
            out.append(parser.parse_args(argv))
        return out

    def op(self, api, args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = api["cmd_verify"](args)
        return rc, buf.getvalue()

    def check(self, args, result, corrupt):
        _, text = result
        doc = json.loads(text)
        z = doc["comparison"]["max_abs_z"]
        ok = (
            doc["commutation_residual"] <= STRUCTURAL_TOL
            and doc["symplectic_residual"] <= STRUCTURAL_TOL
            and z <= Z_GATE
        )
        return ok, {"max_abs_z": z, "z5_flagged": not doc["comparison"]["passed"]}

    def trace_counts(self, result):
        return {}


@dataclasses.dataclass(frozen=True)
class DesignScan:
    """One op is one design point (N, N', M): closed-form report, the
    amplifier search for (sqrt N, sqrt N', sqrt M), and the asymmetry scan
    for n = N + N' inputs and M clones."""

    name: str
    max_inputs: int
    max_clones: int
    nominal_op_s: float

    def inputs(self, seed, count):
        # Every (N, N') pair once per cycle, in seeded order, so runs of
        # different seeds see the same mix of search problems.
        rng = random.Random(f"{self.name}/{seed}")
        pairs = [(n, nc) for n in range(1, self.max_inputs + 1)
                 for nc in range(1, self.max_inputs + 1)]
        out = []
        while len(out) < count:
            rng.shuffle(pairs)
            out += [(n, nc, rng.randint(n, self.max_clones)) for n, nc in pairs]
        return out[:count]

    def op(self, api, point):
        n, nc, m = point
        report = api["noise_report"](pciclone.CloningConfig(n, nc, m))
        solve = api["solve_amplifier"](math.sqrt(n), math.sqrt(nc), math.sqrt(m), seed=1)
        scan = api["minimize_asymmetry"](n + nc, m)
        return report, solve, scan

    def check(self, point, result, corrupt):
        n, nc, m = point
        _, solve, scan = result
        expect = pciclone.gain_from_counts(pciclone.CloningConfig(n, nc, m))
        if corrupt:
            expect *= 1.01
        total = n + nc
        a_closed = max((m - total) / (2 * m), 1 - m / total)
        scan_bound = pciclone.asymmetry_gain(total, m, a_closed) * (1 + SCAN_RTOL)
        rel = abs(solve.gain - expect) / expect
        ok = rel < GAIN_RTOL and solve.aux_norm < AUX_TOL and scan.gain <= scan_bound
        return ok, {"gain_rel_err": rel}

    def trace_counts(self, result):
        return {"optimize.solve_amplifier.iterations": result[1].iterations}


WORKLOADS = {
    "verify_deep": Verify("verify_deep", (2, 2, 6), 1 << 20, 1.0),
    "verify_wide": Verify("verify_wide", (4, 4, 512), 4096, 4.5),
    "design_scan": DesignScan("design_scan", 8, 64, 0.11),
}
# Same code paths at sizes a smoke test can afford.
TINY = {
    "verify_deep": Verify("verify_deep", (2, 2, 6), 1 << 12, 0.01),
    "verify_wide": Verify("verify_wide", (4, 4, 16), 512, 0.01),
    "design_scan": WORKLOADS["design_scan"],
}
POOL = {"verify_deep": 64, "verify_wide": 64, "design_scan": 1024}
# Share of --seconds a traced run spends on traced ops of each other
# workload: at 40 s, 24 design_scan ops, 3 verify_deep, 1 verify_wide.
OTHER_TRACE_SHARE = 1 / 15
SCALING_M = (8, 64, 256, 1024)
TINY_SCALING_M = SCALING_M[:-1]
# One sampling block of at most 2^22 doubles (32 MiB) per series point.
SCALING_BLOCK_DOUBLES = 1 << 22
APPLY_MAP_M = 256


def provenance(seed):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pciclone": pciclone.__version__,
        "stream_version": montecarlo.STREAM_VERSION,
        "block_size": montecarlo.BLOCK_SIZE,
        "seed": seed,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs and checks ops of one workload, counting attempts and failures."""

    def __init__(self, workload, inputs, corrupt):
        self.workload = workload
        self.inputs = inputs
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def run(self, api, index, tracer=None):
        """Run op ``index``; returns (wall seconds, result or None)."""
        inp = self.inputs[index % len(self.inputs)]
        self.attempted += 1
        op = self.workload.op
        start = time.perf_counter()
        try:
            if tracer is None:
                result = op(api, inp)
            else:
                op_id = f"{self.workload.name}:{index}"
                result = tracer.run_op(op_id, f"op.{self.workload.name}", op, api, inp)
                for name, amount in self.workload.trace_counts(result).items():
                    tracer.add(op_id, name, amount)
            wall = time.perf_counter() - start
            ok, note = self.workload.check(inp, result, self.corrupt)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.notes.append({"error": True})
            return time.perf_counter() - start, None
        if not ok:
            self.failed += 1
            print(f"{self.workload.name} op {index} failed its check: {note}", file=sys.stderr)
        self.notes.append(note)
        return wall, result


def plain_api(package):
    return {
        "cmd_verify": package.cli.cmd_verify,
        "noise_report": package.machine.noise_report,
        "solve_amplifier": package.optimize.solve_amplifier,
        "minimize_asymmetry": package.optimize.minimize_asymmetry,
    }


def run_timed(runner, seconds):
    api = plain_api(pciclone)
    runner.run(api, 0)  # warm-up, untimed
    latencies = []
    start = time.perf_counter()
    index = 1
    while True:
        wall, _ = runner.run(api, index)
        latencies.append(wall)
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"latencies": latencies, "wall_s": time.perf_counter() - start}


def run_traced(runner, seconds, others):
    """Each op of a fixed list untraced, then at once traced, so machine
    drift cancels in the overhead; then traced ops of each other workload
    for OTHER_TRACE_SHARE of ``seconds`` (at least one op each)."""
    api = plain_api(pciclone)
    runner.run(api, 0)
    # A quarter of the run untraced and a quarter traced, so a traced run
    # stays affordable next to its K-scaling series.
    count = max(1, round(seconds / 4 / runner.workload.nominal_op_s))
    tracer = Tracer()
    untraced, traced = [], []
    for index in range(1, count + 1):
        untraced.append(runner.run(api, index)[0])
        with instrumented(tracer, pciclone) as traced_api:
            traced.append(runner.run(traced_api, index, tracer)[0])
    for other in others:
        other.run(api, 0)
        with instrumented(tracer, pciclone) as traced_api:
            other_count = round(seconds * OTHER_TRACE_SHARE / other.workload.nominal_op_s)
            for index in range(1, max(1, other_count) + 1):
                other.run(traced_api, index, tracer)
    return {
        "untraced_walls": untraced,
        "traced_walls": traced,
        "spans": tracer.spans,
        "counts": tracer.counts,
    }


def run_scaling(tiny):
    """build_machine, to_symplectic and simulate (RNG vs the rest) at
    N = N' = 4 over the M series, plus apply_map at M = APPLY_MAP_M."""
    series = TINY_SCALING_M if tiny else SCALING_M
    tracer = Tracer()
    points = {}
    apply_s = []
    with instrumented(tracer, pciclone) as api:
        for m in series:
            config = pciclone.CloningConfig(4, 4, m)
            op_id = f"scaling:{m}"
            transform, layout = tracer.run_op(op_id, "scaling.build", api["build_machine"], config)
            smap = tracer.run_op(op_id, "scaling.to_symplectic", api["to_symplectic"], transform)
            k = layout.total_modes
            samples = max(2, SCALING_BLOCK_DOUBLES // (2 * k))
            sample_config = montecarlo.SampleConfig(samples, seed=1, psi=1 + 0.5j)
            emp = tracer.run_op(op_id, "scaling.simulate", api["simulate"], transform, layout, sample_config)
            if not np.all(np.isfinite(emp.means)):
                raise RuntimeError(f"non-finite sampled means at M={m}")
            if m == APPLY_MAP_M:
                state = layout.input_state(1 + 0.5j)
                for _ in range(3):
                    start = time.perf_counter()
                    api["apply_map"](state, smap)
                    apply_s.append(time.perf_counter() - start)
            points[m] = {"modes": k, "samples": samples}
            del transform, layout, smap, emp
    return {
        "points": points,
        "apply_map_m": APPLY_MAP_M,
        "apply_map_s": apply_s,
        "spans": tracer.spans,
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "trace", "scaling"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--launched-at", type=float, default=time.monotonic(),
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt-expected", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if Path(pciclone.__file__).resolve().parent.parent != src:
        print(f"pciclone imported from {pciclone.__file__}, not {src}", file=sys.stderr)
        return 2

    if args.mode == "scaling":
        print(json.dumps(run_scaling(args.tiny)))
        return 0

    table = TINY if args.tiny else WORKLOADS
    if args.corrupt_expected:
        original = cli.noise_report
        cli.noise_report = lambda config: dataclasses.replace(
            original(config), var_clone=original(config).var_clone + 1.0
        )

    def runner_for(name):
        workload = table[name]
        return Runner(workload, workload.inputs(args.seed, POOL[name]), args.corrupt_expected)

    runner = runner_for(args.workload)
    others = [runner_for(n) for n in sorted(table) if n != args.workload] if args.mode == "trace" else []
    setup_s = time.monotonic() - args.launched_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.mode == "run":
        out = run_timed(runner, args.seconds)
    else:
        out = run_traced(runner, args.seconds, others)
    runners = [runner, *others]
    out.update(
        workload=args.workload,
        setup_s=setup_s,
        attempted=sum(r.attempted for r in runners),
        failed=sum(r.failed for r in runners),
        notes=runner.notes,
        peak_rss_mb=peak_rss_mb(),
        provenance=provenance(args.seed),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
