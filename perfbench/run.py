#!/usr/bin/env python3
"""Benchmark for specpoly.  One workload per invocation:

    python3 perfbench/run.py --workload eigen-deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Workloads, metrics and reference figures are described in README.md.

This process compiles specpoly's bytecode, then runs the workload in a
worker process (``--worker``) with a clean environment, one caller and no
threads.  Set-up is also run in six more workers that stop after set-up,
and ``setup_s`` is the median of the seven.

Every time the benchmark reports is scaled to a fixed host speed: a fixed
piece of pure-Python work (``calibration_s``) is timed between timed calls,
on the same CPU, and each call's wall time is multiplied by ``CALIB_REF_S``
over the median of the two probes before it and the two after it.  The host's speed
drifts by up to 2x within seconds; the scaled times track the program, not
the host.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "specpoly"
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("eigen-deep", "gram-exact", "gram-quadrature", "cli")
SETUP_RUNS = 7
PROBE_RUNS = 5
TRACE_PAIRS = 3
WORKER_TIMEOUT_S = 170
# Median calibration_s() on the reference machine (README), so that scaled
# times read as wall times there at its usual speed.
CALIB_REF_S = 0.0032

END_TO_END = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "operator.matrix_calls": "count",
    "operator.matrix_entries": "count",
    "operator.matrix_s": "s",
    "operator.self_s": "s",
    "eigen.degrees": "count",
    "eigen.collision_degrees": "count",
    "eigen.self_s": "s",
    "ratpoly.mul_calls": "count",
    "ratpoly.mul_s": "s",
    "ratpoly.integral_s": "s",
    "ratpoly.eval_float_calls": "count",
    "ratpoly.eval_float_s": "s",
    "ratpoly.self_s": "s",
    "orthogonality.exact_attempts": "count",
    "orthogonality.exact_hits": "count",
    "orthogonality.exact_hit_ratio": "ratio",
    "orthogonality.exact_s": "s",
    "orthogonality.self_s": "s",
    "quadrature.calls": "count",
    "quadrature.levels": "count",
    "quadrature.evals": "count",
    "quadrature.integrand_s": "s",
    "quadrature.self_s": "s",
    "weights.log_eval_calls": "count",
    "weights.log_eval_s": "s",
    "weights.derive_s": "s",
    "weights.integrability_calls": "count",
    "weights.self_s": "s",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def child_env() -> dict:
    """The workers' environment: nothing inherited that changes how Python
    imports, and no bytecode written (it was compiled beforehand)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    return env


def calibration_s() -> float:
    """Wall time of a fixed piece of pure-Python work with the program's
    mix of big-integer Fraction and float arithmetic: the host-speed probe."""
    t = time.perf_counter()
    s, x = Fraction(0), 0.0
    for i in range(1, 600):
        s += Fraction(1, i)
        x += math.exp(-i * 1e-3) * math.log(i)
    return time.perf_counter() - t


def scaled(wall_s: float, probes: list) -> float:
    """A wall time brought to the reference host speed, judged by the median
    of the probes around it: a single probe that an interrupt slowed or a
    burst sped up would put the call in the tail."""
    return wall_s * CALIB_REF_S / statistics.median(probes)


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


# ---------------------------------------------------------------------------
# worker


class Worker:
    def __init__(self, args):
        self.args = args
        self.env = child_env()
        probes = [calibration_s() for _ in range(3)]
        t0 = time.perf_counter()
        import specpoly
        if args.workload == "cli":
            import specpoly.cli  # noqa: F401  (in-process main in the traced run)
        t1 = time.perf_counter()
        import workloads  # the benchmark's own code; not part of set-up

        t2 = time.perf_counter()
        self.sp = specpoly
        self.wl = workloads.WORKLOADS[args.workload](ROOT, OUT_DIR, sys.executable)
        self.cases = self.wl.cases(args.seed)
        self.wl.prepare(self.cases, specpoly, self.env)
        self.wl.call(self.cases[0], specpoly)  # warm-up, untimed
        self.setup_wall = (t1 - t0) + (time.perf_counter() - t2)
        probes += [calibration_s() for _ in range(3)]
        self.setup_s = scaled(self.setup_wall, probes)
        self.workloads = workloads
        self.failed = 0
        self.wrong = 0
        self.attempted = 0
        self.rounds = 0
        self.mismatches = [0] * len(self.cases)

    def one_round(self, tracer=None) -> tuple[list, list, list]:
        """Call every case once; returns (outputs, wall latencies, latencies
        scaled to the reference host speed)."""
        outs, lats = [], []
        clock = time.perf_counter
        probes = [calibration_s()]  # probes[j] runs before call j, probes[j + 1] after it
        for case in self.cases:
            t = clock()
            try:
                if tracer is None:
                    out = self.wl.call(case, self.sp)
                else:
                    with tracer.root(f"bench.{self.args.workload}"):
                        out = self.wl.call(case, self.sp)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            lats.append(clock() - t)
            probes.append(calibration_s())
            outs.append(out)
        scaled_lats = [scaled(lat, probes[max(0, j - 1):j + 3]) for j, lat in enumerate(lats)]
        self.attempted += len(outs)
        self.rounds += 1
        return outs, lats, scaled_lats

    def compare_round(self, outs: list, reference: list) -> None:
        """A repeated call must give the output the checked call gave."""
        for i, (case, out, ref) in enumerate(zip(self.cases, outs, reference)):
            if isinstance(out, Exception) or out != ref:
                self.mismatches[i] += 1
                self.wrong += not isinstance(out, Exception)
                print(f"differs from the first round: {case.label}", file=sys.stderr)

    def settle(self, first: list) -> None:
        """Check each first-round output against the benchmark's own values,
        then count failed calls: every call of a case whose checked output
        raised or is wrong, else each call that differed from it."""
        for case, out, mismatched in zip(self.cases, first, self.mismatches):
            if isinstance(out, Exception):
                print(f"failed: {case.label}: {type(out).__name__}: {out}", file=sys.stderr)
                err = "raised"
            else:
                err = self.wl.check(case, self.wl.payload(case, out))
                if err:
                    self.wrong += 1
                    print(f"wrong: {case.label}: {err}", file=sys.stderr)
            self.failed += self.rounds if err else mismatched

    def result(self, metrics: dict) -> dict:
        return {"correct": self.wrong == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}

    def run_timed(self) -> dict:
        calls = self.workloads.call_count(self.wl, len(self.cases), self.args.seconds)
        lats: list = []
        walls: list = []
        first = None
        for _ in range(calls // len(self.cases)):
            outs, round_walls, round_lats = self.one_round()
            lats += round_lats
            walls += round_walls
            if first is None:
                first = outs
            else:
                self.compare_round(outs, first)
        if self.args.workload == "cli":
            peak_rss_mb = self.wl.peak_rss_mb(self.cases)
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.settle(first)
        values = {
            "setup_s": self.setup_s,
            "calls_per_s": len(lats) / sum(lats),
            "latency_p50_ms": statistics.median(lats) * 1000.0,
            "latency_p90_ms": p90(lats) * 1000.0,
            "peak_rss_mb": peak_rss_mb,
        }
        # unscaled figures, for reference only
        print(json.dumps({"wall_clock": {
            "calls_per_s": len(walls) / sum(walls),
            "latency_p50_ms": statistics.median(walls) * 1000.0,
            "latency_p90_ms": p90(walls) * 1000.0,
            "setup_s": self.setup_wall}}))
        return self.result(metric_block(values, END_TO_END))

    def run_traced(self) -> dict:
        """One checked round, then TRACE_PAIRS pairs of an untraced and a
        traced round.  Per-layer metrics come from the first traced round
        (one batch); the overhead is the median traced/untraced ratio."""
        import spans

        base, _, _ = self.one_round()
        values = {name: 0 for name in PER_LAYER}
        if self.args.workload == "cli":
            values.update(self.cli_probes())
            values["cli.stdout_bytes"] = sum(len(out[1]) for out in base)
            self.wl.in_process = True
        first, ratios, plain_lats = None, [], []
        for _ in range(TRACE_PAIRS):
            outs, _, lats = self.one_round()
            self.compare_round(outs, base)
            plain_lats += lats
            tracer = spans.Tracer()
            restore = spans.install(tracer)
            try:
                outs, _, traced_lats = self.one_round(tracer)
            finally:
                restore()
            self.compare_round(outs, base)
            ratios.append(sum(traced_lats) / sum(lats))
            first = first or tracer
        self.settle(base)
        if self.args.workload == "cli":
            values["cli.main_ms"] = statistics.median(plain_lats) * 1000.0
        summary = first.summary()
        values.update(layer_metrics(summary))
        values["trace.overhead_pct"] = (statistics.median(ratios) - 1.0) * 100.0
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        first.write(OUT_DIR / f"trace-{self.args.workload}-seed{self.args.seed}.json.gz")
        total = sum(summary["layer_self_s"].values())
        shares = sorted(summary["layer_self_s"].items(), key=lambda kv: -kv[1])
        print("self-time share by layer: " + ", ".join(
            f"{layer} {100.0 * s / total:.1f}%" for layer, s in shares))
        return self.result(metric_block(values, PER_LAYER))

    def cli_probes(self) -> dict:
        """Bare interpreter start and `import specpoly.cli`, each in fresh
        processes, medians of PROBE_RUNS."""
        starts, imports = [], []
        code = ("import time; t = time.perf_counter(); import specpoly.cli; "
                "print(time.perf_counter() - t)")
        for _ in range(PROBE_RUNS):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=ROOT, check=True)
            starts.append(time.perf_counter() - t)
            out = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT,
                                 check=True, capture_output=True, text=True)
            imports.append(float(out.stdout))
        return {"cli.interpreter_ms": statistics.median(starts) * 1000.0,
                "cli.import_ms": statistics.median(imports) * 1000.0}


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def layer_metrics(summary: dict) -> dict:
    by_name, layer = summary["by_name"], summary["layer_self_s"]

    def g(name: str, key: str):
        return by_name.get(name, {}).get(key, 0)

    attempts = g("orthogonality.inner_product_exact", "calls")
    hits = attempts - g("orthogonality.inner_product_exact", "raised")
    return {
        "operator.matrix_calls": g("operator.DiffOperator.matrix", "calls"),
        "operator.matrix_entries": g("operator.DiffOperator.matrix", "aux1"),
        "operator.matrix_s": g("operator.DiffOperator.matrix", "s"),
        "operator.self_s": layer.get("operator", 0.0),
        "eigen.degrees": g("eigen.monic_eigenfunction", "calls"),
        "eigen.collision_degrees": g("eigen.rref_kernel", "calls"),
        "eigen.self_s": layer.get("eigen", 0.0),
        "ratpoly.mul_calls": g("ratpoly.Poly.__mul__", "calls"),
        "ratpoly.mul_s": g("ratpoly.Poly.__mul__", "s"),
        "ratpoly.integral_s": g("ratpoly.Poly.definite_integral", "s"),
        "ratpoly.eval_float_calls": g("ratpoly.Poly.eval_float", "calls"),
        "ratpoly.eval_float_s": g("ratpoly.Poly.eval_float", "s"),
        "ratpoly.self_s": layer.get("ratpoly", 0.0),
        "orthogonality.exact_attempts": attempts,
        "orthogonality.exact_hits": hits,
        "orthogonality.exact_hit_ratio": hits / attempts if attempts else 0.0,
        "orthogonality.exact_s": g("orthogonality.inner_product_exact", "s"),
        "orthogonality.self_s": layer.get("orthogonality", 0.0),
        "quadrature.calls": g("quadrature.tanh_sinh", "calls"),
        "quadrature.levels": g("quadrature.tanh_sinh", "aux1"),
        "quadrature.evals": g("quadrature.tanh_sinh", "aux2"),
        "quadrature.integrand_s": g("quadrature.integrand", "s"),
        "quadrature.self_s": layer.get("quadrature", 0.0),
        "weights.log_eval_calls": g("weights.WeightExpr.log_eval", "calls"),
        "weights.log_eval_s": g("weights.WeightExpr.log_eval", "s"),
        "weights.derive_s": g("weights.derive_weight", "s"),
        "weights.integrability_calls": g("weights.integrability", "calls"),
        "weights.self_s": layer.get("weights", 0.0),
        "trace.spans": summary["spans"],
    }


REFERENCE = (
    # (label, repeats, call) -- the baselines quoted in ROADMAP.md
    ("eigentable(legendre, 80)", 3,
     lambda sp: sp.eigentable(sp.build_operator(sp.classical_presets()["legendre"]), 80)),
    ("gram_matrix(legendre, 20)", 5, lambda sp: sp.gram_matrix(sp.classical_presets()["legendre"], 20)),
    ("gram_matrix(chebyshev1, 14)", 5,
     lambda sp: sp.gram_matrix(sp.classical_presets()["chebyshev1"], 14)),
    ("specpoly spectrum --preset chaudhry-qadir --n-max 4 --format table", 10,
     lambda sp: subprocess.run([sys.executable, "-m", "specpoly", "spectrum", "--preset",
                                "chaudhry-qadir", "--n-max", "4", "--format", "table"],
                               env=child_env(), cwd=ROOT, check=True, capture_output=True)),
)


def reference_main() -> int:
    """Median wall time of each reference call, timed like the workloads."""
    import specpoly

    for label, repeats, call in REFERENCE:
        times = []
        for _ in range(repeats):
            t = time.perf_counter()
            call(specpoly)
            times.append(time.perf_counter() - t)
        print(json.dumps({"call": label, "repeats": repeats, "median_s": statistics.median(times),
                          "min_s": min(times), "max_s": max(times)}))
    return 0


def pin_to_one_cpu() -> None:
    """Keep the worker, its calibration and its `cli` children on one CPU:
    the host's CPUs differ in speed from moment to moment (by up to 1.4x
    between the two of the reference machine), so the calibration only
    speaks for work done on the CPU it ran on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def worker_main(args) -> int:
    pin_to_one_cpu()
    if args.reference:
        return reference_main()
    worker = Worker(args)
    if args.setup_only:
        print(json.dumps({"setup_s": worker.setup_s}))
        return 0
    result = worker.run_traced() if args.trace else worker.run_timed()
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# parent


def run_worker(args, setup_only: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.workload:
        cmd += ["--workload", args.workload]
    if setup_only:
        cmd.append("--setup-only")
    if args.reference:
        cmd.append("--reference")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def compile_package() -> None:
    """Fix the bytecode state: every run compiles specpoly afresh, so each
    timed import loads bytecode, whatever the inherited settings.  The
    benchmark's own modules are compiled too: the worker's peak RSS is
    1.7 MB higher when it compiles them from source than when it loads
    their bytecode."""
    if not (PACKAGE / "__init__.py").is_file():
        raise RuntimeError(f"no specpoly sources under {PACKAGE.parent}")
    if not compileall.compile_dir(str(PACKAGE), force=True, quiet=1):
        raise RuntimeError("specpoly does not compile")
    bench_dir = Path(__file__).resolve().parent
    if not compileall.compile_dir(str(bench_dir), maxlevels=0, force=True, quiet=1):
        raise RuntimeError("the benchmark does not compile")


def parent_main(args) -> int:
    compile_package()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    result = run_worker(args, setup_only=False)
    if not args.trace:
        setups = [run_worker(args, setup_only=True)["setup_s"] for _ in range(SETUP_RUNS - 1)]
        setups.append(result["metrics"]["setup_s"]["value"])
        print(json.dumps({"setup_s_runs": setups}))
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def self_test() -> int:
    """Each checker passes real outputs and rejects every perturbed one."""
    compile_package()
    sys.path.insert(0, str(ROOT / "src"))
    import specpoly
    import specpoly.cli  # noqa: F401
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"] for w in bench["workloads"]} != set(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for key, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if {m["name"]: m["unit"] for m in bench[key]} != units:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name in WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name](ROOT, OUT_DIR, sys.executable)
        cases = workloads.self_test_cases(wl.cases(0))
        wl.prepare(cases, specpoly, child_env())
        for case in cases:
            out = wl.call(case, specpoly)
            payload = wl.payload(case, out)
            err = wl.check(case, payload)
            verdict = "ok" if err is None else f"REJECTED ({err})"
            print(f"{name}: {case.label}: real output {verdict}")
            if err:
                problems.append(f"{name}: {case.label}: {err}")
            for label, wrong in wl.perturbations(case, payload):
                caught = wl.check(case, wrong)
                print(f"{name}: {case.label}: {label}: "
                      f"{'caught (' + caught + ')' if caught else 'NOT CAUGHT'}")
                if not caught:
                    problems.append(f"{name}: {case.label}: {label} not caught")
    for p in problems:
        print(f"self-test problem: {p}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--reference", action="store_true",
                        help="time the ROADMAP baseline calls instead of a workload")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not (args.reference or args.self_test):
        parser.error("--workload is required")
    if args.worker:
        return worker_main(args)
    try:
        if args.self_test:
            return self_test()
        if args.reference:
            compile_package()
            print(json.dumps(run_worker(args, setup_only=False)))
            return 0
        return parent_main(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
