"""Benchmark of the fluxrec CLI: one workload per process, in-process dispatch.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload rates-sweep --seed 0 --seconds 25 --trace 0

The run imports ``fluxrec`` from ``src/``, writes its inputs under
``.perfbench_out/``, and drives ``fluxrec.cli.dispatch`` one op at a time
from this single process.  It first runs one untimed reference op with
fixed inputs (its accuracy figure is ``result_err``), then times ops with
seed-derived inputs for ``--seconds`` seconds, checking every op's
output files.  With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced
copies of each op, asserts they write identical bytes, and reports the
per-layer metrics from the spans.  The last line of stdout is the result
as one JSON object; the line before it carries the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import hostinfo
from tracer import Tracer, layer_medians
from workloads import REF_SEED, WORKLOADS, CheckFailed, Op, op_seed

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 10
MODULES = ("geometry", "fem", "spectral", "inversion", "vsc", "stability", "rates",
           "config", "manifest", "cli")
TAIL_BEYOND = 10


def fresh_import() -> SimpleNamespace:
    """Import fluxrec from scratch (its own modules only; numpy and scipy stay loaded)."""
    for name in [m for m in sys.modules if m == "fluxrec" or m.startswith("fluxrec.")]:
        del sys.modules[name]
    importlib.import_module("fluxrec.cli")
    return SimpleNamespace(**{m: sys.modules[f"fluxrec.{m}"] for m in MODULES})


def k_guard(fx, h: float, seed: int) -> float:
    """Relative gap between K @ q and the trace of a direct solve, for one seeded q."""
    mesh = fx.geometry.generate_annulus_mesh(0.5, 1.0, h)
    data = fx.fem.ProblemData.from_constants(mesh)
    op = fx.inversion.build_forward_operator(mesh, data)
    q = fx.fem.BoundaryVector(fx.geometry.GAMMA_I,
                              np.random.default_rng(seed).standard_normal(op.n_i))
    via_k = op.apply(q).values
    via_solve = fx.fem.trace(fx.fem.FactorizedSystem(mesh, data).solve_flux(q),
                             fx.geometry.GAMMA_A).values
    return float(np.linalg.norm(via_k - via_solve) / np.linalg.norm(via_solve))


def output_bytes(directory: Path) -> dict[str, bytes]:
    """Every file an op wrote, except manifests (they carry wall-clock runtime)."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*"))
            if p.is_file() and not p.name.endswith("manifest.json")}


class Runner:
    """Runs ops of one workload and keeps the failure and cache counts."""

    def __init__(self, workload, fx, tracer: Tracer | None):
        self.workload = workload
        self.fx = fx
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.extras: list[dict] = []
        self.traced_cache_deltas: list[tuple[int, int]] = []

    def run(self, op: Op, out: Path, trace_id: int | None = None):
        """One op: untimed input preparation, timed dispatches, untimed check.

        Returns (seconds, accuracy figure), or None when the op failed.
        """
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        argvs = self.workload.argvs(op, out)
        cache = self.fx.geometry.boundary_map
        before = cache.cache_info()
        self.attempted += 1
        try:
            if trace_id is not None:
                self.tracer.install(trace_id)
            try:
                with contextlib.redirect_stdout(sys.stderr):
                    t0 = time.perf_counter()
                    codes = [self.fx.cli.dispatch(argv) for argv in argvs]
                    seconds = time.perf_counter() - t0
            finally:
                if trace_id is not None:
                    self.tracer.uninstall()
            if trace_id is not None:
                after = cache.cache_info()
                self.traced_cache_deltas.append((after.hits - before.hits,
                                                 after.misses - before.misses))
            if any(codes):
                raise CheckFailed(f"exit codes {codes}")
            err, extra = self.workload.check(op, out)
        except Exception as exc:  # a failing op is counted, and the run goes on
            self.failed += 1
            self.failures.append(f"op seed {op.seed}: {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return None
        self.extras.append(extra)
        return seconds, err


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def per_layer_metrics(runner: Runner, traced_ops: list[int], traced: list[float],
                      untraced: list[float]) -> dict[str, float]:
    tracer = runner.tracer
    per_op = tracer.per_op()
    out = layer_medians(per_op, traced_ops, tracer.names)
    ratios = []
    for op in traced_ops:
        spans = per_op.get(op, {})
        searches = spans.get("inversion.choose_rho_discrepancy", (0.0, 0))[1]
        solves = spans.get("inversion.tikhonov_solve", (0.0, 0))[1]
        ratios.append(solves / searches if searches else 0.0)
    out["inversion.solves_per_search"] = statistics.median(ratios)
    deltas = runner.traced_cache_deltas
    hits, misses = sum(h for h, _ in deltas), sum(m for _, m in deltas)
    out["geometry.boundary_map.hits"] = statistics.median(h for h, _ in deltas)
    out["geometry.boundary_map.misses"] = statistics.median(m for _, m in deltas)
    out["geometry.boundary_map.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["rates.failed_rows"] = statistics.median(e.get("failed_rows", 0) for e in runner.extras)
    out["trace.op_s.p50"] = statistics.median(traced)
    out["trace.untraced_op_s.p50"] = statistics.median(untraced)
    out["trace.overhead_s"] = out["trace.op_s.p50"] - out["trace.untraced_op_s.p50"]
    out["trace.spans_per_op"] = statistics.median(
        sum(c for _, c in per_op.get(op, {}).values()) for op in traced_ops)
    return out


def set_up(args, inputs: Path):
    """Fresh import of fluxrec plus input generation; returns (seconds, modules, workload)."""
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    t0 = time.perf_counter()
    fx = fresh_import()
    workload = WORKLOADS[args.workload](fx, inputs, args.seed)
    return time.perf_counter() - t0, fx, workload


def measure(args, runner: Runner, work: Path, setup_times: list[float]) -> dict:
    """The timed loop: ops with seed-derived inputs until ``--seconds`` have passed.

    Extra set-ups, timed apart from the ops, are spread over the loop so
    that ``setup_s`` samples the same stretch of host speed as the ops.
    Their modules and inputs are discarded; the ops keep using the first.
    """
    untraced: list[float] = []
    traced: list[float] = []
    traced_ops: list[int] = []
    mismatches = 0
    start = time.perf_counter()
    deadline = start + args.seconds
    k = 0
    while time.perf_counter() < deadline:
        if time.perf_counter() >= start + len(setup_times) * args.seconds / SETUP_REPEATS:
            setup_times.append(set_up(args, work / "setup")[0])
        op = Op(op_seed(args.seed, k))
        if not args.trace:
            done = runner.run(op, work / "a")
            if done:
                untraced.append(done[0])
        else:
            # alternate which copy runs first, so host drift hits both alike
            for is_traced in ((False, True) if k % 2 == 0 else (True, False)):
                done = runner.run(op, work / ("b" if is_traced else "a"),
                                  trace_id=k if is_traced else None)
                if done and is_traced:
                    traced.append(done[0])
                    traced_ops.append(k)
                elif done:
                    untraced.append(done[0])
            if output_bytes(work / "a") != output_bytes(work / "b"):
                mismatches += 1
                runner.failed += 1
                runner.failures.append(f"op seed {op.seed}: traced and untraced outputs differ")
        k += 1
    return {"untraced": untraced, "traced": traced, "traced_ops": traced_ops,
            "mismatches": mismatches}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "fluxrec" / "__init__.py").is_file():
        print(f"perfbench: no fluxrec sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    end_to_end_units, per_layer_units = declared_metrics()

    # loaded before set-up timing, which measures fluxrec's own import
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    env = hostinfo.environment()
    probe_before = hostinfo.host_probe_ms()
    out_dir = ROOT / ".perfbench_out"
    work = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        seconds, fx, workload = set_up(args, work / "inputs")
        setup_times = [seconds]
        guard_err = k_guard(fx, workload.guard_h, args.seed)
        tracer = Tracer({m: getattr(fx, m) for m in MODULES}) if args.trace else None
        runner = Runner(workload, fx, tracer)
        reference = runner.run(Op(REF_SEED, reference=True), work / "a")
        timed = measure(args, runner, work, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    probe_after = hostinfo.host_probe_ms()

    untraced, traced = timed["untraced"], timed["traced"]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "host_probe_ms": {"before": probe_before, "after": probe_after},
        "ops_timed": len(untraced) + len(traced),
        "attempted": runner.attempted, "failed": runner.failed,
        "fail_frac": runner.failed / runner.attempted,
        "failures": runner.failures[:10],
        "k_guard_rel_err": guard_err,
        "setup_s_samples": setup_times,
        "op_s_samples": {"untraced": untraced, "traced": traced},
        "caches": cache_sizes(fx),
        "op_checks_median": {key: statistics.median(e[key] for e in runner.extras)
                             for key in (runner.extras[0] if runner.extras else {})},
    }
    if reference is None or not untraced or (args.trace and not traced):
        print("perfbench: the reference op or every timed op failed: "
              + json.dumps(info), file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer_metrics(runner, timed["traced_ops"], traced, untraced)
        info["byte_mismatches"] = timed["mismatches"]
        tracer.write(out_dir / f"spans-{args.workload}.tsv")
        units = per_layer_units
    else:
        tail_s, tail_pct = tail(untraced)
        metrics = {
            "op_s.p50": statistics.median(untraced),
            "op_s.tail": tail_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - runner.failed / runner.attempted,
            "result_err": reference[1],
        }
        info["op_s.tail_percentile"] = tail_pct
        units = end_to_end_units
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise KeyError(f"BENCHMARK.json declares metrics this run does not compute: {missing}")
    result = {
        "correct": guard_err <= 1e-10 and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    info["metrics"] = result["metrics"]
    (out_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"result": result, "info": info}, indent=1) + "\n", encoding="utf-8")

    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"{args.workload} tracing overhead = {metrics['trace.overhead_s']:.4g} s per op "
              f"({len(traced)} traced, {len(untraced)} untraced ops, "
              f"{timed['mismatches']} byte mismatches)")
    else:
        print(f"{args.workload} op_s.tail is p{info['op_s.tail_percentile']:.1f} "
              f"of {len(untraced)} timed ops; fail_frac = {info['fail_frac']:.4g}; "
              f"caches {json.dumps(info['caches'])}")
    print("perfbench-info " + json.dumps(info))
    print(json.dumps(result))
    return 0


def cache_sizes(fx) -> dict:
    """Every fluxrec cache and how much it holds at the end of the run (memory evidence).

    Covers each ``functools.lru_cache`` function and each module-level
    dict whose name ends in ``_CACHE``.
    """
    out = {}
    for mod_name in MODULES:
        for attr, value in vars(getattr(fx, mod_name)).items():
            if hasattr(value, "cache_info"):  # keyed by the defining module, once
                info = value.cache_info()
                name = f"{value.__module__.removeprefix('fluxrec.')}.{value.__name__}"
                out[name] = {"hits": info.hits, "misses": info.misses,
                             "currsize": info.currsize}
            elif attr.endswith("_CACHE") and isinstance(value, dict):
                out[f"{mod_name}.{attr}"] = {"currsize": len(value)}
    return out


if __name__ == "__main__":
    sys.exit(main())
