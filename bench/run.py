"""Benchmark of lqrpg: one workload per process, timed passes, checked outputs.

    python3 bench/run.py --workload fig1_noisy_pgd --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --repeat 10

With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it traces set-up and the passes at each layer boundary
and reports the per-layer metrics. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The run
record, with machine details and the quartiles of every metric, is written
to ``.bench_out/<workload>/record.json``. See bench/README.md.
"""
import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from contextlib import nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 175
# Throughput that acceptance criterion 12 assumes for its time projection.
CRITERION_12_STEPS_PER_S = 2.5e6

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYERS = ("exact", "plants", "sim", "estimators", "optimizers", "bounds",
          "harness", "bench")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def tail(values):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, or None with fewer than eleven samples."""
    if len(values) < 11:
        return None
    k = len(values) - 11
    return sorted(values)[k], 100.0 * (k + 1) / len(values)


def summary(values, unit):
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def machine_info():
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        describe = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        describe = "unknown"
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_describe": describe,
    }


def setup_probes(args):
    """Median set-up time over fresh processes, each timed from its start."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class Measurement:
    """Timed passes of one workload, each checked against the reference."""

    def __init__(self, wl, reference, warn_log):
        self.wl = wl
        self.reference = reference
        self.warn_log = warn_log
        self.passes = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, seconds, tracer=None):
        """Run passes until the next one would end after ``seconds``; at
        least one. Returns the passes of this phase."""
        phase = []
        deadline = time.perf_counter() + seconds
        while True:
            warns0 = len(self.warn_log)
            stats0 = tracer.totals() if tracer else None
            if tracer:
                tracer.install()
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.pass") if tracer else nullcontext():
                    result = self.wl.run_pass()
            except Exception:  # a pass that raises fails all its operations
                self.attempted += self.wl.ops_per_pass
                self.failed += self.wl.ops_per_pass
                self.problems.append(traceback.format_exc())
                return phase
            finally:
                dt = time.perf_counter() - t0
                if tracer:
                    tracer.uninstall()
            chk = self.wl.check(result, self.reference)
            self.attempted += len(chk.ops)
            self.failed += len(chk.failed)
            self.problems.extend(chk.problems)
            p = {"wall_s": dt, "work": self.wl.work(result),
                 "warnings": sum(issubclass(w.category, RuntimeWarning)
                                 for w in self.warn_log[warns0:]),
                 "latencies_s": self.wl.latencies(result),
                 "bytes_written": dir_bytes(self.wl.out_dir) if self.wl.out_dir else 0}
            if tracer:
                p["trace"] = diff_totals(tracer.totals(), stats0)
            phase.append(p)
            self.passes.append(p)
            if time.perf_counter() + dt > deadline:
                return phase


def diff_totals(after, before):
    stats_a, counters_a = after
    stats_b, counters_b = before
    stats = {}
    for name, vals in stats_a.items():
        base = stats_b.get(name, [0, 0.0, 0.0])
        if vals[0] != base[0]:
            stats[name] = [a - b for a, b in zip(vals, base)]
    counters = {k: v - counters_b.get(k, 0) for k, v in counters_a.items()}
    return stats, counters


def end_to_end(m, setup_times):
    """End-to-end metrics (the first three are the ones BENCHMARK.json
    declares) plus the per-workload ones, each with quartiles."""
    walls = [p["wall_s"] for p in m.passes]
    out = {
        "wall_s": summary(walls, "s"),
        "setup_s": summary(setup_times, "s"),
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "fail_frac": {"value": m.failed / max(m.attempted, 1), "unit": "fraction",
                      "failed": m.failed, "attempted": m.attempted},
    }
    work = m.passes[0]["work"] if m.passes else {}
    if "iterations" in work:
        out["iters_per_s"] = summary([p["work"]["iterations"] / p["wall_s"]
                                      for p in m.passes], "1/s")
    if work.get("sim_steps"):
        out["sim_steps_per_s"] = summary([p["work"]["sim_steps"] / p["wall_s"]
                                          for p in m.passes], "1/s")
        out["sim_steps_per_s"]["criterion_12_assumes"] = CRITERION_12_STEPS_PER_S
    lat_ms = [1e3 * x for p in m.passes for x in p["latencies_s"]]
    if lat_ms:
        out["estimate_ms_p50"] = summary(lat_ms, "ms")
        t = tail(lat_ms)
        out["estimate_ms_tail"] = (
            {"value": t[0], "unit": "ms", "percentile": t[1], "n": len(lat_ms)}
            if t else {"value": None, "unit": "ms", "percentile": None, "n": len(lat_ms)})
    if m.passes:
        out["numpy.runtime_warnings"] = {"value": statistics.mean(
            p["warnings"] for p in m.passes), "unit": "count"}
    return out


def per_layer(setup, traced, untraced):
    """Per-layer metrics: set-up plus the mean of one traced pass."""
    n = len(traced)
    stats = {k: list(v) for k, v in setup[0].items()}
    counters = dict(setup[1])
    for p in traced:
        s, c = p["trace"]
        for name, vals in s.items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += vals[i] / n
        for k, v in c.items():
            counters[k] = counters.get(k, 0) + v / n

    def st(name, i):
        return stats.get(name, [0, 0.0, 0.0])[i]

    def layer(prefix, i):
        return sum(v[i] for k, v in stats.items() if k.startswith(prefix + "."))

    def per_call_us(name):
        return 1e6 * st(name, 1) / st(name, 0) if st(name, 0) else 0.0

    steps = counters.get("sim.simulate_batch.steps", 0)
    attempted = counters.get("estimators.attempted", 0)
    out = {
        "exact.solve_dare.calls": (st("exact.solve_dare", 0), "count"),
        "exact.solve_dare.s": (st("exact.solve_dare", 1), "s"),
        "exact.exact_quantities.calls": (st("exact.exact_quantities", 0), "count"),
        "exact.exact_quantities.us_per_call": (per_call_us("exact.exact_quantities"), "us"),
        "exact.solve_discrete_lyapunov.calls": (st("exact.solve_discrete_lyapunov", 0), "count"),
        "exact.solve_discrete_lyapunov.us_per_call":
            (per_call_us("exact.solve_discrete_lyapunov"), "us"),
        "plants.closed_loop.calls": (st("plants.closed_loop", 0), "count"),
        "plants.closed_loop.s": (st("plants.closed_loop", 1), "s"),
        "sim.streams.calls": (st("sim.streams", 0), "count"),
        "sim.streams.s": (st("sim.streams", 1), "s"),
        "sim.initial_state.calls": (st("sim.initial_state", 0), "count"),
        "sim.initial_state.s": (st("sim.initial_state", 1), "s"),
        "sim.perturbation.calls": (st("sim.perturbation", 0), "count"),
        "sim.perturbation.s": (st("sim.perturbation", 1), "s"),
        "sim.rollout_batch.calls": (st("sim.rollout_batch", 0), "count"),
        "sim.rollout_batch.self_s": (st("sim.rollout_batch", 2), "s"),
        "sim.simulate_batch.calls": (st("sim.simulate_batch", 0), "count"),
        "sim.simulate_batch.steps": (steps, "count"),
        "sim.simulate_batch.s": (st("sim.simulate_batch", 1), "s"),
        "sim.simulate_batch.steps_per_s":
            (steps / st("sim.simulate_batch", 1) if st("sim.simulate_batch", 1) else 0.0, "1/s"),
        "sim.stage_cost.calls": (st("sim.stage_cost", 0), "count"),
        "sim.stage_cost.s": (st("sim.stage_cost", 1), "s"),
        "sim.rollouts": (counters.get("sim.rollouts", 0), "count"),
        "sim.overflowed_rollouts": (counters.get("sim.overflowed_rollouts", 0), "count"),
        "estimators.gradient.calls": (st("estimators.gradient", 0), "count"),
        "estimators.gradient.s": (st("estimators.gradient", 1), "s"),
        "estimators.vr.calls": (st("estimators.vr", 0), "count"),
        "estimators.vr.s": (st("estimators.vr", 1), "s"),
        "estimators.failed_ratio":
            (counters.get("estimators.failed", 0) / attempted if attempted else 0.0, "fraction"),
        "optimizers.iterations": (counters.get("optimizers.iterations", 0), "count"),
        "optimizers.diverged": (counters.get("optimizers.diverged", 0), "count"),
        "optimizers.estimate_failed": (counters.get("optimizers.estimate_failed", 0), "count"),
        "optimizers.self_s": (layer("optimizers", 2), "s"),
        "bounds.calls": (layer("bounds", 0), "count"),
        "bounds.s": (layer("bounds", 2), "s"),
        "harness.figure_preset.s": (st("harness.figure_preset", 1), "s"),
        "harness.self_s": (layer("harness", 2), "s"),
        "harness.bytes_written": (statistics.mean(p["bytes_written"] for p in traced), "B"),
        "numpy.runtime_warnings": (setup[2] + statistics.mean(p["warnings"] for p in traced),
                                   "count"),
    }
    # Layer split of the traced passes, by self time.
    pass_self = {}
    for p in traced:
        for name, vals in p["trace"][0].items():
            key = name.split(".")[0]
            pass_self[key] = pass_self.get(key, 0.0) + vals[2]
    total = sum(pass_self.values()) or 1.0
    for key in LAYERS:
        out[f"layer.{key}.share"] = (pass_self.get(key, 0.0) / total, "fraction")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    out["trace.traced_wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def setup_only(args):
    wl = workloads.WORKLOADS[args.workload](args.seed, os.path.join(OUT, args.workload))
    print(json.dumps({"setup_s": time.perf_counter() - T0, "workload": wl.name}))
    return 0


def run_one(args):
    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    setup_times = setup_probes(args)
    reference = workloads.load_reference(args.workload, args.seed)
    info = machine_info()

    with warnings.catch_warnings(record=True) as warn_log:
        warnings.simplefilter("always")
        tracer = None
        t_setup = time.perf_counter()
        if args.trace:
            import lqrpg  # noqa: F401  (the tracer wraps its modules)
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            wl = workloads.WORKLOADS[args.workload](args.seed, os.path.join(out_dir, "mc"))
        finally:
            if tracer:
                tracer.uninstall()
        setup_in_process = time.perf_counter() - t_setup
        setup_warnings = sum(issubclass(w.category, RuntimeWarning) for w in warn_log)
        m = Measurement(wl, reference, warn_log)
        if tracer:
            setup_totals = tracer.totals()
            untraced = m.run(args.seconds / 2)
            traced = m.run(args.seconds / 2, tracer) if untraced else []
        else:
            m.run(args.seconds)

    e2e = end_to_end(m, setup_times) if m.passes else {}
    record = {
        "workload": args.workload, "seed": args.seed,
        "master_seed": workloads.master_seed(args.seed),
        "seconds": args.seconds, "trace": args.trace, "machine": info,
        "passes": len(m.passes), "pass_wall_s": [p["wall_s"] for p in m.passes],
        "setup_probe_s": setup_times, "setup_in_process_s": setup_in_process,
        "work_per_pass": m.passes[0]["work"] if m.passes else {},
        "attempted": m.attempted, "failed": m.failed, "problems": m.problems,
        "end_to_end": e2e,
    }
    metrics = ({k: {"value": e2e[k]["value"], "unit": u} for k, u in END_TO_END_UNITS.items()}
               if e2e else {})
    if tracer:
        if traced:
            layers = per_layer((*setup_totals, setup_warnings), traced, untraced)
            record["per_layer"] = layers
            metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in layers.items()}
            tracer.write(os.path.join(out_dir, "spans.json"))
        else:
            metrics = {}
    with open(os.path.join(out_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print_row(args.workload, args.seed, len(m.passes), e2e)
    if tracer and traced:
        for name, v in record["per_layer"].items():
            print(f"  {name:44s} {v['value']:.6g} {v['unit']}")
    for problem in m.problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    correct = m.failed == 0 and m.attempted > 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0 if correct else 1


def print_row(workload, seed, passes, e2e):
    cells = []
    for name, v in e2e.items():
        if v["value"] is None:
            cells.append(f"{name} n/a")
            continue
        cell = f"{name} {v['value']:.6g} {v['unit']}"
        if "percentile" in v:
            cell += f" (p{v['percentile']:.0f} of {v['n']})"
        if "attempted" in v:
            cell += f" ({v['failed']}/{v['attempted']})"
        if "criterion_12_assumes" in v:
            cell += f" (criterion 12 assumes {v['criterion_12_assumes']:.3g})"
        cells.append(cell)
    print(f"{workload} seed={seed} passes={passes} | " + " | ".join(cells))


def run_all(args):
    """Each workload in its own process, ``--repeat`` times with seeds
    seed, seed+1, ...; one row per run, then the median and quartiles of
    each metric over the runs of each workload."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    section = "per_layer" if args.trace else "end_to_end"
    runs = {name: [] for name in workloads.WORKLOADS}
    ok, machine = True, None
    for i in range(args.repeat):
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=CHILD_TIMEOUT_S + PROBE_TIMEOUT_S * SETUP_PROBES)
            sys.stderr.write(out.stderr)
            print("\n".join(out.stdout.strip().splitlines()[:-1]), flush=True)
            ok = ok and out.returncode == 0
            with open(os.path.join(OUT, name, "record.json")) as fh:
                rec = json.load(fh)
            machine = machine or rec["machine"]
            runs[name].append({
                "seed": rec["seed"], "passes": rec["passes"],
                "loadavg_start": rec["machine"]["loadavg_start"],
                "attempted": rec["attempted"], "failed": rec["failed"],
                "metrics": {k: v["value"] for k, v in rec.get(section, {}).items()},
                "units": {k: v["unit"] for k, v in rec.get(section, {}).items()},
            })
    record = {"machine": machine, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    print(f"\nover {args.repeat} run(s): median [q1, q3], spread = (q3 - q1) / median")
    for name, rs in runs.items():
        summ = {}
        for metric, unit in rs[0]["units"].items():
            vals = [r["metrics"][metric] for r in rs if r["metrics"].get(metric) is not None]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            summ[metric] = {"median": med, "q1": q1, "q3": q3, "unit": unit,
                            "spread": (q3 - q1) / med if med else None}
            if metric in bounds:
                spread = f"{summ[metric]['spread']:.3f}" if med else "n/a"
                print(f"{name:16s} {metric:18s} {med:.6g} [{q1:.6g}, {q3:.6g}] {unit}"
                      f"  spread {spread} (bound {bounds[metric]})")
        record["workloads"][name] = {"runs": rs, "summary": summ}
    if args.record:
        path = os.path.abspath(args.record)
        if os.path.commonpath([path, ROOT]) != ROOT:
            raise SystemExit("--record must name a file inside the checkout")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1)
        print(f"run record written to {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="with --workload all: runs per workload, seeds seed, seed+1, ...")
    ap.add_argument("--record", help="with --workload all: write the combined "
                                     "run record to this file")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)  # one set-up probe
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lqrpg", "__init__.py")):
        print(f"error: no lqrpg sources under {SRC}", file=sys.stderr)
        return 2
    # Pin BLAS to one thread before NumPy loads; children inherit it. The
    # ceiling keeps `git describe`, ours and the harness's, inside the checkout.
    os.environ.update(BLAS_ENV)
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    if args.setup_only:
        return setup_only(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
