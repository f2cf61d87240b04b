"""The benchmark's workloads: set-up, one timed pass, and the pass's checks.

Each workload calls lqrpg's public API as a user would, through attribute
lookups on the ``lqrpg`` package so that the tracer's rebinding applies. A
pass is the unit of timed work that a run repeats; every pass of a run has
the same inputs, which come from the run's seed.

lqrpg and NumPy are imported inside the constructors, because their import
is part of the measured set-up time.
"""
from __future__ import annotations

import hashlib
import json
import os
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Seeds map onto this many master seeds; reference.json holds the digests of
# one pass for each of them.
MASTER_SEEDS = 8

FIG1_REPETITIONS = 4
FIG2_REPETITIONS = 2
FIG2_THREADS = 2
VR_ESTIMATES = 4

# Noise-free fig1 variants must end this close to the optimum from solve_dare.
FIG1_OPT_REL_COST_TOL = 1e-4
FIG1_OPT_REL_GAIN_TOL = 1e-2


def master_seed(seed: int) -> int:
    return seed % MASTER_SEEDS


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_reference(workload: str, seed: int) -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["digests"][workload][str(master_seed(seed))]


class PassCheck:
    """Outcome of checking one pass: operations attempted and failed."""

    def __init__(self, ops):
        self.ops = list(ops)
        self.failed: set = set()
        self.problems: list[str] = []

    def fail(self, ops, why: str) -> None:
        self.failed.update(ops)
        self.problems.append(why)


class FigureWorkload:
    """A figure preset run end to end by ``run_monte_carlo``; one operation
    is one repetition of one variant."""

    def __init__(self, name: str, preset: str, repetitions: int, threads: int,
                 seed: int, out_dir: str):
        import lqrpg

        self.lqrpg = lqrpg
        self.name = name
        self.threads = threads
        self.out_dir = out_dir
        self.cfg = lqrpg.figure_preset(preset, repetitions=repetitions,
                                       master_seed=master_seed(seed))
        self.ops_per_pass = sum(v.repetitions for v in self.cfg.variants)

    def run_pass(self):
        return self.lqrpg.run_monte_carlo(self.cfg, out_dir=self.out_dir,
                                          threads=self.threads)

    def latencies(self, bundle) -> list:
        return []

    def digests(self, bundle) -> dict:
        out = {}
        for sub in bundle.sub_bundles:
            for path in sub.run_paths + [sub.aggregate_path]:
                out[f"{sub.label}/{os.path.basename(path)}"] = sha256_file(path)
        return out

    def check(self, bundle, reference: dict) -> PassCheck:
        ops = [(sub.label, rep) for sub in bundle.sub_bundles
               for rep in range(len(sub.traces))]
        chk = PassCheck(ops)
        expected = {v.label: v.repetitions for v in self.cfg.variants}
        got = {sub.label: len(sub.traces) for sub in bundle.sub_bundles}
        if got != expected:
            chk.fail(ops, f"variants/repetitions {got} != {expected}")
        digests = self.digests(bundle)
        for key, digest in digests.items():
            if reference.get(key) == digest:
                continue
            label, fname = key.split("/")
            bad = [op for op in ops if op[0] == label]
            if fname.startswith("run_"):
                bad = [(label, int(fname[4:8]))]
            chk.fail(bad, f"digest mismatch for {key}")
        missing = set(reference) - set(digests)
        if missing:
            chk.fail(ops, f"missing artifacts {sorted(missing)}")
        self._check_outcomes(bundle, chk)
        return chk

    def _check_outcomes(self, bundle, chk: PassCheck) -> None:
        pass

    def work(self, bundle) -> dict:
        """Optimizer iterations and simulated state transitions of a pass,
        counted from the configs and the traces."""
        variants = {v.label: v for v in self.cfg.variants}
        iterations = steps = 0
        for sub in bundle.sub_bundles:
            var = variants[sub.label]
            for trace in sub.traces:
                iterations += len(trace.records)
                if var.rollout is not None:
                    steps += _mf_pgd_steps(trace, var.rollout)
        return {"iterations": iterations, "sim_steps": steps}


def _mf_pgd_steps(trace, rollout) -> int:
    """Transitions simulated by one ``run_mf_pgd`` run with explicit rollout
    parameters. Each record is one estimate of n rollouts of l states; until
    the first estimate that does not fail, every iteration also makes one
    probe rollout of l states."""
    statuses = [r.status for r in trace.records]
    ok = [i for i, s in enumerate(statuses) if s != "estimate_failed"]
    probes = ok[0] + 1 if ok else len(statuses)
    return (len(statuses) * rollout.n + probes) * (rollout.l - 1)


class Fig1NoisyPGD(FigureWorkload):
    def __init__(self, seed: int, out_dir: str):
        super().__init__("fig1_noisy_pgd", "fig1", FIG1_REPETITIONS, 1, seed, out_dir)
        self._opt: dict = {}

    def _check_outcomes(self, bundle, chk: PassCheck) -> None:
        import numpy as np

        lq = self.lqrpg
        variants = {v.label: v for v in self.cfg.variants}
        for sub in bundle.sub_bundles:
            var = variants[sub.label]
            if var.noise_sigma != 0.0:
                continue
            if sub.label not in self._opt:
                self._opt[sub.label] = lq.solve_dare(var.plant)
            opt = self._opt[sub.label]
            for rep, trace in enumerate(sub.traces):
                K = trace.K_final
                rel_cost = (lq.exact_quantities(var.plant, K).cost - opt.C_star) / opt.C_star
                rel_gain = np.linalg.norm(K - opt.K_star) / np.linalg.norm(opt.K_star)
                if not (trace.terminal_reason == "max_iters"
                        and rel_cost <= FIG1_OPT_REL_COST_TOL
                        and rel_gain <= FIG1_OPT_REL_GAIN_TOL):
                    chk.fail([(sub.label, rep)],
                             f"{sub.label} rep {rep} ended {trace.terminal_reason} "
                             f"at rel. cost {rel_cost:.3g}, rel. gain error "
                             f"{rel_gain:.3g}, not at the optimum")


class Fig2ModelFreePGD(FigureWorkload):
    # The eta6.0 variant overshoots; the other two run all iterations.
    UNSTABLE = "noise0.01_eta6.0"

    def __init__(self, seed: int, out_dir: str):
        super().__init__("fig2_mf_pgd", "fig2", FIG2_REPETITIONS, FIG2_THREADS,
                         seed, out_dir)

    def _check_outcomes(self, bundle, chk: PassCheck) -> None:
        for sub in bundle.sub_bundles:
            want = ({"diverged", "too_many_failures"} if sub.label == self.UNSTABLE
                    else {"max_iters"})
            for rep, trace in enumerate(sub.traces):
                if trace.terminal_reason not in want:
                    chk.fail([(sub.label, rep)],
                             f"{sub.label} rep {rep} ended {trace.terminal_reason}, "
                             f"expected one of {sorted(want)}")


class VREstimate:
    """One-shot ``estimate_gradient_vr`` calls in the fig3 setting with
    variance reduction at noise 1e-2; one operation is one estimate, and
    pass estimate j uses run id j."""

    name = "vr_estimate"
    VARIANT = "noise0.01_vr"
    ops_per_pass = VR_ESTIMATES
    out_dir = None

    def __init__(self, seed: int, out_dir: str):
        import lqrpg

        self.lqrpg = lqrpg
        cfg = lqrpg.figure_preset("fig3", master_seed=master_seed(seed))
        var = next(v for v in cfg.variants if v.label == self.VARIANT)
        self.K0, self.rollout, self.n_v = var.K0, var.rollout, var.n_v
        self.oracle = lqrpg.RolloutOracle(
            var.plant, lqrpg.SeedSpec(var.master_seed), L0=var.rollout.L0
        )

    def run_pass(self):
        """[(run_id, estimate, latency_s)] for VR_ESTIMATES calls in a closed
        loop."""
        out = []
        for run_id in range(VR_ESTIMATES):
            t0 = time.perf_counter()
            est = self.lqrpg.estimate_gradient_vr(
                self.oracle, self.K0, self.rollout, self.n_v, run_id=run_id
            )
            out.append((run_id, est, time.perf_counter() - t0))
        return out

    def latencies(self, result) -> list:
        return [lat for _, _, lat in result]

    def digests(self, result) -> dict:
        return {str(rid): hashlib.sha256(est.value.tobytes()).hexdigest()
                for rid, est, _ in result}

    def check(self, result, reference: dict) -> PassCheck:
        import numpy as np

        chk = PassCheck(rid for rid, _, _ in result)
        if len(result) != VR_ESTIMATES:
            chk.fail(chk.ops, f"{len(result)} estimates, expected {VR_ESTIMATES}")
        digests = self.digests(result)
        for rid, est, _ in result:
            if est.failed or not np.all(np.isfinite(est.value)):
                chk.fail([rid], f"estimate {rid} failed or is not finite")
            if reference.get(str(rid)) != digests[str(rid)]:
                chk.fail([rid], f"digest mismatch for estimate {rid}")
        return chk

    def work(self, result) -> dict:
        r = self.rollout
        per_estimate = (r.n * self.n_v + r.n) * (r.l - 1)
        return {"estimates": len(result), "sim_steps": per_estimate * len(result)}


WORKLOADS = {
    "fig1_noisy_pgd": Fig1NoisyPGD,
    "fig2_mf_pgd": Fig2ModelFreePGD,
    "vr_estimate": VREstimate,
}
