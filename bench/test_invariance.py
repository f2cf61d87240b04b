"""Invariance checks of the benchmark itself.

    python3 -m pytest bench -q

- fig2 outputs at two threads are byte-identical to those at one thread;
- traced outputs are byte-identical to untraced outputs;
- per-layer counts repeat exactly across two traced runs.

fig2 is left out of the last two because a traced fig2 run takes over a
minute; every traced benchmark run checks its outputs against the same
reference digests as untraced runs.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import pytest  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _digests(wl, out_dir, tracer=None):
    wl.out_dir = out_dir  # vr writes no files and ignores it
    if tracer is not None:
        tracer.install()
    try:
        return wl.digests(wl.run_pass())
    finally:
        if tracer is not None:
            tracer.uninstall()


def test_fig2_outputs_do_not_depend_on_thread_count(tmp_path):
    wl = workloads.Fig2ModelFreePGD(seed=1, out_dir="")
    wl.threads = 1
    one = _digests(wl, str(tmp_path / "one"))
    wl.threads = 2
    two = _digests(wl, str(tmp_path / "two"))
    assert one == two


@pytest.mark.parametrize("name", ["fig1_noisy_pgd", "vr_estimate"])
def test_traced_outputs_equal_untraced(tmp_path, name):
    wl = workloads.WORKLOADS[name](seed=2, out_dir="")
    plain = _digests(wl, str(tmp_path / "plain"))
    tracer = Tracer()
    traced = _digests(wl, str(tmp_path / "traced"), tracer)
    assert traced == plain
    stats, _ = tracer.totals()
    assert stats, "the tracer recorded no spans"


def _traced_counts(name):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


@pytest.mark.parametrize("name", ["fig1_noisy_pgd", "vr_estimate"])
def test_per_layer_counts_repeat(name):
    first = _traced_counts(name)
    assert first["exact.solve_dare.calls"] > 0
    assert first == _traced_counts(name)
