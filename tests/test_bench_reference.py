"""fig1 outputs still match the benchmark's recorded digests.

Loads ``bench/workloads.py`` by path and runs one pass of its
``Fig1NoisyPGD`` workload for two master seeds; every repetition's run CSV
and every variant's aggregate must hash to the digest in
``bench/reference.json``, and the noise-free variants must end at the
optimum.
"""
import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.mark.parametrize("seed", [0, 5])
def test_fig1_matches_reference_digests(tmp_path, seed):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    work = workloads.Fig1NoisyPGD(seed, str(tmp_path))
    chk = work.check(work.run_pass(), workloads.load_reference(work.name, seed))
    assert chk.ops and not chk.failed, chk.problems
