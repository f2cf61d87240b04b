"""Exact-gradient outputs stay byte-identical, and the array identities that
keep them so hold.

The mixed exact grid of ``test_lockstep_grids`` covers mb_pgd at a fixed and
at the certified step, mb_npg, Gauss-Newton and two noisy variants, one of
which diverges in some repetitions. Its run files and aggregates, in both
output formats, must hash to the SHA-256 prefixes recorded here.
"""
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from lqrpg import ConvergenceTrace, IterationRecord, run_monte_carlo
from lqrpg.harness import _aggregate_lines
from lqrpg.optimizers import _fro
from test_lockstep_grids import mixed_exact_grid

# Per variant: the aggregate's digest, then the run files' in csv and in json.
DIGESTS = {
    "gauss_newton": ("4aa24a4b5c33d6f6",
                     ["bd6148ffed03bed8", "c4bf68dd113768a3", "4ad936d1f38c768d"],
                     ["8f3b61e808b077b7", "b8889b7da8cc4d25", "10b08af69cbd9e18"]),
    "noisy_large": ("54ef0d4e9b0bff6e",
                    ["75e213c24789cac4", "4c4145a5919f09b4", "6c0e5ba02b52638b"],
                    ["18e0bba265a7620b", "74670d4d2b9ad624", "5c0bb4a4878e4bce"]),
    "noisy_small": ("bf9a5e9cf6d4c098",
                    ["d5cd1614485a0efa", "f2be51835e2f4c3b", "04a4d1ef3b507598"],
                    ["2ba85f41f35c66f7", "487a6d65531aca39", "4f425b164b10d1ed"]),
    "npg": ("b9fc6b09a164f253",
            ["5e320e4738967944", "a823c35424adab85", "de725f4ee248483a"],
            ["faf452547a6d59af", "34e5cbfc6be634d3", "1b58080299431e07"]),
    "pgd_certified": ("af3543ae18b36147",
                      ["31991d01771ef1c9", "4eb903addf215cc7", "9dd30ccca8dbe104"],
                      ["fe6446956e115251", "10760666c4c4204a", "433608de96254b3f"]),
    "pgd_fixed": ("044a8664ca35ab6e",
                  ["a701d7882722004f", "5b758b4da7fd5fd4", "6a81a0f286994121"],
                  ["c3fe123efb9b511c", "8a533d6ff4c0d036", "a920ee67dc131f71"]),
}


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_mixed_exact_grid_matches_digests(tmp_path, fmt):
    cfg = mixed_exact_grid()
    cfg = replace(cfg, variants=tuple(replace(v, out_format=fmt) for v in cfg.variants))
    run_monte_carlo(cfg, out_dir=str(tmp_path))
    for label, (aggregate, csv_runs, json_runs) in DIGESTS.items():
        runs = sorted((tmp_path / label).glob(f"run_*.{fmt}"))
        assert [digest(p) for p in runs] == (csv_runs if fmt == "csv" else json_runs)
        assert digest(tmp_path / label / "aggregate.csv") == aggregate


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 3), (2, 5)])
def test_stacked_norms_equal_per_matrix_norms_bitwise(shape):
    """The driver's gradient norms: ``_fro`` of a stack equals the
    per-matrix ``np.linalg.norm(g, "fro")`` of every member, also where the
    squares overflow to inf; the stacked ``np.linalg.norm`` does not."""
    rng = np.random.default_rng(7)
    G = rng.standard_normal((200, *shape)) * 10.0 ** rng.integers(-3, 4, (200, 1, 1))
    G[:5] *= 1e160
    with np.errstate(over="ignore"):
        single = np.array([np.linalg.norm(g, "fro") for g in G])
        assert _fro(G).tobytes() == single.tobytes()
        stacked = np.linalg.norm(G, "fro", axis=(-2, -1))
    assert np.isinf(single[:5]).all() and np.isfinite(single[5:]).all()
    if shape != (1, 1):
        assert stacked.tobytes() != single.tobytes()


def reference_aggregate(traces):
    """The aggregate lines as a loop over the traces' records computes them."""
    max_len = max(len(t.records) for t in traces)
    div = [next((r.i for r in t.records if r.status == "diverged"), None) for t in traces]
    lines = []
    for i in range(max_len):
        vals = [t.records[i].rel_subopt for t, d in zip(traces, div)
                if (d is None or i < d) and i < len(t.records)
                and t.records[i].status == "ok" and t.records[i].rel_subopt is not None
                and np.isfinite(t.records[i].rel_subopt)]
        diverged = sum(d is not None and i >= d for d in div)
        stats = ["", "", ""] if not vals else [
            format(float(x), ".17g") for x in (np.mean(vals), min(vals), max(vals))]
        lines.append(",".join([str(i), *stats, str(diverged)]))
    return lines


def test_aggregate_means_are_contiguous_reductions_bitwise():
    """Each aggregate mean is ``np.mean`` of the iteration's values in run
    order, for iterations with up to 40 values, gaps, failed records and
    divergence; a column mean of the (runs, iterations) array is not."""
    rng = np.random.default_rng(3)
    R = rng.standard_normal((40, 30)) * 10.0 ** rng.integers(-4, 4, (40, 30))
    traces = []
    for j, row in enumerate(R):
        n = 30 - j % 7  # shorter traces, and some that diverge at their end
        recs = [IterationRecord(i, 1.0, float(x), 0.1, 1.0, "ok")
                for i, x in enumerate(row[:n])]
        if j % 5 == 1:
            recs[n - 1] = IterationRecord(n - 1, np.inf, None, 0.0, np.nan, "diverged")
        if j % 3 == 2:
            recs[j % 10] = IterationRecord(j % 10, np.inf, None, 0.0, np.nan, "ok")
        traces.append(ConvergenceTrace(recs, np.zeros((1, 1)), "max_iters"))
    traces += traces[:3]  # repetitions sharing one trace
    lines = _aggregate_lines(traces)
    assert lines == reference_aggregate(traces)
    means = [float(line.split(",")[1]) for line in lines]
    assert means[0] == np.mean([t.records[0].rel_subopt for t in traces
                                if t.records[0].rel_subopt is not None])
    full = R[:10].copy()
    assert full.mean(axis=0).tolist() != [np.mean(list(col)) for col in full.T]
