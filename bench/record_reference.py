"""Record the reference digests that every benchmark pass is checked against.

    python3 bench/record_reference.py

Runs one pass of each workload for each master seed, checks the outcomes
that do not depend on the random streams, and writes bench/reference.json.
fig2 is recorded with one thread, so that each benchmark run, which uses two,
also checks that the outputs do not depend on the thread count. Re-record
only in a change whose stated purpose is to change the random streams; see
bench/README.md.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

RECORD_THREADS = 1


def main():
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"})
    digests = {}
    for name, cls in workloads.WORKLOADS.items():
        digests[name] = {}
        for ms in range(workloads.MASTER_SEEDS):
            wl = cls(ms, os.path.join(ROOT, ".bench_out", "reference", name))
            wl.threads = RECORD_THREADS
            result = wl.run_pass()
            d = wl.digests(result)
            chk = wl.check(result, d)
            if chk.failed:
                raise SystemExit(f"{name} master seed {ms}: {chk.problems}")
            digests[name][str(ms)] = d
            print(f"{name} master seed {ms}: {len(d)} digests", flush=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump({
            "settings": {
                "master_seeds": workloads.MASTER_SEEDS,
                "fig1_repetitions": workloads.FIG1_REPETITIONS,
                "fig2_repetitions": workloads.FIG2_REPETITIONS,
                "fig2_threads": RECORD_THREADS,
                "vr_estimates": workloads.VR_ESTIMATES,
            },
            "digests": digests,
        }, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
