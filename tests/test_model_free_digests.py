"""Model-free figure outputs stay byte-identical.

Runs fig2 (plain PGD), fig3 (plain and variance-reduced PGD) and fig4
(natural PG, the covariance path) at master seed 0 with one repetition and
three iterations per variant. Every variant's run CSV and aggregate must
hash to the SHA-256 digest recorded here.
"""
import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from lqrpg import figure_preset, run_monte_carlo

DIGESTS = {
    "fig2": {
        "noise0.0001_eta40.0/aggregate.csv":
            "5eefb37ffd8b4bc73b0ad1c4474e82089a21da2e68fcf829ace91e9dea288819",
        "noise0.0001_eta40.0/run_0000.csv":
            "8f3aeaddbc050b450c22ac6c662657110801b90d474a7de506a089ecb7a5b4a0",
        "noise0.01_eta0.3/aggregate.csv":
            "1f3354c6b96396b74aea7367a98997fcb5bbb0ae08fd1c23f8ed526de5bdacfe",
        "noise0.01_eta0.3/run_0000.csv":
            "8a760d5e0d7c3d28a796f750799aac04d78a85706a1983eff90caa174c64ed46",
        "noise0.01_eta6.0/aggregate.csv":
            "f64cecd274a4c5eb7e580d61b3782edd3ec7d44c0a7ed7c732dcb9be8872a897",
        "noise0.01_eta6.0/run_0000.csv":
            "40e85dd67e4c8f26174c3bdcf40e7099ccff0de142dfdc62d7ed09418bdd4d6d",
    },
    "fig3": {
        "noise0.0001_plain/aggregate.csv":
            "349fb14cd1cc971d68a17b8a66669f270a7555e33eaae4f38e220e8fd04db75a",
        "noise0.0001_plain/run_0000.csv":
            "1c4e0999ec9301a9974ee80735ae90257320b603f8561ba6813a1f46619b310c",
        "noise0.0001_vr/aggregate.csv":
            "88068c8394d878535cb3dfb56729ec0f9db82b5a7fbb2983b5e2b14ac228771c",
        "noise0.0001_vr/run_0000.csv":
            "f474155c039411fc0dd1155947adf25992fbc4bd0184aadb48c1f8266bfeeb07",
        "noise0.01_plain/aggregate.csv":
            "98c09dd28ce488221c88d6c04ad0f3821bde4a57045adb2cb29881dd36512f84",
        "noise0.01_plain/run_0000.csv":
            "748ee13c3462cf30e748f153b30ffbec011e9eb1db32a7114ba518e2bd9936b0",
        "noise0.01_vr/aggregate.csv":
            "091d8304f8830cef8df47842f196c4eabc0c59a4f2237fc450183cd1ca2c7a60",
        "noise0.01_vr/run_0000.csv":
            "69f30950d4ae278f2f90f65d63ce2490d010d799a88c51072df6d0b5325fe901",
    },
    "fig4": {
        "noise0.0001_adaptive/aggregate.csv":
            "af4768f560ec50ac9a979ff45abb29bf70162681f9877660293205e987303fd6",
        "noise0.0001_adaptive/run_0000.csv":
            "8c5ae5bce5152b00f46d130210d1b5014a7dca76e8a957273e80a34294544366",
        "noise0.0001_fixed/aggregate.csv":
            "4ab72a55b708e734360a4ae68b4a852a24f9e4b30ead79014bc946ed3dfcfeb0",
        "noise0.0001_fixed/run_0000.csv":
            "3d24a126d8ade76f7ed38776576846927d07d290cba64f1fe75d14348a8142e1",
        "noise0.01_adaptive/aggregate.csv":
            "0934d5791b6aca74bcd65550535d9a6cabe7511ad92997b9024363698602d8a6",
        "noise0.01_adaptive/run_0000.csv":
            "2be31ed1752a8255b899f32f86e6d5e33b3c37c388e0e4d63d75b911b6de4579",
        "noise0.01_fixed/aggregate.csv":
            "49468769c78a2ae72fdaa7438debf012a32f665b8ec74c065c454ddda704e931",
        "noise0.01_fixed/run_0000.csv":
            "819bb406aa9cac73ecea42fae75421814b8af413c8fdf35a80a878c3e44e11fa",
        "noise1.0_adaptive/aggregate.csv":
            "b907da556027b82a334efbebbd404adc70fac2b8099e2c7663c86b6fa6c5dfd8",
        "noise1.0_adaptive/run_0000.csv":
            "cc86fe49ad07388d80c41d794ec45035f9f4966087279c64f6669f717cd4cee1",
        "noise1.0_fixed/aggregate.csv":
            "485cd47c31567182101b0724f3892f1383b44638549bd1ab089afa126b163beb",
        "noise1.0_fixed/run_0000.csv":
            "b920ee662f6a2afa71d5d9c852c766fdf3657bb672b5afd2ccc5c9768d030135",
    },
}


def small_preset(name: str):
    """The preset at 1 repetition and master seed 0, 3 iterations per variant."""
    cfg = figure_preset(name, repetitions=1, master_seed=0)
    return replace(cfg, variants=tuple(
        replace(v, stop=replace(v.stop, max_iters=3)) for v in cfg.variants))


def output_digests(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*.csv"))}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_model_free_outputs_match_digests(tmp_path, name):
    run_monte_carlo(small_preset(name), out_dir=str(tmp_path))
    assert output_digests(tmp_path) == DIGESTS[name]
