"""Pinned end-to-end digests for the aggregation step of both engines.

Each cell runs a small experiment (``scale="ci"``, N = K = 6, 3 rounds)
through the harness entry point and pins three literal hashes: the
sim-domain ``history_digest``, a sha256 of the final global weights, and
a sha256 of every record's participants, impact factors and defense
verdicts (which the digest only counts).
The cells cover every branch of the window → new-weights step: flat and
hierarchical folding, FedDRL, robust defenses with an update attack,
the async weight and delta mixing forms, FedAsync, and lossy wire
uploads.  Any change to the aggregation arithmetic moves a hash here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.reporting import history_digest
from repro.harness.runner import build_simulation
from repro.nn.dtypes import default_dtype

BASE = dict(scale="ci", n_clients=6, clients_per_round=6, rounds=3)
FEDBUFF = dict(aggregation="fedbuff", buffer_size=3, latency_model="lognormal")
WIRE = dict(codec="topk+qsgd8", topk_frac=0.05)
SIGN_FLIP = dict(attack="sign_flip", malicious_fraction=0.2)

# name -> (config overrides, history_digest, final-weights sha256,
#          records sha256)
CELLS = {
    "sync-fedavg": (
        dict(method="fedavg"),
        "b13ef222d0dcf75495588c0b8e5c28f33222b865d6fb184baf6e6305215452d3",
        "a225226a6f4296b8c2ae776922941c549b517698f80423e882ab8473691610a6",
        "7a157fcace536bb5a5988dbd1596565b042975af9ec12f8e0eaead7ed4e89538",
    ),
    "sync-feddrl": (
        dict(method="feddrl"),
        "54862f096034130c3b9f8ada9525d765f9e79ef0872812dc4cb27fbcde44e971",
        "5b305eec42e5f12c56ec486febe37d017d74f6ff6c8d2ca82d2f978c4e5a3866",
        "a4f6d14bb721eb42e520da2c7fe14d9c2061d1f69239b436bc9277ce2ce6a1f5",
    ),
    "sync-krum-signflip": (
        dict(method="fedavg", aggregator="krum", **SIGN_FLIP),
        "135ce0860f0734090c94ab13c554a1ca6327f749a8734bb75f83a6b02f9c755d",
        "a147753a2c905665e9a4370aaa6f96a2a4c61f86fa03fa74338ac9429e7eb710",
        "da8c052e41ea1f2642ba5220bb22b563ca138b912eb58a37d6e1e50291fe64d1",
    ),
    "sync-hier2": (
        dict(method="fedavg", topology="hier", n_edges=2),
        "70dd4d39dd5a854a53b0a0b645fd105bbe65fb7e78f23bf15f96fc40663cdbcb",
        "ddda8e06d2be95f956996bacc95bbcb1495f5db84e54871e40eb84fb4dad0485",
        "998da0957e2dd2e68fe610766804dac6aa3af20f6bef7d1655d4371f46b16d08",
    ),
    "sync-hier3-median": (
        dict(method="fedavg", topology="hier", n_edges=3, aggregator="median"),
        "cba9870ff129ddad15c87c2dafd7a5b8232834031bb9ca884268cc7a14ae2b52",
        "09c4e748d7edaf77b497898a0a78188d998776a6f9e9427a6ec25811f48aff13",
        "998da0957e2dd2e68fe610766804dac6aa3af20f6bef7d1655d4371f46b16d08",
    ),
    "sync-wire": (
        dict(method="fedavg", **WIRE),
        "ef44a426e04c9f086ccf7cff234729ded2dcab52a9e43884ebfe009b9f5282ac",
        "f52870fcdf037d946d46c8829e9338367120c0f3e8e777815aa4d53e124e6de5",
        "7a157fcace536bb5a5988dbd1596565b042975af9ec12f8e0eaead7ed4e89538",
    ),
    "fedbuff-weight": (
        dict(method="fedavg", **FEDBUFF),
        "d271edaae8957265cc3b7ae60f21249c46c71419a05e1b2807c5802420fc7e05",
        "ec222192ba8ee37ee796f813219335e2a3fcd496821d722b0ba2d555bfa75d2d",
        "dab5233a4483747a5825e9752744bb8f884a3aa4af7ab2f878c1252bd71c7332",
    ),
    "fedbuff-delta": (
        dict(method="fedavg", server_mix="delta", **FEDBUFF),
        "82b9ff0586b6c161d1803a6a9c70895723f4e10316ee5c8247efad1b99a25c66",
        "2e6d41745a54bf9b5beae3a20b4c65718ca8cdf1daee41d29891e81d17b7c023",
        "dab5233a4483747a5825e9752744bb8f884a3aa4af7ab2f878c1252bd71c7332",
    ),
    "fedbuff-delta-median-signflip": (
        dict(method="fedavg", server_mix="delta", aggregator="median",
             **SIGN_FLIP, **FEDBUFF),
        "86212eee76a48c448a887d100c3dc1d36f5cc37e9dc065ee5d345bc4a9484e08",
        "7f8873c948b40bae80f72b6bddc261953684ef311261b07100e5c18a5bfad758",
        "dab5233a4483747a5825e9752744bb8f884a3aa4af7ab2f878c1252bd71c7332",
    ),
    "fedbuff-weight-trimmed": (
        dict(method="fedavg", aggregator="trimmed_mean", **FEDBUFF),
        "77d8c04f27f9544c2fbc0f2339affaf64d15ff0049a1198033511393715eeb90",
        "8b2b8836e68092c7346a564bd842e1ae2cb6fb3e1fd608a6efe6c6af76e904bc",
        "dab5233a4483747a5825e9752744bb8f884a3aa4af7ab2f878c1252bd71c7332",
    ),
    "fedasync": (
        dict(method="fedavg", aggregation="fedasync", latency_model="lognormal"),
        "75c57b7271610d396e6dd4cf9546420cfd0810bef1f744e289116cb823907094",
        "901f5037d0cba65c0fae540b5a7f37fae2220e3186e34f394aae1e4e55f203c6",
        "ef1ffc55388c7ee324e299de0a9a23489ef05f96374950d40fc7f381decb88c9",
    ),
    "fedbuff-hier2-weight": (
        dict(method="fedavg", topology="hier", n_edges=2, **FEDBUFF),
        "e91bcf93e4d49df262c1fb547bbe26765c6a1332f449e32ccda0f34d0adc53a5",
        "a4c12a2beacb2f310f429612c9189a728593490ba456d052258650510817b05b",
        "7735348af88806fc986ea4c6adcc17d3c9ac9da56c56ac5ff0c337d23d32ac0b",
    ),
    "fedbuff-hier3-delta-krum": (
        dict(method="fedavg", topology="hier", n_edges=3, server_mix="delta",
             aggregator="krum", **FEDBUFF),
        "c93415aaeaba326314c8185a0ec2ba5679d08d370619054747eab9aee2325de2",
        "862dba8b988a04805d1fd60a54451c5c9ed5a7704feef50adb801c5727dc145e",
        "30be68eb0122cd1fb10d7b5a9eb6ac48cbc726833093c0fca73b743fc10d0a47",
    ),
    "fedbuff-wire": (
        dict(method="fedavg", **WIRE, **FEDBUFF),
        "611965ec0aae54404bd028fbab8f78b577d8cbf78923a1019cf12cfeaf5a69c7",
        "8e3ba33d846a7967a83e96780beb9c9e9492faebce541d718980db0990ca8356",
        "dab5233a4483747a5825e9752744bb8f884a3aa4af7ab2f878c1252bd71c7332",
    ),
}


def records_sha(history) -> str:
    h = hashlib.sha256()
    for r in history.records:
        h.update(repr((r.round_idx, list(r.participants),
                       list(r.rejected_updates), list(r.clipped_updates))).encode())
        h.update(np.asarray(r.impact_factors, dtype=np.float64).tobytes())
    return h.hexdigest()


def run_cell(overrides: dict) -> tuple[str, str, str]:
    """(history digest, final-weights sha256, records sha256) of one cell.

    Follows ``run_experiment``'s path (dtype pinned for the run, then
    ``build_simulation`` → ``run``) but keeps the engine, whose final
    global weights ``run_experiment`` does not return.
    """
    cfg = ExperimentConfig(**BASE, **overrides)
    with default_dtype(cfg.dtype):
        with build_simulation(cfg) as sim:
            history = sim.run()
            weights = np.ascontiguousarray(sim.global_weights)
    return (
        history_digest(history),
        hashlib.sha256(weights.tobytes()).hexdigest(),
        records_sha(history),
    )


@pytest.mark.parametrize("name", sorted(CELLS))
def test_pinned_digest(name):
    overrides, *expected = CELLS[name]
    assert run_cell(overrides) == tuple(expected)
