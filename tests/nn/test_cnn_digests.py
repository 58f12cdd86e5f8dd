"""Pinned end-to-end digests for runs that train convolutional models.

The golden hashes in ``test_arena.py`` and the aggregation cells in
``tests/fl/test_pipeline_digests.py`` all train the ``mlp`` model, so
none of them executes ``Conv2D``, ``MaxPool2D`` or ``im2col``.  These
cells do: ``simple_cnn`` in both compute dtypes, on MNIST and on the
CIFAR-100 stand-in, ``vgg_mini`` on CIFAR-100, and FedDRL over
``simple_cnn``.  Each pins the sim-domain ``history_digest`` and a sha256
of the final global weights.  Any change to the conv or pooling
arithmetic, forward or backward, moves a hash here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.reporting import history_digest
from repro.harness.runner import build_simulation
from repro.nn.dtypes import default_dtype

CNN = dict(dataset="mnist", model="simple_cnn", scale="ci", rounds=2)
CIFAR = dict(dataset="cifar100", partition="CE", scale="ci", dtype="float32")

# name -> (config overrides, history_digest, final-weights sha256)
CELLS = {
    "mnist-cnn-f64": (
        dict(**CNN),
        "660557047f18bd74051f37671247d5ae44b5e8b8c5337c3c61c6edb1a6ef33de",
        "ee7d682caf7f49d5c335abbfecf8fb66fcd210d0bceee97556fee64a5e0b0877",
    ),
    "mnist-cnn-f32": (
        dict(**CNN, dtype="float32"),
        "1ec06d6793732854e42163ed439df166292da27b742ad1f16c18b937c8e60c00",
        "0c9dde783c4d28a7e63b532732847fc2145047a158e12207d3d15af928e1dabd",
    ),
    "cifar-cnn-f32": (
        dict(**CIFAR, model="simple_cnn", n_clients=6, clients_per_round=6, rounds=2),
        "f431acadb86e37b46d7fc65dbb81952d5f9c339cd7c8cae7c8d3fe58b4074c67",
        "2014bbc75406bef035b56d3d1da9b4d9f49d3166ea2696ac409f64212b773379",
    ),
    "cifar-vgg-f32": (
        dict(**CIFAR, model="vgg_mini", n_clients=4, clients_per_round=4, rounds=1),
        "9b7ea7d12f0a6188c4fb6f45ce57acbd59e64977c541775eea4ed874ed7abeff",
        "5e67d1a06199e4d1a5120412b3d121600b708f03bea8b245cbf0ba0a6b19fb26",
    ),
    "mnist-cnn-feddrl-f64": (
        dict(**CNN, method="feddrl"),
        "52c6ffc62f98f1d20616caf9288067c0c1b4070c31c90881d22e0af103a83e74",
        "ddf268481ff7a43ef650dcc5cefbdf46d155628a6b28edaf9790a5828aad5a76",
    ),
}


def run_cell(overrides: dict) -> tuple[str, str]:
    """(history digest, final-weights sha256) of one cell."""
    cfg = ExperimentConfig(**overrides)
    with default_dtype(cfg.dtype):
        with build_simulation(cfg) as sim:
            history = sim.run()
            weights = np.ascontiguousarray(sim.global_weights)
    return history_digest(history), hashlib.sha256(weights.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_pinned_digest(name):
    overrides, *expected = CELLS[name]
    assert run_cell(overrides) == tuple(expected)
