"""The benchmark's workloads: each one is a function from a seed to an
``ExperimentConfig``, plus the fixed training length, the accuracy target
and the layer that should dominate its traced run.

Every workload uses the ``cifar100`` stand-in at the ``bench`` preset
(8x8x3 images, 30 classes) with the paper's CE cluster-skew partition
(delta=0.6).  The program receives only the generated config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.harness.config import ExperimentConfig

# Fields shared by every workload: the paper's non-IID setting on the
# CIFAR-100 stand-in at the bench preset.  lr is 3x the config default so
# that accuracy rises well clear of each workload's target within the
# fixed length: targets sit about five standard deviations (of the final
# accuracy across experiment seeds) below the mean, so no seed fails.
_COMMON = dict(dataset="cifar100", partition="CE", delta=0.6, scale="bench", lr=0.03)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``rounds`` fixes the training length (sync rounds, or the async job
    budget of ``rounds x clients_per_round``), so accuracy and the
    history digest are pure functions of the seed.  A run trains
    ``subseeds`` independent realisations derived from ``--seed`` and
    averages the seed-dependent metrics over them.  ``dominant`` names the
    spans (or the parent category, e.g. ``drl``) whose self time the
    traced run should show as the largest layer.
    """

    name: str
    why: str
    rounds: int
    subseeds: int
    target: float
    dominant: tuple[str, ...]
    build: Callable[[int, int], ExperimentConfig]

    def config(self, seed: int, rounds: int | None = None) -> ExperimentConfig:
        return self.build(seed, self.rounds if rounds is None else rounds)


def _cnn_fedavg(seed: int, rounds: int) -> ExperimentConfig:
    return ExperimentConfig(
        method="fedavg", model="simple_cnn", dtype="float32",
        n_clients=10, clients_per_round=10, local_epochs=1, batch_size=32,
        n_train=4000, backend="serial", seed=seed, rounds=rounds, **_COMMON,
    )


def _feddrl_cluster(seed: int, rounds: int) -> ExperimentConfig:
    # bench preset: E=3, batch 20, n_train 1200.
    return ExperimentConfig(
        method="feddrl", model="mlp", dtype="float64",
        n_clients=30, clients_per_round=10, backend="serial",
        seed=seed, rounds=rounds, **_COMMON,
    )


def _fedbuff_wire(seed: int, rounds: int) -> ExperimentConfig:
    return ExperimentConfig(
        method="fedprox", model="mlp", dtype="float64",
        n_clients=50, clients_per_round=10,
        aggregation="fedbuff", buffer_size=5, max_concurrency=10,
        server_mix="delta",
        latency_model="lognormal", straggler_fraction=0.3,
        availability="markov", dropout_prob=0.1,
        codec="topk+qsgd8", topk_frac=0.05, error_feedback=True,
        bandwidth_model="lognormal", backend="serial",
        seed=seed, rounds=rounds, **_COMMON,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cnn-fedavg",
            why=(
                "FedAvg on simple_cnn, float32, serial: conv+pool kernels take "
                "~88% of a run, client evaluation passes ~43% of local "
                "training; no DRL, wire, async or IPC"
            ),
            rounds=15,
            subseeds=3,
            target=0.18,
            dominant=("nn.Conv2D.fwd", "nn.Conv2D.bwd",
                      "nn.MaxPool2D.fwd", "nn.MaxPool2D.bwd"),
            build=_cnn_fedavg,
        ),
        Workload(
            name="feddrl-cluster",
            why=(
                "FedDRL on mlp, float64, N=30 K=10, serial: the paper's method "
                "on its non-IID type; the DDPG agent takes ~65% of a run, "
                "no convolution"
            ),
            rounds=40,
            subseeds=8,
            target=0.3,
            dominant=("drl",),
            build=_feddrl_cluster,
        ),
        Workload(
            name="fedbuff-wire",
            why=(
                "FedProx under FedBuff with stragglers, churn, dropout and "
                "topk+qsgd8 uploads, serial: async flushes instead of rounds; "
                "client training ~40% of a run, wire transmit ~18%"
            ),
            rounds=40,
            subseeds=12,
            target=0.18,
            dominant=("client_train",),
            build=_fedbuff_wire,
        ),
    )
}


def subseeds(seed: int, count: int) -> list[int]:
    """The experiment seeds one benchmark run trains, derived from --seed.

    Disjoint across benchmark seeds, so two runs with different --seed
    values never share a dataset.
    """
    if seed < 0:
        raise ValueError("--seed must be non-negative")
    return [seed * 1000 + j for j in range(count)]
