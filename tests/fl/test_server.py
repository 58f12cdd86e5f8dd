"""Tests for the server half of a round: broadcast, aggregation through
the shared pipeline, and checkpoint/resume of the synchronous engine."""

import numpy as np
import pytest

from repro.fl.client import ClientUpdate
from repro.fl.pipeline import aggregate_window
from repro.fl.selection import RoundRobinSelection
from repro.fl.simulation import FederatedSimulation, FLConfig
from repro.fl.strategies import FedAvg, FedDRL
from repro.runtime import SerialExecutor


def make_sim(tiny_clients, tiny_model_factory, strategy=None, k=4, executor=None):
    cfg = FLConfig(rounds=4, clients_per_round=k, local_epochs=1, lr=0.05,
                   batch_size=16, seed=0)
    return FederatedSimulation(
        tiny_clients, None, tiny_model_factory, strategy or FedAvg(), cfg,
        selector=RoundRobinSelection(), executor=executor,
    )


def updates_for(global_weights, k=3, seed=0):
    rng = np.random.default_rng(seed)
    return [
        ClientUpdate(i, rng.normal(size=global_weights.shape[0]), 1.0 + i, 0.5,
                     10 * (i + 1))
        for i in range(k)
    ]


def aggregate(global_weights, updates, strategy=None, index=0):
    return aggregate_window(updates, [global_weights] * len(updates),
                            global_weights, strategy or FedAvg(), index)


class _RecordingExecutor(SerialExecutor):
    """A serial executor that keeps every RoundContext it was handed."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.contexts = []

    def run_round(self, ctx, participants):
        self.contexts.append(ctx)
        return super().run_round(ctx, participants)


class TestBroadcast:
    def test_returns_copy(self, tiny_clients, tiny_model_factory):
        """Local training never writes into the server's global weights."""
        sim = make_sim(tiny_clients, tiny_model_factory)
        w = sim.global_weights.copy()
        sim.collect_updates([0, 1, 2], round_idx=0)
        np.testing.assert_array_equal(sim.global_weights, w)

    def test_matches_global(self, tiny_clients, tiny_model_factory):
        executor = _RecordingExecutor(tiny_clients, tiny_model_factory)
        sim = make_sim(tiny_clients, tiny_model_factory, executor=executor)
        w = sim.global_weights
        sim.run_round(0)
        np.testing.assert_array_equal(executor.contexts[0].global_weights, w)


class TestAggregate:
    def test_advances_round_and_updates_weights(self, tiny_clients, tiny_model_factory):
        sim = make_sim(tiny_clients, tiny_model_factory)
        w0 = sim.global_weights.copy()
        record = sim.run_round(0)
        assert record.round_idx == 0
        assert sim.history.records == [record]
        assert not np.array_equal(sim.global_weights, w0)

    def test_fedavg_weighting(self):
        g = np.zeros(12)
        ups = updates_for(g)
        window = aggregate(g, ups)
        n = np.array([u.n_samples for u in ups], dtype=float)
        alphas = n / n.sum()
        expected = alphas @ np.stack([u.weights for u in ups])
        np.testing.assert_allclose(window.weights, expected)
        np.testing.assert_allclose(window.alphas, alphas)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate(np.zeros(12), [])

    def test_rejects_dimension_mismatch(self):
        bad = [ClientUpdate(0, np.zeros(3), 1.0, 0.5, 10)]
        with pytest.raises(ValueError, match="uploaded"):
            aggregate(np.zeros(12), bad)

    def test_records_timing_split(self):
        g = np.zeros(12)
        window = aggregate(g, updates_for(g))
        w0, t0, t1, t2 = window.wall
        assert w0 > 0
        assert t0 <= t1 <= t2
        fields = window.record_fields(updates_for(g))
        assert fields["impact_time_s"] == t1 - t0
        assert fields["aggregation_time_s"] == t2 - t1

    def test_works_with_feddrl(self):
        strat = FedDRL(clients_per_round=3, seed=0, online_training=False)
        g = np.zeros(12)
        for t in range(3):
            g = aggregate(g, updates_for(g, k=3, seed=t), strat, index=t).weights
        assert len(strat.agent.buffer) == 2  # rounds - 1 transitions


class TestCheckpoint:
    def test_roundtrip(self, tiny_clients, tiny_model_factory):
        sim = make_sim(tiny_clients, tiny_model_factory)
        sim.run_round(0)
        sim._next_round = 1
        state = sim.snapshot_state()
        sim2 = make_sim(tiny_clients, tiny_model_factory)
        sim2.restore_state(state)
        np.testing.assert_array_equal(sim2.global_weights, sim.global_weights)
        assert sim2._next_round == 1

    def test_state_dict_detached(self, tiny_clients, tiny_model_factory):
        sim = make_sim(tiny_clients, tiny_model_factory)
        state = sim.snapshot_state()
        sim.run_round(0)
        assert not np.array_equal(state["global_weights"], sim.global_weights)

    def test_load_rejects_wrong_dim(self, tiny_clients, tiny_model_factory):
        """A snapshot sized for another model raises at restore, before
        any engine state changes — not later, mid-run."""
        sim = make_sim(tiny_clients, tiny_model_factory)
        state = sim.snapshot_state()
        state["global_weights"] = np.zeros(7)
        state["next_round"] = 3
        with pytest.raises(ValueError, match="dimension"):
            sim.restore_state(state)
        assert sim._next_round == 0
        assert sim.global_weights.shape != (7,)


class TestRunRoundWithExecutor:
    """The sync engine on top of an explicitly built execution backend."""

    def test_run_round_trains_and_aggregates(self, tiny_clients, tiny_model_factory):
        executor = SerialExecutor(tiny_clients, tiny_model_factory)
        sim = make_sim(tiny_clients, tiny_model_factory, k=3, executor=executor)
        w0 = sim.global_weights.copy()
        record = sim.run_round(0)
        assert record.participants == [0, 1, 2]
        assert not np.array_equal(sim.global_weights, w0)

    def test_checkpoint_resume_reproduces_run(self, tiny_clients, tiny_model_factory):
        """snapshot -> restore mid-run must continue identically, because
        client RNGs are keyed on (round, client), not on history."""
        straight = make_sim(tiny_clients, tiny_model_factory)
        straight.run()

        first = make_sim(tiny_clients, tiny_model_factory)
        first.config.rounds = 2
        first.run()
        state = first.snapshot_state()
        resumed = make_sim(tiny_clients, tiny_model_factory)
        resumed.restore_state(state)
        resumed.run()

        assert resumed._next_round == straight._next_round == 4
        np.testing.assert_array_equal(resumed.global_weights, straight.global_weights)
