"""Unit tests for the shared aggregation pipeline (``repro.fl.pipeline``)."""

import numpy as np
import pytest

from repro.fl.client import ClientUpdate
from repro.fl.hierarchical import fold_edges
from repro.fl.pipeline import aggregate_window, count_window, upload
from repro.fl.robust import AggregationInfo
from repro.fl.simulation import RoundRecord
from repro.fl.strategies import FedAvg, Strategy
from repro.obs.metrics import MetricsRegistry


def update(cid, seed, n=10, dim=8):
    rng = np.random.default_rng(seed)
    return ClientUpdate(cid, rng.normal(size=dim), 1.0, 0.5, n)


class FixedAlphas(Strategy):
    """Returns a preset impact-factor vector, whatever the window."""

    def __init__(self, alphas) -> None:
        self.alphas = alphas

    def impact_factors(self, updates, round_idx):
        return self.alphas


class RecordingDefense:
    """A defense stub: keeps its inputs, returns a preset verdict."""

    def __init__(self, info=None) -> None:
        self.info = info or AggregationInfo()
        self.deltas = self.alphas = None

    def combine(self, deltas, alphas):
        self.deltas, self.alphas = deltas, alphas
        return np.zeros(deltas.shape[1], dtype=deltas.dtype), self.info


class TestOneVotePerClient:
    def test_repeat_client_gets_one_summed_vote(self):
        g = np.zeros(8)
        ups = [update(0, 1), update(1, 2), update(0, 3), update(2, 4)]
        factors = np.array([1.0, 0.5, 0.25, 1.0])
        defense = RecordingDefense()
        aggregate_window(ups, [g] * 4, g, FixedAlphas(np.full(4, 0.25)), 0,
                         factors=factors, defense=defense)
        alphas = 0.25 * factors
        assert defense.deltas.shape == (3, 8)
        np.testing.assert_allclose(
            defense.alphas, [alphas[0] + alphas[2], alphas[1], alphas[3]]
        )
        # Client 0's voice is the alpha-weighted mean of its two deltas.
        expected = (alphas[0] * ups[0].weights + alphas[2] * ups[2].weights) / (
            alphas[0] + alphas[2]
        )
        np.testing.assert_allclose(defense.deltas[0], expected)
        np.testing.assert_array_equal(defense.deltas[1], ups[1].weights)

    def test_verdict_names_the_client_once(self):
        g = np.zeros(8)
        ups = [update(0, 1), update(1, 2), update(0, 3)]
        defense = RecordingDefense(AggregationInfo(rejected=[0], clipped=[1]))
        window = aggregate_window(ups, [g] * 3, g, FedAvg(), 0,
                                  factors=np.ones(3), defense=defense)
        assert window.rejected == [0]
        assert window.clipped == [1]


class TestHierVerdicts:
    def test_rejected_and_clipped_edges_expand_to_members(self):
        g = np.zeros(8)
        ups = [update(cid, cid) for cid in (4, 1, 7, 2)]
        members = fold_edges(ups, 2)[4]
        defense = RecordingDefense(AggregationInfo(rejected=[0], clipped=[1]))
        window = aggregate_window(ups, [g] * 4, g, FedAvg(), 0,
                                  defense=defense, n_edges=2)
        assert defense.deltas.shape == (2, 8)
        assert window.rejected == [ups[p].client_id for p in members[0]]
        assert window.clipped == [ups[p].client_id for p in members[1]]
        assert sorted(window.rejected + window.clipped) == [1, 2, 4, 7]


class TestRecordAlphas:
    def test_hier_alphas_sum_to_one(self):
        g = np.zeros(8)
        ups = [update(cid, cid, n=5 * (cid + 1)) for cid in range(5)]
        sync = aggregate_window(ups, [g] * 5, g, FedAvg(), 0, n_edges=2)
        stale = aggregate_window(ups, [g] * 5, g, FedAvg(), 0, n_edges=2,
                                 factors=np.linspace(0.2, 1.0, 5))
        for window in (sync, stale):
            assert window.alphas.shape == (5,)
            assert window.alphas.sum() == pytest.approx(1.0)

    def test_zero_mass_flush_records_zeros_and_keeps_weights(self):
        g = np.ones(8)
        ups = [update(cid, cid) for cid in range(4)]
        for n_edges in (None, 2):
            window = aggregate_window(ups, [g] * 4, g, FedAvg(), 0,
                                      factors=np.zeros(4), n_edges=n_edges)
            np.testing.assert_array_equal(window.alphas, np.zeros(4))
            assert window.weights is g

    def test_sync_records_raw_strategy_alphas(self):
        g = np.zeros(8)
        ups = [update(cid, cid) for cid in range(3)]
        raw = np.array([0.2, 0.3, 0.5], dtype=np.float32)
        window = aggregate_window(ups, [g] * 3, g, FixedAlphas(raw), 0)
        assert window.alphas.dtype == np.float32
        np.testing.assert_array_equal(window.alphas, raw)
        # With staleness factors the same strategy output is renormalized.
        stale = aggregate_window(ups, [g] * 3, g, FixedAlphas(raw), 0,
                                 factors=np.array([1.0, 1.0, 0.5]))
        assert stale.alphas.sum() == pytest.approx(1.0)


class TestMixForms:
    def test_delta_form_moves_by_mean_delta(self):
        g = np.zeros(8)
        anchors = [np.full(8, 1.0), np.full(8, -1.0)]
        ups = [ClientUpdate(0, np.full(8, 3.0), 1.0, 0.5, 10),
               ClientUpdate(1, np.full(8, 1.0), 1.0, 0.5, 10)]
        window = aggregate_window(ups, anchors, g, FedAvg(), 0,
                                  factors=np.ones(2), delta_mix=True)
        np.testing.assert_allclose(window.weights, np.full(8, 2.0))

    def test_weight_form_mixes_toward_combination(self):
        g = np.zeros(8)
        ups = [ClientUpdate(0, np.full(8, 4.0), 1.0, 0.5, 10)]
        window = aggregate_window(ups, [g], g, FedAvg(), 0,
                                  factors=np.array([1.0]), server_mix=0.25)
        np.testing.assert_allclose(window.weights, np.full(8, 1.0))


class TestUploadAndCounters:
    def test_upload_without_attack_or_wire_is_identity(self):
        u = update(0, 0)
        out, nbytes = upload(u, 0, np.zeros(8))
        assert out is u
        assert nbytes == 0

    def test_count_window_only_counts_attached_stages(self):
        record = RoundRecord(
            round_idx=0, participants=[0, 1], impact_factors=np.ones(2) / 2,
            client_losses_before=np.ones(2), client_losses_after=np.ones(2),
            client_sizes=np.ones(2), impact_time_s=0.0, aggregation_time_s=0.0,
            malicious_selected=[1], rejected_updates=[0, 1],
        )
        m = MetricsRegistry()
        count_window(m, record)
        assert m.snapshot()["counters"] == {}
        count_window(m, record, attack=object(), defense=object())
        counters = m.snapshot()["counters"]
        assert counters["sim.attack.malicious_aggregated"] == 1
        assert counters["sim.defense.updates_rejected"] == 2
        assert counters["sim.defense.updates_clipped"] == 0
