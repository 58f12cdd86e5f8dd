"""The one aggregation pipeline: a window of updates becomes new weights.

A *window* is a synchronous round or an asynchronous buffer flush
(FedBuff / FedAsync).  Both engines hand their window to this module, so
FedDRL's step — client updates → impact factors → the weights of the
aggregation — is written once:

1. :func:`upload` — what the server receives from one client: the
   attack's perturbation, then the wire format's encode/decode, both
   against the weights the client was dispatched with (its *anchor*).
2. :func:`aggregate_window` — hierarchical edge folding, the strategy's
   impact factors, staleness factors, the robust defense with one vote
   per client, the mixing step, and the strategy's end-of-window hook.
3. :func:`count_window` — the attack, defense and wire counters of a
   traced window.

A synchronous round is the special case with no staleness factors: every
anchor is the current global model and the step is the plain eq. (4)
``combine_updates`` (alphas must already sum to 1, so the float64 golden
histories keep their exact arithmetic).  With staleness factors the
window is an async flush: alphas are ``impact × staleness``, the global
model moves by ``server_mix`` scaled with their mass, either toward the
renormalized combination (weight form) or by the weighted mean delta
against each update's anchor (``delta_mix``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.fl.client import ClientUpdate
from repro.fl.hierarchical import fold_edges
from repro.fl.strategies.base import Strategy, combine_updates


def upload(
    update: ClientUpdate, index: int, anchor: np.ndarray, attack=None, wire=None
) -> tuple[ClientUpdate, int]:
    """One upload as the server sees it, and its exact payload bytes.

    ``index`` is the round (sync) or job (async) the work belongs to — the
    time coordinate of the attack's and the wire's seeded streams — and
    ``anchor`` the global weights the client trained from.  The upload
    leaves the device poisoned; the wire then carries the poisoned delta.
    """
    if attack is not None:
        update = attack.perturb(update, index, anchor)
    if wire is None:
        return update, 0
    return wire.transmit(update, index, anchor)


@dataclass
class Window:
    """The outcome of one :func:`aggregate_window` call.

    ``alphas`` are the per-update impact factors the record keeps: the
    strategy's raw output for a flat synchronous round, otherwise the
    effective factors normalized to sum to 1 (all zero on a zero-mass
    flush).  ``rejected`` / ``clipped`` are the client ids behind the
    defense's verdicts.  ``wall`` is ``(w0, t0, t1, t2)``: the wall-clock
    start and the ``perf_counter`` marks around impact-factor
    computation (t0→t1) and aggregation (t1→t2), Fig. 9's split.
    """

    weights: np.ndarray
    alphas: np.ndarray
    rejected: list[int]
    clipped: list[int]
    wall: tuple[float, float, float, float]

    def record_fields(self, updates: list[ClientUpdate], attack=None) -> dict:
        """The :class:`~repro.fl.simulation.RoundRecord` fields every
        engine fills the same way from a window."""
        _, t0, t1, t2 = self.wall
        ids = [u.client_id for u in updates]
        return dict(
            participants=ids,
            impact_factors=self.alphas,
            client_losses_before=np.array([u.loss_before for u in updates]),
            client_losses_after=np.array([u.loss_after for u in updates]),
            client_sizes=np.array([u.n_samples for u in updates]),
            impact_time_s=t1 - t0,
            aggregation_time_s=t2 - t1,
            malicious_selected=(
                [cid for cid in ids if attack.is_malicious(cid)]
                if attack is not None else []
            ),
            rejected_updates=self.rejected,
            clipped_updates=self.clipped,
        )


def aggregate_window(
    updates: list[ClientUpdate],
    anchors: list[np.ndarray],
    global_weights: np.ndarray,
    strategy: Strategy,
    index: int,
    *,
    factors: np.ndarray | None = None,
    defense=None,
    n_edges: int | None = None,
    server_mix: float = 1.0,
    delta_mix: bool = False,
) -> Window:
    """Turn one window of updates into the next global weights.

    ``anchors[i]`` is the weight vector ``updates[i]`` was trained from
    (read only by the delta form).  ``factors`` are the async engine's
    per-update staleness factors; ``None`` selects the synchronous
    arithmetic.  ``n_edges`` folds the window into edge aggregates first
    (hierarchical topology): the strategy and the defense then run over
    edges, and verdicts and alphas expand back to the member clients.
    """
    if not updates:
        raise ValueError("aggregate_window needs at least one client update")
    for u in updates:
        if u.weights.shape != global_weights.shape:
            raise ValueError(
                f"client {u.client_id} uploaded {u.weights.shape[0]} weights, "
                f"the global model has {global_weights.shape[0]}"
            )
    w0 = time.time()
    t0 = time.perf_counter()
    agg_updates, agg_factors, agg_anchors = updates, factors, anchors
    shares = members = None
    if n_edges is not None:
        # Edge FedAvg first; staleness factors and (delta-form) anchors
        # fold with the same sample weights, so an edge behaves like one
        # large client whose members trained together.
        agg_updates, agg_factors, agg_anchors, shares, members = fold_edges(
            updates, n_edges, factors=factors,
            anchors=anchors if delta_mix else None,
        )
    raw = strategy.impact_factors(agg_updates, index)
    alphas = np.asarray(raw, dtype=float)
    t1 = time.perf_counter()
    if factors is not None:
        alphas = alphas * agg_factors
    total = float(alphas.sum())
    new = global_weights
    verdicts = None
    # An async flush whose staleness decay zeroed every update skips the
    # step (normalizing a zero-mass vector would NaN the arena); the
    # window is still recorded.  A sync round always steps.
    if factors is None or total > 0:
        # FedAsync's adaptive alpha, generalized to buffers: server_mix
        # scaled with the window's average staleness factor.
        mix = 1.0 if factors is None else min(1.0, server_mix * total)
        if defense is None and not delta_mix:
            if factors is None:
                new = combine_updates(agg_updates, alphas)
            else:
                combined = combine_updates(agg_updates, alphas, normalize=True)
                new = (1.0 - mix) * global_weights + mix * combined
        else:
            # Deltas against the dispatch anchors in the delta form
            # (FedBuff: w <- w + eta * sum_i a_i (w_i - w_i^0)), against
            # the current global model otherwise — mixing toward
            # w + combined is the weight form's step, and robust rules
            # need deltas (translation equivariance, norm clipping).
            origin = np.stack(agg_anchors) if delta_mix else global_weights
            rows = np.stack([u.weights for u in agg_updates]) - origin
            if defense is None:
                combined = (alphas / total).astype(rows.dtype, copy=False) @ rows
            else:
                voices, voice_rows, voice_alphas = _one_vote_per_client(
                    agg_updates, rows, alphas
                )
                combined, verdicts = defense.combine(voice_rows, voice_alphas)
            new = global_weights + mix * combined
    t2 = time.perf_counter()
    strategy.on_round_end(agg_updates, index)

    if members is not None:
        # Effective per-client factors implied by (edge FedAvg) x (cloud
        # alphas): cloud weight times within-edge sample share.
        record = np.empty(len(updates))
        for e, positions in enumerate(members):
            for p in positions:
                record[p] = alphas[e] * shares[p]
        mass = record.sum()
        record = record / mass if mass > 0 else np.zeros(len(updates))
    elif factors is None:
        record = np.asarray(raw)
    elif total > 0:
        record = alphas / total
    else:
        record = np.zeros(len(updates))

    rejected: list[int] = []
    clipped: list[int] = []
    if verdicts is not None:
        rejected = _voice_ids(verdicts.rejected, voices, updates, members)
        clipped = _voice_ids(verdicts.clipped, voices, updates, members)
    return Window(new, record, rejected, clipped, (w0, t0, t1, t2))


def _one_vote_per_client(
    agg_updates: list[ClientUpdate], rows: np.ndarray, alphas: np.ndarray
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Coalesce each client's rows into one alpha-weighted voice.

    A fast client can land several updates in one async window, so
    row-wise robust statistics would let a 20%-malicious fleet occupy
    half a flush simply by responding quickly.  Each client's rows merge
    (alpha-weighted, its alpha mass summed) so every estimator sees one
    voice per participant; a client with one row keeps it unchanged.
    Returns the voices' client ids, rows and alphas.
    """
    grouped: dict[int, list[int]] = {}
    for pos, u in enumerate(agg_updates):
        grouped.setdefault(u.client_id, []).append(pos)
    voice_rows = []
    voice_alphas = []
    for positions in grouped.values():
        a = alphas[positions]
        mass = float(a.sum())
        if mass > 0:
            voice_rows.append((a / mass).astype(rows.dtype, copy=False) @ rows[positions])
        else:
            voice_rows.append(rows[positions].mean(axis=0))
        voice_alphas.append(mass)
    return list(grouped), np.stack(voice_rows), np.asarray(voice_alphas)


def _voice_ids(indices, voices, updates, members) -> list[int]:
    """Defense verdict indices → client ids.  Flat: a voice is one
    client.  Hier: a voice is an edge, standing for every update folded
    into it."""
    if members is None:
        return [voices[i] for i in indices]
    return [updates[p].client_id for i in indices for p in members[voices[i]]]


def count_window(metrics, record, attack=None, defense=None, wire=None) -> None:
    """The attack / defense / wire counters of one traced window."""
    if attack is not None:
        metrics.inc("sim.attack.malicious_aggregated", len(record.malicious_selected))
    if defense is not None:
        metrics.inc("sim.defense.updates_rejected", len(record.rejected_updates))
        metrics.inc("sim.defense.updates_clipped", len(record.clipped_updates))
    if wire is not None:
        metrics.inc("sim.wire.bytes_up", record.payload_bytes_up)
        metrics.inc("sim.wire.bytes_down", record.payload_bytes_down)
        metrics.set_gauge("sim.wire.compression_ratio", wire.stats.compression_ratio())
