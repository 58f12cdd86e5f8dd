"""Ablations of FedDRL's design choices (run by ``benchmarks/test_ablations.py``).

The paper motivates four design decisions without isolating them:
TD-prioritised replay (Algorithm 1), the two-stage training strategy
(Section 3.4.2), the fairness term in the reward (eq. 7), and the sigma
constraint coefficient beta (eq. 6).  Each ablation here runs FedDRL with
the choice toggled/swept, holding everything else fixed.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.drl.agent import DDPGAgent, DRLConfig
from repro.drl.env import QuadraticBanditEnv
from repro.drl.two_stage import TwoStageTrainer, run_worker
from repro.harness.config import ExperimentConfig
from repro.harness.runner import run_experiment


def ablation_replay_strategy(
    dataset: str = "mnist",
    partition: str = "CE",
    scale: str = "bench",
    n_clients: int = 10,
    seed: int = 0,
    **overrides,
) -> dict[str, float]:
    """TD-prioritised vs uniform replay sampling."""
    out = {}
    for name, prioritized in (("td_prioritized", True), ("uniform", False)):
        cfg = ExperimentConfig(
            dataset=dataset, partition=partition, method="feddrl",
            n_clients=n_clients, clients_per_round=min(10, n_clients),
            scale=scale, seed=seed, drl_prioritized=prioritized, **overrides,
        )
        out[name] = run_experiment(cfg).best_accuracy
    return out


def ablation_fairness_weight(
    weights: Sequence[float] = (0.0, 0.5, 1.0),
    dataset: str = "mnist",
    partition: str = "CE",
    scale: str = "bench",
    n_clients: int = 10,
    seed: int = 0,
    **overrides,
) -> dict[float, dict[str, float]]:
    """Reward with/without the max-min fairness gap (eq. 7 second term).

    Reports both accuracy and the final variance of client losses, since
    the gap term exists to reduce exactly that variance.
    """
    out: dict[float, dict[str, float]] = {}
    for w in weights:
        cfg = ExperimentConfig(
            dataset=dataset, partition=partition, method="feddrl",
            n_clients=n_clients, clients_per_round=min(10, n_clients),
            scale=scale, seed=seed, fairness_weight=w, **overrides,
        )
        result = run_experiment(cfg)
        var_series = result.history.loss_var_series()
        tail = var_series[max(0, len(var_series) - 5):]
        out[w] = {
            "best_accuracy": result.best_accuracy,
            "final_loss_variance": float(np.mean(tail)),
        }
    return out


def ablation_sigma_beta(
    betas: Sequence[float] = (0.1, 0.5, 0.9),
    dataset: str = "mnist",
    partition: str = "CE",
    scale: str = "bench",
    n_clients: int = 10,
    seed: int = 0,
    **overrides,
) -> dict[float, float]:
    """Sweep the eq.-(6) constraint coefficient beta."""
    out = {}
    for beta in betas:
        cfg = ExperimentConfig(
            dataset=dataset, partition=partition, method="feddrl",
            n_clients=n_clients, clients_per_round=min(10, n_clients),
            scale=scale, seed=seed, drl_beta=beta, **overrides,
        )
        out[beta] = run_experiment(cfg).best_accuracy
    return out


def ablation_two_stage(
    n_clients: int = 8,
    rounds_per_worker: int = 60,
    offline_updates: int = 200,
    eval_rounds: int = 40,
    n_workers: int = 2,
    seed: int = 0,
) -> dict[str, float]:
    """Two-stage vs basic training, on the cheap synthetic control environment.

    Compares the average evaluation-time reward of (a) an agent trained
    online only (Algorithm 1 basic training) and (b) a main agent trained
    offline on the merged experience of ``n_workers`` online workers
    (Section 3.4.2).  Uses :class:`QuadraticBanditEnv`, whose optimum is
    known, so the comparison is fast and unconfounded by FL noise.
    """
    config = DRLConfig(min_buffer=16, batch_size=16)

    def env_factory(worker_id: int) -> QuadraticBanditEnv:
        # All workers (and evaluation) share one target so experience pools.
        return QuadraticBanditEnv(n_clients, seed=seed)

    # (a) basic: single online agent.
    basic_env = env_factory(0)
    basic_agent = DDPGAgent(
        basic_env.state_dim, basic_env.n_clients, config,
        rng=np.random.default_rng(seed),
    )
    run_worker(basic_env, basic_agent, rounds_per_worker)

    # (b) two-stage main agent.
    trainer = TwoStageTrainer(env_factory, config, n_workers=n_workers, seed=seed)
    main_agent = trainer.train(rounds_per_worker, offline_updates)

    def evaluate(agent: DDPGAgent) -> float:
        env = env_factory(0)
        state = env.reset()
        rewards = []
        for _ in range(eval_rounds):
            action = agent.act(state, explore=False)
            state, reward, _ = env.step(action)
            rewards.append(reward)
        return float(np.mean(rewards))

    return {
        "basic_reward": evaluate(basic_agent),
        "two_stage_reward": evaluate(main_agent),
        "merged_buffer_size": float(len(trainer.merged_buffer)),
    }
