"""Parity oracle for the ``python -m repro`` surface.

Pins every long option the parser exposes (option strings, default,
choices, action class, nargs) and the exact ``ExperimentConfig`` that
``main()`` hands to ``run_experiment`` for representative argvs. Any
change to how the parser is built must leave this file passing as is.
"""

import pytest

import repro.__main__ as cli
from repro.__main__ import build_parser, main
from repro.harness.config import ExperimentConfig

# (option strings, default, choices, action class, nargs) per long option.
SURFACE = [
    (("--dataset",), "mnist", ("mnist", "fashion", "cifar100"), "_StoreAction", None),
    (("--partition",), "CE", ("IID", "PA", "CE", "CN", "EQUAL", "NONEQUAL"), "_StoreAction", None),
    (("--method",), "feddrl", ("fedavg", "fedprox", "feddrl", "singleset"), "_StoreAction", None),
    (("--scale",), "bench", ("bench", "ci", "paper"), "_StoreAction", None),
    (("--clients",), 10, None, "_StoreAction", None),
    (("--per-round",), 10, None, "_StoreAction", None),
    (("--rounds",), None, None, "_StoreAction", None),
    (("--delta",), 0.6, None, "_StoreAction", None),
    (("--seed",), 0, None, "_StoreAction", None),
    (("--pretrain",), 0, None, "_StoreAction", None),
    (("--backend",), "serial", ("serial", "thread", "process"), "_StoreAction", None),
    (("--workers",), None, None, "_StoreAction", None),
    (("--dtype",), "float64", ("float32", "float64"), "_StoreAction", None),
    (("--latency-model",), "none", ("none", "homogeneous", "uniform", "lognormal"), "_StoreAction", None),
    (("--straggler-fraction",), 0.0, None, "_StoreAction", None),
    (("--straggler-slowdown",), 8.0, None, "_StoreAction", None),
    (("--deadline",), None, None, "_StoreAction", None),
    (("--deadline-policy",), "wait", ("wait", "drop"), "_StoreAction", None),
    (("--codec",), "dense",
     ("dense", "topk", "qsgd", "qsgd4", "qsgd8", "topk+qsgd", "topk+qsgd4", "topk+qsgd8"),
     "_StoreAction", None),
    (("--topk-frac",), 0.01, None, "_StoreAction", None),
    (("--quant-bits",), 8, (4, 8), "_StoreAction", None),
    (("--error-feedback", "--no-error-feedback"), True, None, "BooleanOptionalAction", 0),
    (("--bandwidth-model",), "none", ("none", "homogeneous", "uniform", "lognormal"), "_StoreAction", None),
    (("--up-mbps",), 1.0, None, "_StoreAction", None),
    (("--down-mbps",), 10.0, None, "_StoreAction", None),
    (("--straggler-comm-slowdown",), None, None, "_StoreAction", None),
    (("--aggregation",), "sync", ("sync", "fedbuff", "fedasync"), "_StoreAction", None),
    (("--buffer-size",), 5, None, "_StoreAction", None),
    (("--max-concurrency",), None, None, "_StoreAction", None),
    (("--staleness",), "polynomial", ("constant", "polynomial", "hinge"), "_StoreAction", None),
    (("--server-mix",), None, None, "_StoreAction", None),
    (("--availability",), "always",
     ("always", "bernoulli", "markov", "sinusoidal", "label_skew"), "_StoreAction", None),
    (("--offline-fraction",), 0.2, None, "_StoreAction", None),
    (("--churn-rate",), 0.5, None, "_StoreAction", None),
    (("--dropout-prob",), 0.0, None, "_StoreAction", None),
    (("--completeness",), 1.0, None, "_StoreAction", None),
    (("--dispatch",), "random", ("random", "fairness"), "_StoreAction", None),
    (("--topology",), "flat", ("flat", "hier"), "_StoreAction", None),
    (("--edges",), 2, None, "_StoreAction", None),
    (("--fleet-mode",), "eager", ("eager", "lazy"), "_StoreAction", None),
    (("--attack",), "none",
     ("none", "label_flip", "backdoor", "sign_flip", "scale", "ipm"), "_StoreAction", None),
    (("--malicious-fraction",), 0.2, None, "_StoreAction", None),
    (("--attack-scale",), 1.0, None, "_StoreAction", None),
    (("--aggregator",), "mean",
     ("mean", "median", "trimmed_mean", "krum", "multikrum", "norm_clip"), "_StoreAction", None),
    (("--trace",), None, None, "_StoreAction", None),
    (("--metrics-interval",), 0.0, None, "_StoreAction", None),
    (("--fault-crash",), 0.0, None, "_StoreAction", None),
    (("--fault-exception",), 0.0, None, "_StoreAction", None),
    (("--fault-transient",), 0.0, None, "_StoreAction", None),
    (("--fault-hang",), 0.0, None, "_StoreAction", None),
    (("--fault-hang-s",), 0.05, None, "_StoreAction", None),
    (("--task-timeout",), None, None, "_StoreAction", None),
    (("--max-retries",), 3, None, "_StoreAction", None),
    (("--checkpoint",), None, None, "_StoreAction", None),
    (("--checkpoint-every",), 1, None, "_StoreAction", None),
    (("--resume",), None, None, "_StoreAction", None),
    (("--json",), False, None, "_StoreTrueAction", 0),
    (("--list",), False, None, "_StoreTrueAction", 0),
]


def _surface():
    rows = {}
    for action in build_parser()._actions:
        if "--help" in action.option_strings:
            continue
        choices = None if action.choices is None else tuple(action.choices)
        rows[tuple(action.option_strings)] = (
            action.default, choices, type(action).__name__, action.nargs,
        )
    return rows


class TestParserSurface:
    def test_long_options_match_table(self):
        assert _surface() == {opts: tuple(rest) for opts, *rest in SURFACE}

    def test_option_count(self):
        # 56 config flags plus --json and --list.
        assert len(SURFACE) == 58
        assert len(_surface()) == 58

    def test_defaults_keep_their_types(self):
        # 0.0 == 0 and True == 1, so compare types as well as values.
        surface = _surface()
        for opts, default, *_ in SURFACE:
            assert type(surface[opts][0]) is type(default), opts


# The every-flag argv: one async (fedbuff) fedprox cell that moves every
# flag off its default except --deadline/--deadline-policy (synchronous
# only) and --fleet-mode (lazy rejects attacks); the argvs below cover
# those.
EVERY_FLAG = [
    "--dataset", "fashion", "--partition", "CN", "--method", "fedprox",
    "--scale", "ci", "--clients", "12", "--per-round", "6", "--rounds", "3",
    "--delta", "0.4", "--seed", "7", "--pretrain", "2",
    "--backend", "thread", "--workers", "2", "--dtype", "float32",
    "--latency-model", "lognormal", "--straggler-fraction", "0.3",
    "--straggler-slowdown", "4", "--codec", "topk+qsgd", "--topk-frac", "0.05",
    "--quant-bits", "4", "--no-error-feedback", "--bandwidth-model", "uniform",
    "--up-mbps", "2", "--down-mbps", "20", "--straggler-comm-slowdown", "3",
    "--aggregation", "fedbuff", "--buffer-size", "4", "--max-concurrency", "8",
    "--staleness", "hinge", "--server-mix", "delta",
    "--availability", "markov", "--offline-fraction", "0.3",
    "--churn-rate", "0.7", "--dropout-prob", "0.1", "--completeness", "0.5",
    "--dispatch", "fairness", "--topology", "hier", "--edges", "3",
    "--attack", "sign_flip", "--malicious-fraction", "0.3",
    "--attack-scale", "2", "--aggregator", "median",
    "--trace", "run.trace.jsonl", "--metrics-interval", "5",
    "--fault-crash", "0.1", "--fault-exception", "0.05",
    "--fault-transient", "0.05", "--fault-hang", "0.05",
    "--fault-hang-s", "0.1", "--task-timeout", "30", "--max-retries", "5",
    "--checkpoint", "run.ckpt", "--checkpoint-every", "2",
    "--resume", "old.ckpt",
]

EVERY_FLAG_CONFIG = ExperimentConfig(
    dataset="fashion", partition="CN", method="fedprox", scale="ci",
    n_clients=12, clients_per_round=6, rounds=3, delta=0.4, seed=7,
    drl_pretrain_rounds=2, backend="thread", workers=2, dtype="float32",
    latency_model="lognormal", straggler_fraction=0.3, straggler_slowdown=4.0,
    codec="topk+qsgd", topk_frac=0.05, quant_bits=4, error_feedback=False,
    bandwidth_model="uniform", up_mbps=2.0, down_mbps=20.0,
    straggler_comm_slowdown=3.0, aggregation="fedbuff", buffer_size=4,
    max_concurrency=8, staleness="hinge", server_mix="delta",
    availability="markov", offline_fraction=0.3, churn_rate=0.7,
    dropout_prob=0.1, completeness=0.5, dispatch="fairness",
    topology="hier", n_edges=3, attack="sign_flip", malicious_fraction=0.3,
    attack_scale=2.0, aggregator="median", trace="run.trace.jsonl",
    metrics_interval=5.0, fault_crash_prob=0.1, fault_exception_prob=0.05,
    fault_transient_prob=0.05, fault_hang_prob=0.05, fault_hang_s=0.1,
    task_timeout_s=30.0, max_retries=5, checkpoint_path="run.ckpt",
    checkpoint_every=2, resume="old.ckpt",
)

CASES = {
    "no-args": ([], ExperimentConfig(method="feddrl", scale="bench")),
    "every-flag": (EVERY_FLAG, EVERY_FLAG_CONFIG),
    "sync-feddrl-lazy": (
        ["--method", "feddrl", "--fleet-mode", "lazy", "--latency-model",
         "uniform", "--deadline", "5", "--pretrain", "2", "--server-mix", "0.5"],
        ExperimentConfig(
            method="feddrl", scale="bench", fleet_mode="lazy",
            latency_model="uniform", deadline_s=5.0, drl_pretrain_rounds=2,
            server_mix=0.5,
        ),
    ),
    # feddrl rejects both --resume and --deadline-policy drop, so a
    # fedavg cell carries them.
    "sync-fedavg-drop-resume": (
        ["--method", "fedavg", "--fleet-mode", "lazy", "--latency-model",
         "homogeneous", "--deadline", "2.5", "--deadline-policy", "drop",
         "--resume", "old.ckpt"],
        ExperimentConfig(
            method="fedavg", scale="bench", fleet_mode="lazy",
            latency_model="homogeneous", deadline_s=2.5,
            deadline_policy="drop", resume="old.ckpt",
        ),
    ),
}


class _Captured(Exception):
    pass


@pytest.fixture
def captured_config(monkeypatch):
    seen = []

    def fake_run(cfg):
        seen.append(cfg)
        raise _Captured

    monkeypatch.setattr(cli, "run_experiment", fake_run)

    def run(argv):
        seen.clear()
        with pytest.raises(_Captured):
            main(argv)
        assert len(seen) == 1
        return seen[0]

    return run


class TestConfigFromArgv:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_main_builds_expected_config(self, captured_config, case):
        argv, expected = CASES[case]
        cfg = captured_config(argv)
        assert cfg == expected
        # repr distinguishes 4 from 4.0 and True from 1.
        assert repr(cfg) == repr(expected)

    def test_every_flag_argv_moves_every_config_flag(self):
        flags = {a for a in EVERY_FLAG if a.startswith("--")}
        flags |= {a for argv, _ in CASES.values() for a in argv
                  if a.startswith("--")}
        long_options = {o for opts, *_ in SURFACE for o in opts}
        missing = long_options - flags - {
            "--json", "--list", "--error-feedback",
        }
        assert not missing


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["--dataset", "imagenet"],
        ["--clients", "ten"],
        ["--server-mix", "half"],
        ["--quant-bits", "3"],
        ["--bogus"],
    ])
    def test_parse_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["--per-round", "11"],
        ["--delta", "0"],
        ["--deadline-policy", "drop"],
        ["--server-mix", "1.5"],
        ["--method", "fedavg", "--aggregation", "fedbuff"],
    ])
    def test_config_errors_return_2(self, argv, capsys):
        assert main(argv) == 2
        assert "python -m repro: error:" in capsys.readouterr().err
