"""The repository's benchmark: FL workloads driven through the public
``ExperimentConfig -> build_simulation -> run_round/run`` entry point.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``perfbench/README.md``.
"""
