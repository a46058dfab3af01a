"""Experiment harness: one module per paper table/figure.

Every module exposes ``run() -> ExperimentResult`` whose rows mirror the
series the paper plots.  ``python -m repro.experiments <name>`` prints one
experiment; ``python -m repro.experiments all`` prints everything.  Each
module's docstring and ``paper_reference`` name the figure, table or
section it reproduces.
"""

from repro.experiments.runner import ExperimentResult, REGISTRY, get_experiment, run_all

__all__ = ["ExperimentResult", "REGISTRY", "get_experiment", "run_all"]
