"""Experiment harness: one module per table/figure of the paper.

Every module exposes ``run(settings) -> dict`` returning the table rows /
figure series, and ``format_table(results) -> str`` producing a text rendering
comparable to the paper.  ``ExperimentSettings.quick()`` gives a reduced
configuration (smaller graphs, fewer epochs) so the whole suite regenerates in
minutes on a laptop; ``ExperimentSettings.full()`` uses the paper's schedule.
"""

from repro.api import ExperimentCell, ExperimentSpec, ModelSpec
from repro.experiments.config import ExperimentSettings, DEFAULT_EPSILONS
from repro.experiments.runners import (
    MODEL_SETTINGS,
    evaluate_link_prediction,
    evaluate_node_clustering,
    nest_series,
    run_cell,
    run_spec,
    settings_model,
    settings_overrides,
    spec_from_settings,
    PRIVATE_MODEL_NAMES,
)
from repro.experiments import (
    fig2_weight_rationality,
    fig3_link_prediction,
    fig4_node_clustering,
    table2_learning_rate,
    table3_batch_size,
    table4_bound_b,
    table5_private_skipgram_comparison,
)

__all__ = [
    "ExperimentCell",
    "ExperimentSpec",
    "ModelSpec",
    "ExperimentSettings",
    "DEFAULT_EPSILONS",
    "MODEL_SETTINGS",
    "evaluate_link_prediction",
    "evaluate_node_clustering",
    "nest_series",
    "run_cell",
    "run_spec",
    "settings_model",
    "settings_overrides",
    "spec_from_settings",
    "PRIVATE_MODEL_NAMES",
    "fig2_weight_rationality",
    "fig3_link_prediction",
    "fig4_node_clustering",
    "table2_learning_rate",
    "table3_batch_size",
    "table4_bound_b",
    "table5_private_skipgram_comparison",
]
