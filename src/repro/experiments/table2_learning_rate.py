"""Table II — impact of the learning rate on AdvSGM link prediction (eps=6).

The paper sweeps eta_d = eta_g over {0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3}
on PPI, Facebook and Blog and finds 0.1 best.
"""

from __future__ import annotations

from typing import Dict

from repro.api import ExperimentSpec, Placement
from repro.experiments.config import ExperimentSettings
from repro.experiments.runners import (
    mean_and_std,
    run_spec,
    settings_model,
    spec_from_settings,
)

#: Learning rates swept in Table II.
LEARNING_RATES = (0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
#: Datasets reported in Table II.
TABLE2_DATASETS = ("ppi", "facebook", "blog")
#: Privacy budget used for the sweep.
EPSILON = 6.0


def spec(
    settings: ExperimentSettings,
    learning_rates=LEARNING_RATES,
    datasets=TABLE2_DATASETS,
) -> ExperimentSpec:
    """One AdvSGM column per swept learning rate (model grid over configs)."""
    models = [
        settings_model(
            "advsgm",
            settings,
            label=repr(float(lr)),
            learning_rate_d=lr,
            learning_rate_g=lr,
        )
        for lr in learning_rates
    ]
    return spec_from_settings(
        "link_prediction", datasets, models, settings, epsilons=(EPSILON,)
    )


def run(
    settings: ExperimentSettings | None = None,
    learning_rates=LEARNING_RATES,
    datasets=TABLE2_DATASETS,
    workers: int = 1,
    cache=None,
    resume: bool = True,
    force: bool = False,
    placement: Placement = Placement(),
) -> Dict[float, Dict[str, Dict[str, float]]]:
    """Return ``{learning_rate: {dataset: {"mean": auc, "std": std}}}``."""
    settings = settings or ExperimentSettings.quick()
    rows = run_spec(
        spec(settings, learning_rates, datasets),
        workers=workers, cache=cache, resume=resume, force=force,
        placement=placement,
    )
    results: Dict[float, Dict[str, Dict[str, float]]] = {}
    for lr in learning_rates:
        results[lr] = {}
        for dataset in datasets:
            aucs = [
                r["auc"]
                for r in rows
                if r["model"] == repr(float(lr)) and r["dataset"] == dataset
            ]
            mean, std = mean_and_std(aucs)
            results[lr][dataset] = {"mean": mean, "std": std}
    return results


def format_table(results: Dict[float, Dict[str, Dict[str, float]]]) -> str:
    """Render Table II as text."""
    datasets = list(next(iter(results.values())).keys())
    lines = ["Table II - AUC vs learning rate (epsilon = 6)"]
    lines.append(f"{'eta':<8}" + "".join(f"{d:>20}" for d in datasets))
    for lr, row in results.items():
        cells = "".join(
            f"{row[d]['mean']:>14.4f}±{row[d]['std']:.4f}" for d in datasets
        )
        lines.append(f"{lr:<8}" + cells)
    return "\n".join(lines)
