"""Table IV — impact of the constrained-sigmoid upper bound b (eps=6).

The paper sweeps b over {40, 60, 80, 100, 120, 140} with a = 1e-5 and finds
utility improving with b, choosing 120 as the default.
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

#: Upper bounds swept in Table IV.
BOUNDS = (40.0, 60.0, 80.0, 100.0, 120.0, 140.0)
#: Datasets reported in Table IV.
TABLE4_DATASETS = ("ppi", "facebook", "blog")
#: Privacy budget used for the sweep.
EPSILON = 6.0


def spec(
    settings: ExperimentSettings,
    bounds=BOUNDS,
    datasets=TABLE4_DATASETS,
) -> ExperimentSpec:
    """One AdvSGM column per swept constrained-sigmoid bound."""
    models = [
        settings_model(
            "advsgm", settings, label=repr(float(b)), sigmoid_b=float(b)
        )
        for b in bounds
    ]
    return spec_from_settings(
        "link_prediction", datasets, models, settings, epsilons=(EPSILON,)
    )


def run(
    settings: ExperimentSettings | None = None,
    bounds=BOUNDS,
    datasets=TABLE4_DATASETS,
    workers: int = 1,
    cache=None,
    resume: bool = True,
    force: bool = False,
    placement: Placement = Placement(),
) -> Dict[float, Dict[str, Dict[str, float]]]:
    """Return ``{b: {dataset: {"mean": auc, "std": std}}}``."""
    settings = settings or ExperimentSettings.quick()
    rows = run_spec(
        spec(settings, bounds, datasets),
        workers=workers, cache=cache, resume=resume, force=force,
        placement=placement,
    )
    results: Dict[float, Dict[str, Dict[str, float]]] = {}
    for bound in bounds:
        results[bound] = {}
        for dataset in datasets:
            aucs = [
                r["auc"]
                for r in rows
                if r["model"] == repr(float(bound)) and r["dataset"] == dataset
            ]
            mean, std = mean_and_std(aucs)
            results[bound][dataset] = {"mean": mean, "std": std}
    return results


def format_table(results: Dict[float, Dict[str, Dict[str, float]]]) -> str:
    """Render Table IV as text."""
    datasets = list(next(iter(results.values())).keys())
    lines = ["Table IV - AUC vs constrained-sigmoid bound b (epsilon = 6)"]
    lines.append(f"{'b':<8}" + "".join(f"{d:>20}" for d in datasets))
    for bound, row in results.items():
        cells = "".join(
            f"{row[d]['mean']:>14.4f}±{row[d]['std']:.4f}" for d in datasets
        )
        lines.append(f"{bound:<8}" + cells)
    return "\n".join(lines)
