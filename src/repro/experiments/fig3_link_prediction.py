"""Fig. 3 — link-prediction AUC vs privacy budget for all private methods.

Five methods (DPGGAN, DPGVAE, GAP, DPAR, AdvSGM) across six datasets and six
budgets.  The qualitative claim to reproduce: AdvSGM dominates the other
private methods and its AUC grows with epsilon, while the baselines stay flat
near 0.5.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.api import ExperimentSpec, Placement
from repro.experiments.config import ExperimentSettings
from repro.experiments.runners import (
    PRIVATE_MODEL_NAMES,
    nest_series,
    run_spec,
    spec_from_settings,
)

#: Datasets shown in Fig. 3 (panels a-f).
FIG3_DATASETS = ("ppi", "facebook", "wiki", "blog", "epinions", "dblp")


def spec(
    settings: ExperimentSettings | None = None,
    datasets: Iterable[str] = FIG3_DATASETS,
    models: Iterable[str] = PRIVATE_MODEL_NAMES,
    epsilons: Iterable[float] | None = None,
) -> ExperimentSpec:
    """The declarative (dataset x model x epsilon) grid behind Fig. 3."""
    settings = settings or ExperimentSettings.quick()
    return spec_from_settings(
        "link_prediction", datasets, models, settings, epsilons=epsilons, repeats=1
    )


def run(
    settings: ExperimentSettings | None = None,
    datasets: Iterable[str] = FIG3_DATASETS,
    models: Iterable[str] = PRIVATE_MODEL_NAMES,
    epsilons: Iterable[float] | None = None,
    workers: int = 1,
    cache=None,
    resume: bool = True,
    force: bool = False,
    placement: Placement = Placement(),
) -> Dict[str, Dict[str, Dict[float, float]]]:
    """Return ``{dataset: {model: {epsilon: auc}}}``.

    ``cache``/``resume``/``force``/``placement`` behave as in
    :func:`repro.experiments.runners.run_spec`: completed cells are loaded
    from the result store instead of recomputed.
    """
    results = run_spec(
        spec(settings, datasets, models, epsilons),
        workers=workers, cache=cache, resume=resume, force=force,
        placement=placement,
    )
    return nest_series(results, "auc")


def format_table(results: Dict[str, Dict[str, Dict[float, float]]]) -> str:
    """Render the Fig. 3 series as one text block per dataset panel."""
    lines = ["Fig. 3 - link-prediction AUC vs epsilon"]
    for dataset, methods in results.items():
        lines.append(f"\n[{dataset}]")
        epsilons = sorted(next(iter(methods.values())).keys())
        lines.append(f"{'model':<10}" + "".join(f"{e:>10.1f}" for e in epsilons))
        for model, series in methods.items():
            lines.append(
                f"{model:<10}" + "".join(f"{series[e]:>10.4f}" for e in epsilons)
            )
    return "\n".join(lines)
