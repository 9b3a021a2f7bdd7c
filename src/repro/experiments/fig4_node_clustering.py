"""Fig. 4 — node-clustering mutual information vs privacy budget.

Same five private methods as Fig. 3, evaluated by Affinity Propagation
clustering MI on the three labelled datasets (PPI, Wiki, Blog).  The claim to
reproduce: AdvSGM attains the highest MI among private methods at every
budget.
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

#: Labelled datasets shown in Fig. 4 (panels a-c).
FIG4_DATASETS = ("ppi", "wiki", "blog")


def spec(
    settings: ExperimentSettings | None = None,
    datasets: Iterable[str] = FIG4_DATASETS,
    models: Iterable[str] = PRIVATE_MODEL_NAMES,
    epsilons: Iterable[float] | None = None,
) -> ExperimentSpec:
    """The declarative (dataset x model x epsilon) grid behind Fig. 4."""
    settings = settings or ExperimentSettings.quick()
    return spec_from_settings(
        "node_clustering", datasets, models, settings, epsilons=epsilons, repeats=1
    )


def run(
    settings: ExperimentSettings | None = None,
    datasets: Iterable[str] = FIG4_DATASETS,
    models: Iterable[str] = PRIVATE_MODEL_NAMES,
    epsilons: Iterable[float] | None = None,
    workers: int = 1,
    cache=None,
    resume: bool = True,
    force: bool = False,
    placement: Placement = Placement(),
) -> Dict[str, Dict[str, Dict[float, float]]]:
    """Return ``{dataset: {model: {epsilon: mi}}}``.

    ``cache``/``resume``/``force``/``placement`` behave as in
    :func:`repro.experiments.runners.run_spec`.
    """
    results = run_spec(
        spec(settings, datasets, models, epsilons),
        workers=workers, cache=cache, resume=resume, force=force,
        placement=placement,
    )
    return nest_series(results, "mi")


def format_table(results: Dict[str, Dict[str, Dict[float, float]]]) -> str:
    """Render the Fig. 4 series as one text block per dataset panel."""
    lines = ["Fig. 4 - node-clustering MI vs epsilon"]
    for dataset, methods in results.items():
        lines.append(f"\n[{dataset}]")
        epsilons = sorted(next(iter(methods.values())).keys())
        lines.append(f"{'model':<10}" + "".join(f"{e:>10.1f}" for e in epsilons))
        for model, series in methods.items():
            lines.append(
                f"{model:<10}" + "".join(f"{series[e]:>10.4f}" for e in epsilons)
            )
    return "\n".join(lines)
