"""Table V — comparison between private skip-gram models.

The paper reports link-prediction AUC (PPI, Facebook, Blog) and clustering MI
(PPI, Blog) for SGM(No DP), AdvSGM(No DP), DP-SGM, DP-ASGM and AdvSGM at
epsilon in {1..6}.  The key qualitative findings to reproduce:

* AdvSGM(No DP) beats SGM(No DP) (the adversarial module helps utility);
* AdvSGM beats DP-SGM and DP-ASGM at every budget;
* AdvSGM improves as epsilon grows, approaching the non-private models.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.api import Placement
from repro.experiments.config import ExperimentSettings
from repro.experiments.runners import run_spec, spec_from_settings

#: Datasets used for the AUC columns of Table V.
AUC_DATASETS = ("ppi", "facebook", "blog")
#: Datasets used for the MI columns of Table V.
MI_DATASETS = ("ppi", "blog")
#: Private skip-gram variants compared.
PRIVATE_VARIANTS = ("DP-SGM", "DP-ASGM", "AdvSGM")
#: Non-private reference rows.
NONPRIVATE_VARIANTS = ("SGM(No DP)", "AdvSGM(No DP)")


def run(
    settings: ExperimentSettings | None = None,
    epsilons: Iterable[float] | None = None,
    auc_datasets=AUC_DATASETS,
    mi_datasets=MI_DATASETS,
    workers: int = 1,
    cache=None,
    resume: bool = True,
    force: bool = False,
    placement: Placement = Placement(),
) -> Dict[str, Dict[str, float]]:
    """Return ``{row_label: {"auc/<ds>": value, "mi/<ds>": value}}``.

    Row labels follow the paper: ``"SGM(No DP)"``, ``"AdvSGM(No DP)"`` and
    ``"<model>(eps=<e>)"`` for the private variants.  Internally the table is
    four declarative specs (AUC/MI x non-private/private) whose result rows
    are folded back into the paper's row layout.
    """
    settings = settings or ExperimentSettings.quick()
    epsilons = tuple(epsilons) if epsilons is not None else settings.epsilons

    # (task, datasets, variants, epsilons); empty dataset tuples drop the
    # corresponding columns instead of building an invalid spec.
    grids = [
        ("link_prediction", auc_datasets, NONPRIVATE_VARIANTS, (None,)),
        ("node_clustering", mi_datasets, NONPRIVATE_VARIANTS, (None,)),
        ("link_prediction", auc_datasets, PRIVATE_VARIANTS, epsilons),
        ("node_clustering", mi_datasets, PRIVATE_VARIANTS, epsilons),
    ]
    specs = [
        spec_from_settings(task, datasets, variants, settings,
                           epsilons=eps, repeats=1)
        for task, datasets, variants, eps in grids
        if datasets
    ]
    cells: List[Dict[str, float]] = []
    for spec in specs:
        cells.extend(
            run_spec(spec, workers=workers, cache=cache, resume=resume,
                     force=force, placement=placement)
        )

    def row_label(cell: Dict[str, float]) -> str:
        if cell["epsilon"] is None:
            return cell["model"]
        return f"{cell['model']}(eps={cell['epsilon']:g})"

    rows: Dict[str, Dict[str, float]] = {}
    # Establish the paper's row order first, then fill values.
    for variant in NONPRIVATE_VARIANTS:
        rows[variant] = {}
    for epsilon in epsilons:
        for variant in PRIVATE_VARIANTS:
            rows[f"{variant}(eps={epsilon:g})"] = {}
    for cell in cells:
        column = "auc" if cell["task"] == "link_prediction" else "mi"
        rows[row_label(cell)][f"{column}/{cell['dataset']}"] = cell[column]
    return rows


def format_table(results: Dict[str, Dict[str, float]]) -> str:
    """Render Table V as text."""
    columns: List[str] = sorted({key for row in results.values() for key in row})
    lines = ["Table V - AUC / MI of private skip-gram variants"]
    lines.append(f"{'model':<22}" + "".join(f"{c:>16}" for c in columns))
    for label, row in results.items():
        cells = "".join(
            f"{row.get(c, float('nan')):>16.4f}" for c in columns
        )
        lines.append(f"{label:<22}" + cells)
    return "\n".join(lines)
