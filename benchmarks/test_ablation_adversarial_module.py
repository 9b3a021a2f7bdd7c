"""Ablation: the adversarial training module's contribution without privacy.

Table V's first observation is that AdvSGM (No DP) improves on SGM (No DP).
This ablation isolates that claim on one dataset with a matched schedule.
"""

from conftest import run_once

from repro.evals.link_prediction import LinkPredictionTask
from repro.experiments.runners import load_experiment_graph, make_model, settings_overrides


def _compare_nonprivate(settings):
    graph = load_experiment_graph("ppi", settings)
    task = LinkPredictionTask(graph, test_fraction=settings.test_fraction, rng=settings.seed)
    results = {}
    for name in ("SGM(No DP)", "AdvSGM(No DP)"):
        model = make_model(
            name, graph=task.train_graph, rng=settings.seed,
            **settings_overrides(name, settings),
        )
        model.fit()
        results[name] = task.evaluate(model.score_edges).auc
    return results


def test_ablation_adversarial_module(benchmark, bench_settings):
    results = run_once(benchmark, _compare_nonprivate, bench_settings)
    print(f"\nnon-private AUC on ppi: {results}")
    # Both models must clearly beat random; the adversarial variant should be
    # competitive with the plain skip-gram (the paper reports it winning).
    assert results["SGM(No DP)"] > 0.55
    assert results["AdvSGM(No DP)"] > 0.55
