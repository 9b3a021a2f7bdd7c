"""Tests for the experiment harness (plumbing, not utility numbers)."""

import pytest

from repro.experiments import (
    ExperimentSettings,
    fig2_weight_rationality,
    fig3_link_prediction,
    fig4_node_clustering,
    table2_learning_rate,
    table3_batch_size,
    table4_bound_b,
    table5_private_skipgram_comparison,
)
from repro.experiments.runners import (
    PRIVATE_MODEL_NAMES,
    load_experiment_graph,
    make_model,
    mean_and_std,
    settings_overrides,
)


@pytest.fixture(scope="module")
def smoke_settings():
    return ExperimentSettings.smoke()


class TestSettings:
    def test_presets_valid(self):
        for preset in (ExperimentSettings.quick(), ExperimentSettings.smoke(), ExperimentSettings.full()):
            assert preset.dp_batch_size > 0
            assert len(preset.epsilons) >= 1

    def test_invalid_settings(self):
        with pytest.raises(ValueError):
            ExperimentSettings(dataset_scale=0.0)
        with pytest.raises(ValueError):
            ExperimentSettings(epsilons=())
        with pytest.raises(ValueError):
            ExperimentSettings(test_fraction=1.5)


def build_from_settings(name, graph, settings, epsilon=None):
    """A model configured from ``settings`` the way every sweep cell is."""
    return make_model(
        name, epsilon=epsilon, graph=graph, rng=0,
        **settings_overrides(name, settings),
    )


class TestRunners:
    @pytest.mark.parametrize("name", PRIVATE_MODEL_NAMES + ("DP-SGM", "DP-ASGM"))
    def test_build_private_model(self, name, smoke_settings):
        graph = load_experiment_graph("ppi", smoke_settings)
        model = build_from_settings(name, graph, smoke_settings, epsilon=6.0)
        assert model.config.epsilon == 6.0
        assert hasattr(model, "fit")
        assert hasattr(model, "score_edges")

    def test_build_private_model_unknown(self, smoke_settings):
        graph = load_experiment_graph("ppi", smoke_settings)
        with pytest.raises(KeyError):
            build_from_settings("nope", graph, smoke_settings, epsilon=1.0)

    def test_build_nonprivate_model(self, smoke_settings):
        graph = load_experiment_graph("ppi", smoke_settings)
        for name in ("SGM(No DP)", "AdvSGM(No DP)"):
            model = build_from_settings(name, graph, smoke_settings)
            assert hasattr(model, "fit")
            # A budget for a non-private model is refused, not ignored.
            with pytest.raises(ValueError):
                build_from_settings(name, graph, smoke_settings, epsilon=1.0)
        with pytest.raises(KeyError):
            build_from_settings("nope", graph, smoke_settings)

    def test_mean_and_std(self):
        mean, std = mean_and_std([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(0.816496, rel=1e-4)
        with pytest.raises(ValueError):
            mean_and_std([])


class TestExperimentModules:
    def test_fig2_structure(self, smoke_settings):
        results = fig2_weight_rationality.run(smoke_settings)
        assert set(results) == set(fig2_weight_rationality.FIG2_DATASETS)
        for row in results.values():
            assert set(row) == set(fig2_weight_rationality.WEIGHT_SETTINGS)
            assert all(v >= 0 for v in row.values())
        assert "Fig. 2" in fig2_weight_rationality.format_table(results)

    def test_table2_structure(self, smoke_settings):
        results = table2_learning_rate.run(
            smoke_settings, learning_rates=(0.1, 0.2), datasets=("ppi",)
        )
        assert set(results) == {0.1, 0.2}
        assert set(results[0.1]) == {"ppi"}
        assert 0.0 <= results[0.1]["ppi"]["mean"] <= 1.0
        assert "Table II" in table2_learning_rate.format_table(results)

    def test_table3_structure(self, smoke_settings):
        results = table3_batch_size.run(
            smoke_settings, batch_sizes=(8, 16), datasets=("ppi",)
        )
        assert set(results) == {8, 16}
        assert "Table III" in table3_batch_size.format_table(results)

    def test_table4_structure(self, smoke_settings):
        results = table4_bound_b.run(smoke_settings, bounds=(40.0, 120.0), datasets=("ppi",))
        assert set(results) == {40.0, 120.0}
        assert "Table IV" in table4_bound_b.format_table(results)

    def test_table5_structure(self, smoke_settings):
        results = table5_private_skipgram_comparison.run(
            smoke_settings,
            epsilons=(6.0,),
            auc_datasets=("ppi",),
            mi_datasets=("ppi",),
        )
        assert "SGM(No DP)" in results
        assert "AdvSGM(No DP)" in results
        assert "AdvSGM(eps=6)" in results
        for row in results.values():
            assert "auc/ppi" in row
            assert "mi/ppi" in row
        assert "Table V" in table5_private_skipgram_comparison.format_table(results)

    def test_fig3_structure(self, smoke_settings):
        results = fig3_link_prediction.run(
            smoke_settings, datasets=("ppi",), models=("AdvSGM", "GAP"), epsilons=(1.0, 6.0)
        )
        assert set(results) == {"ppi"}
        assert set(results["ppi"]) == {"AdvSGM", "GAP"}
        assert set(results["ppi"]["AdvSGM"]) == {1.0, 6.0}
        assert "Fig. 3" in fig3_link_prediction.format_table(results)

    def test_fig4_structure(self, smoke_settings):
        results = fig4_node_clustering.run(
            smoke_settings, datasets=("ppi",), models=("DPAR",), epsilons=(6.0,)
        )
        assert set(results["ppi"]) == {"DPAR"}
        assert results["ppi"]["DPAR"][6.0] >= 0.0
        assert "Fig. 4" in fig4_node_clustering.format_table(results)
