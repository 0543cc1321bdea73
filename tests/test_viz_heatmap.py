"""Tests for repro.viz.heatmap: the seven-level heat map."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HeatmapConfig
from repro.explore import RecommendationEngine
from repro.features import SemanticFeature
from repro.kg import KnowledgeGraph
from repro.ranking.correlation import CorrelationMatrix
from repro.viz import build_heatmap
from repro.viz.heatmap import sorted_median, sorted_quantiles


def make_matrix(values: np.ndarray) -> CorrelationMatrix:
    entities = tuple(f"e{i}" for i in range(values.shape[0]))
    features = tuple(SemanticFeature(f"a{j}", "p") for j in range(values.shape[1]))
    return CorrelationMatrix(entities=entities, features=features, values=values)


class TestBuildHeatmap:
    def test_seven_levels_by_default(self):
        values = np.linspace(0.0, 1.0, 21).reshape(3, 7)
        heatmap = build_heatmap(make_matrix(values))
        assert heatmap.num_levels == 7
        assert heatmap.levels.max() <= 6
        assert heatmap.levels.min() >= 0

    def test_zero_cells_get_level_zero(self):
        values = np.array([[0.0, 0.5], [1.0, 0.0]])
        heatmap = build_heatmap(make_matrix(values))
        assert heatmap.level("e0", "a0:p") == 0
        assert heatmap.level("e1", "a1:p") == 0

    def test_monotonic_with_correlation(self):
        values = np.array([[0.1, 0.5, 0.9]])
        heatmap = build_heatmap(make_matrix(values), HeatmapConfig(scale="linear"))
        levels = [heatmap.level("e0", f"a{j}:p") for j in range(3)]
        assert levels == sorted(levels)

    def test_strongest_value_gets_highest_level(self):
        values = np.linspace(0.01, 1.0, 70).reshape(7, 10)
        heatmap = build_heatmap(make_matrix(values), HeatmapConfig(scale="quantile"))
        assert heatmap.levels.max() == 6

    def test_constant_positive_matrix(self):
        values = np.full((2, 3), 0.5)
        heatmap = build_heatmap(make_matrix(values))
        # All equal positive values share one positive level; no crash.
        unique_levels = set(np.unique(heatmap.levels))
        assert len(unique_levels) == 1
        assert unique_levels != {0}

    def test_all_zero_matrix(self):
        values = np.zeros((2, 2))
        heatmap = build_heatmap(make_matrix(values))
        assert heatmap.levels.max() == 0

    def test_empty_matrix(self):
        values = np.zeros((0, 0))
        heatmap = build_heatmap(make_matrix(values))
        assert heatmap.shape == (0, 0)

    def test_linear_and_log_scales(self):
        values = np.array([[0.001, 0.01, 0.1, 1.0]])
        linear = build_heatmap(make_matrix(values), HeatmapConfig(scale="linear"))
        log = build_heatmap(make_matrix(values), HeatmapConfig(scale="log"))
        # The log scale spreads small values over more levels than linear.
        linear_levels = [linear.level("e0", f"a{j}:p") for j in range(4)]
        log_levels = [log.level("e0", f"a{j}:p") for j in range(4)]
        assert len(set(log_levels)) >= len(set(linear_levels))

    def test_custom_level_count(self):
        values = np.linspace(0.01, 1.0, 30).reshape(3, 10)
        heatmap = build_heatmap(make_matrix(values), HeatmapConfig(levels=4))
        assert heatmap.num_levels == 4
        assert heatmap.levels.max() <= 3

    def test_level_counts_sum_to_cells(self):
        values = np.random.default_rng(0).random((5, 6))
        heatmap = build_heatmap(make_matrix(values))
        assert sum(heatmap.level_counts().values()) == 30

    def test_strongest_cells_sorted(self):
        values = np.array([[0.1, 0.9], [0.5, 0.2]])
        heatmap = build_heatmap(make_matrix(values))
        cells = heatmap.strongest_cells(4)
        levels = [level for _, _, level in cells]
        assert levels == sorted(levels, reverse=True)


class TestHeatmapOnRealRecommendation:
    def test_heatmap_from_tiny_recommendation(self, tiny_kg: KnowledgeGraph):
        engine = RecommendationEngine(tiny_kg)
        recommendation = engine.recommend_for_seeds(["ex:F1", "ex:F2"])
        heatmap = build_heatmap(recommendation.correlations)
        assert heatmap.shape == recommendation.correlations.shape
        # Cells for features the entity actually holds are the darkest.
        strongest = heatmap.strongest_cells(1)[0]
        assert strongest[2] >= heatmap.num_levels - 2


class TestQuantileThresholds:
    """The ``quantile`` scale's cuts are numpy's, bit for bit."""

    #: Values with ties (a coarse grid), single values and all-equal runs.
    values = st.one_of(
        st.lists(st.sampled_from([0.0, 0.125, 0.3, 0.5, 1.0 / 3.0, 0.75, 1.0]), min_size=1),
        st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=1, max_size=60),
        st.builds(lambda value, count: [value] * count,
                  st.floats(min_value=1e-9, max_value=1.0), st.integers(1, 20)),
    )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(values, st.integers(min_value=2, max_value=12))
    def test_equal_to_numpy_bitwise(self, values, levels):
        array = np.asarray(values, dtype=np.float64)
        quantiles = np.linspace(0.0, 1.0, levels + 1)[1:-1]
        ordered = np.sort(array)
        assert sorted_quantiles(ordered, quantiles).tobytes() == (
            np.quantile(array, quantiles).tobytes()
        )
        assert np.float64(sorted_median(ordered)).tobytes() == np.median(array).tobytes()

    @pytest.mark.parametrize("levels", [2, 3, 7])
    def test_heatmap_thresholds_are_numpys(self, levels):
        values = np.round(np.random.default_rng(levels).random((6, 9)), 1)
        heatmap = build_heatmap(
            make_matrix(values), HeatmapConfig(scale="quantile", levels=levels)
        )
        positive = values[values > 0]
        if levels - 1 <= 2:
            expected = [float(np.median(positive))]
        else:
            expected = np.quantile(positive, np.linspace(0.0, 1.0, levels)[1:-1]).tolist()
        assert heatmap.thresholds == tuple(expected)


_FIRST_SELECT = """
import sys
from repro.datasets import small_movie_kg
from repro.engine import PivotE, PivotEApi
directory = sys.argv[1]
if sys.argv[2] == "save":
    with PivotE(small_movie_kg()) as system:
        system.save(directory)
    raise SystemExit(0)
origin, _, write = sys.argv[2].partition("+")
system = PivotE(small_movie_kg()) if origin == "build" else PivotE.load(directory)
api = PivotEApi(system)
entity = api.handle({"action": "search", "keywords": "forrest gump"})["hits"][0]["entity"]
if write:
    system.graph.add_label("ex:written", "written film")
    system.graph.add_type("ex:written", "dbo:Film")
    system.graph.add("ex:written", "dbo:starring", "dbr:Tom_Hanks")
    system.search_engine.add_entity("ex:written")
    entity = "ex:written"
api.handle({"action": "start_session", "session_id": "s"})
response = api.handle({"action": "select_entity", "session_id": "s", "entity": entity})
assert response["status"] == "ok" and response["matrix"]["heatmap"], response
print("numpy.ma" in sys.modules)
"""


def test_the_first_select_in_a_fresh_process_leaves_numpy_ma_unimported(tmp_path):
    """The heat map's quantiles used to import ``numpy.ma`` (via ``np.unique``),
    and so did the feature tables derived after a write (via ``np.union1d``)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    directory = str(tmp_path / "system")

    def run(mode: str) -> str:
        return subprocess.run(
            [sys.executable, "-c", _FIRST_SELECT, directory, mode],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()

    run("save")
    for mode in ("build", "load", "build+write", "load+write"):
        assert run(mode) == "False", mode
