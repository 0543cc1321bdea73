"""The seven-level correlation heat map (Fig 3-f).

The paper: "We divide the correlation of entities and semantic features
into seven levels, and visualize them with a heat-map".  This module turns
the raw :class:`~repro.ranking.CorrelationMatrix` into a discrete heat map:
every cell is assigned a level in ``0 .. levels-1`` (darker = stronger
correlation), using one of three bucketing scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import HeatmapConfig
from ..exceptions import VisualizationError
from ..ranking import CorrelationMatrix


@dataclass(frozen=True)
class Heatmap:
    """A discretised correlation heat map."""

    entities: tuple[str, ...]
    feature_notations: tuple[str, ...]
    levels: np.ndarray
    num_levels: int
    thresholds: tuple[float, ...]

    def __post_init__(self) -> None:
        expected = (len(self.entities), len(self.feature_notations))
        if self.levels.shape != expected:
            raise VisualizationError(
                f"heat map shape {self.levels.shape} does not match "
                f"{len(self.entities)} x {len(self.feature_notations)}"
            )

    def level(self, entity_id: str, feature_notation: str) -> int:
        """Level of one cell (0 = weakest, ``num_levels - 1`` = strongest)."""
        row = self.entities.index(entity_id)
        column = self.feature_notations.index(feature_notation)
        return int(self.levels[row, column])

    def level_counts(self) -> dict[int, int]:
        """How many cells fall into each level."""
        values, counts = np.unique(self.levels, return_counts=True)
        result = {int(level): 0 for level in range(self.num_levels)}
        result.update({int(v): int(c) for v, c in zip(values, counts)})
        return result

    def strongest_cells(self, k: int = 10) -> list[tuple[str, str, int]]:
        """The ``k`` darkest cells as (entity, feature, level)."""
        cells: list[tuple[str, str, int]] = []
        for row, entity in enumerate(self.entities):
            for column, feature in enumerate(self.feature_notations):
                cells.append((entity, feature, int(self.levels[row, column])))
        cells.sort(key=lambda cell: (-cell[2], cell[0], cell[1]))
        return cells[:k]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.entities), len(self.feature_notations))


def _linear_thresholds(values: np.ndarray, levels: int) -> np.ndarray:
    low, high = float(values.min()), float(values.max())
    if high <= low:
        return np.full(levels - 1, high)
    return np.linspace(low, high, levels + 1)[1:-1]


def _log_thresholds(values: np.ndarray, levels: int) -> np.ndarray:
    positive = values[values > 0]
    if positive.size == 0:
        return np.zeros(levels - 1)
    low = float(np.log10(positive.min()))
    high = float(np.log10(positive.max()))
    if high <= low:
        return np.full(levels - 1, positive.max())
    return np.power(10.0, np.linspace(low, high, levels + 1)[1:-1])


def sorted_quantiles(ordered: np.ndarray, quantiles: np.ndarray) -> np.ndarray:
    """``np.quantile`` of the ascending, non-empty ``ordered`` at ``quantiles`` in ``[0, 1]``.

    numpy's default (``linear``) method step for step — the virtual
    index ``(n - 1) · q``, its neighbours (the last value past the end)
    and the two-sided lerp — so the result is the same bits, without
    the selection and ``np.unique`` whose first call imports
    ``numpy.ma`` (about 10 ms).
    """
    last = ordered.size - 1
    virtual = last * quantiles
    lower = np.floor(virtual).astype(np.intp)
    upper = lower + 1
    lower[virtual >= last] = upper[virtual >= last] = -1
    gamma = virtual - lower
    below, above = ordered[lower], ordered[upper]
    difference = above - below
    result = below + difference * gamma
    np.subtract(above, difference * (1 - gamma), out=result, where=gamma >= 0.5)
    return result


def sorted_median(ordered: np.ndarray) -> float:
    """``np.median`` of the ascending, non-empty ``ordered``: its middle
    value, or the mean of its two middle values."""
    middle = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[middle])
    return float((ordered[middle - 1] + ordered[middle]) / 2)


def _quantile_thresholds(values: np.ndarray, levels: int) -> np.ndarray:
    positive = np.sort(values[values > 0])
    if positive.size == 0:
        return np.zeros(levels - 1)
    if levels <= 2:
        return np.array([sorted_median(positive)])
    # levels buckets over the positive values need levels - 1 internal cuts.
    quantiles = np.linspace(0.0, 1.0, levels + 1)[1:-1]
    return sorted_quantiles(positive, quantiles)


def build_heatmap(matrix: CorrelationMatrix, config: HeatmapConfig | None = None) -> Heatmap:
    """Discretise a correlation matrix into a heat map.

    Zero correlations always map to level 0; positive correlations are
    bucketed into levels ``1 .. levels-1`` by the configured scale, so with
    the default seven levels there are six "shades" of positive correlation
    plus white.
    """
    config = config or HeatmapConfig()
    values = matrix.values
    if values.size == 0:
        return Heatmap(
            entities=matrix.entities,
            feature_notations=tuple(f.notation() for f in matrix.features),
            levels=np.zeros(values.shape, dtype=int),
            num_levels=config.levels,
            thresholds=(),
        )

    positive_levels = config.levels - 1
    if config.scale == "linear":
        thresholds = _linear_thresholds(values[values > 0] if (values > 0).any() else values, positive_levels)
    elif config.scale == "log":
        thresholds = _log_thresholds(values, positive_levels)
    else:
        thresholds = _quantile_thresholds(values, positive_levels)
    thresholds = np.asarray(thresholds, dtype=float)

    # Level 1 + number of thresholds the value exceeds, capped; zero (and
    # below) is always level 0.
    levels = np.where(
        values <= 0.0,
        0,
        np.minimum(1 + np.searchsorted(thresholds, values, side="right"), config.levels - 1),
    )

    return Heatmap(
        entities=matrix.entities,
        feature_notations=tuple(f.notation() for f in matrix.features),
        levels=levels,
        num_levels=config.levels,
        thresholds=tuple(float(t) for t in thresholds),
    )
