"""The columnar (structure-of-arrays) reads of one index epoch.

A search stays in ordinal space: ordinals are assigned in sorted-doc-id
order, so **ordinal order is exactly the ``doc_id`` tie-break order** of
the ranking contract (``(-score, doc_id)``), and vectorized selections
can break ties on the ordinal.  The epoch answers the reads itself —
each field builds a term's :class:`ColumnarPostings` and its length
column once per epoch (see :class:`repro.index.inverted_index.InvertedIndex`)
— and :func:`columnar_view` is the accessor the scorers read them
through.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .fielded_index import FieldedIndex


class ColumnarPostings:
    """One (field, term) posting list as parallel arrays.

    ``ordinals``     ascending document ordinals (int64);
    ``frequencies``  term frequencies aligned with ``ordinals`` (float64 —
                     term frequencies are small integers, exactly
                     representable).
    """

    __slots__ = ("ordinals", "frequencies")

    def __init__(self, ordinals: np.ndarray, frequencies: np.ndarray) -> None:
        self.ordinals = ordinals
        self.frequencies = frequencies

    def __len__(self) -> int:
        return int(self.ordinals.size)


def columnar_view(index: "FieldedIndex") -> "FieldedIndex":
    """The columnar reads of one index epoch: the epoch itself.

    It answers ``postings(field, term)``, ``field_lengths(field)``,
    ``ids_of(ordinals)``, ``doc_ids`` and ``num_documents``, each
    memoised per epoch by its fields.
    """
    return index
