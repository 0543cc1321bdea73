"""Semantic features (SFs) — the paper's central concept.

A semantic feature is composed of a predicate and an anchor entity, with a
direction (§2.3): ``<e, p, x>`` (the anchor is the *subject*) or
``<x, p, e>`` (the anchor is the *object*), where ``x`` ranges over entities.
The paper's running example ``Tom_Hanks:starring`` denotes the triple
pattern of entities that have Tom Hanks as a star, i.e. the films ``x`` with
``<x, starring, Tom_Hanks>``.

An entity ``e`` *matches* a semantic feature ``pi`` (written ``e |= pi``)
when the corresponding triple exists; ``E(pi)`` is the set of matching
entities.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Direction(str, Enum):
    """Which position of the triple pattern the free variable ``x`` occupies.

    ``SUBJECT_OF``:  pattern ``<anchor, predicate, x>`` — matching entities
    are *objects* of edges leaving the anchor.

    ``OBJECT_OF``:  pattern ``<x, predicate, anchor>`` — matching entities
    are *subjects* of edges pointing at the anchor (the
    ``Tom_Hanks:starring`` case: films starring Tom Hanks).
    """

    SUBJECT_OF = "subject_of"
    OBJECT_OF = "object_of"

    def flipped(self) -> "Direction":
        """The opposite direction."""
        if self is Direction.SUBJECT_OF:
            return Direction.OBJECT_OF
        return Direction.SUBJECT_OF


_OBJECT_OF = Direction.OBJECT_OF.value


def key_notation(key: tuple[str, str, str]) -> str:
    """:meth:`SemanticFeature.notation` of a feature given by its :attr:`~SemanticFeature.key`.

    For code that orders features by notation before it knows which of
    them are worth building objects for.
    """
    anchor, predicate, direction = key
    return f"{anchor}:{predicate}" if direction == _OBJECT_OF else f"{anchor}:{predicate}^"


@dataclass(frozen=True, order=True)
class SemanticFeature:
    """A semantic feature ``pi = (anchor, predicate, direction)``.

    Examples
    --------
    ``SemanticFeature("dbr:Tom_Hanks", "dbo:starring", Direction.OBJECT_OF)``
    is the paper's ``Tom_Hanks:starring``: the set of films ``x`` such that
    ``<x, dbo:starring, dbr:Tom_Hanks>`` holds.
    """

    anchor: str
    predicate: str
    direction: Direction = Direction.OBJECT_OF

    def __post_init__(self) -> None:
        if not self.anchor:
            raise ValueError("semantic feature anchor must be non-empty")
        if not self.predicate:
            raise ValueError("semantic feature predicate must be non-empty")

    @property
    def key(self) -> tuple[str, str, str]:
        """Hashable key ``(anchor, predicate, direction)``."""
        return (self.anchor, self.predicate, self.direction.value)

    def notation(self) -> str:
        """The paper's compact notation.

        ``anchor:predicate`` for OBJECT_OF features (entities pointing at
        the anchor) and ``anchor:predicate^`` for SUBJECT_OF features
        (entities the anchor points at).
        """
        suffix = "" if self.direction is Direction.OBJECT_OF else "^"
        return f"{self.anchor}:{self.predicate}{suffix}"

    def triple_pattern(self) -> str:
        """The SPARQL-like triple pattern this feature denotes."""
        if self.direction is Direction.OBJECT_OF:
            return f"<?x, {self.predicate}, {self.anchor}>"
        return f"<{self.anchor}, {self.predicate}, ?x>"

    def describe(self, anchor_label: str | None = None, predicate_label: str | None = None) -> str:
        """Human-readable description for the SF recommendation area."""
        anchor = anchor_label or self.anchor
        predicate = predicate_label or self.predicate
        if self.direction is Direction.OBJECT_OF:
            return f"entities whose '{predicate}' is {anchor}"
        return f"entities that {anchor} '{predicate}'"

    @staticmethod
    def parse(notation: str) -> "SemanticFeature":
        """Parse the compact ``anchor:predicate[^]`` notation.

        The anchor may itself contain a namespace colon
        (``dbr:Tom_Hanks:dbo:starring``); the split point is taken so that
        both anchor and predicate keep their namespace prefix, i.e. the
        split is made at the second-to-last colon.
        """
        text = notation.strip()
        if not text:
            raise ValueError("empty semantic feature notation")
        direction = Direction.OBJECT_OF
        if text.endswith("^"):
            direction = Direction.SUBJECT_OF
            text = text[:-1]
        parts = text.split(":")
        if len(parts) < 2:
            raise ValueError(f"cannot parse semantic feature notation: {notation!r}")
        if len(parts) == 2:
            anchor, predicate = parts
        elif len(parts) == 3:
            # Either "dbr:Tom_Hanks:starring" or "Tom_Hanks:dbo:starring";
            # prefer keeping the namespace with the anchor.
            anchor, predicate = ":".join(parts[:2]), parts[2]
        else:
            anchor, predicate = ":".join(parts[:2]), ":".join(parts[2:])
        if not anchor or not predicate:
            raise ValueError(f"cannot parse semantic feature notation: {notation!r}")
        return SemanticFeature(anchor=anchor, predicate=predicate, direction=direction)
