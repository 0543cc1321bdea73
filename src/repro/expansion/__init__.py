"""Entity set expansion (paper references [1] and [6])."""

from .expander import EntitySetExpander, ExpansionResult

__all__ = [
    "EntitySetExpander",
    "ExpansionResult",
]
