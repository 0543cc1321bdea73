"""Token and string normalization.

Entity labels in KGs mix underscores, camel case, punctuation and unicode
accents ("Tom_Hanks", "PandaSearch", "Amélie").  The normalizer folds all of
these into plain lower-cased ASCII-ish tokens so that the inverted index and
the query side agree on the vocabulary.
"""

from __future__ import annotations

import re
import unicodedata

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
_NON_ALNUM = re.compile(r"[^0-9a-zA-Z]+")
_WHITESPACE = re.compile(r"\s+")


def strip_accents(text: str) -> str:
    """Remove diacritical marks: ``"Amélie"`` -> ``"Amelie"``.

    ASCII text is returned as it is: NFKD leaves every ASCII character
    alone and none of them is a combining mark.
    """
    if text.isascii():
        return text
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def split_camel_case(text: str) -> str:
    """Insert spaces at lower-to-upper camel-case boundaries."""
    return _CAMEL_BOUNDARY.sub(" ", text)


def normalize_token(token: str) -> str:
    """Normalize a single token: accent-fold and lower-case."""
    return strip_accents(token).lower()


def normalize_text(text: str) -> str:
    """Normalize a free-text string for tokenization.

    Underscores and punctuation become spaces, camel case is split, accents
    are stripped and everything is lower-cased.
    """
    text = strip_accents(text)
    text = split_camel_case(text)
    text = _NON_ALNUM.sub(" ", text)
    text = _WHITESPACE.sub(" ", text)
    return text.strip().lower()


def light_stem(token: str) -> str:
    """A deliberately light English stemmer.

    Full Porter stemming is overkill for entity names; this stemmer only
    removes plural/possessive suffixes so that ``"films"`` matches
    ``"film"`` while leaving short tokens untouched.
    """
    if len(token) <= 3:
        return token
    if token.endswith("'s"):
        return token[:-2]
    if token.endswith("ies") and len(token) > 4:
        return token[:-3] + "y"
    if token.endswith("sses"):
        return token[:-2]
    if token.endswith("s") and not token.endswith("ss") and not token.endswith("us"):
        return token[:-1]
    return token
