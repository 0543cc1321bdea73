"""N-Triples reading and writing of knowledge graphs.

A simplified **N-Triples** dialect: one ``<s> <p> <o> .`` statement per
line, CURIEs allowed in place of ``<iri>`` — the format DBpedia dumps come
in.  A literal object may carry a language tag (``"Forrest Gump"@en``) or
a datatype, as an IRI or a CURIE (``"142.0"^^<http://www.w3.org/2001/
XMLSchema#double>``, ``"1994"^^xsd:gYear``); its lexical form may hold the
escapes ``\\t \\b \\n \\r \\f \\" \\' \\\\``, ``\\uXXXX`` and ``\\UXXXXXXXX``.
The writer escapes what would break a line and reads back to the same
triples.  The reader skips blank lines and ``#`` comments.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from pathlib import Path

from ..exceptions import GraphIOError
from .graph import KnowledgeGraph
from .triple import Literal, Triple

_PathLike = str | Path

_NT_PATTERN = re.compile(
    r"""^\s*
        (?:<(?P<s_iri>[^>]+)>|(?P<s_curie>\S+))\s+
        (?:<(?P<p_iri>[^>]+)>|(?P<p_curie>\S+))\s+
        (?:<(?P<o_iri>[^>]+)>
          |"(?P<o_lit>(?:[^"\\]|\\.)*)"
           (?:@(?P<lang>[A-Za-z]+(?:-[A-Za-z0-9]+)*)
             |\^\^(?:<(?P<dt_iri>[^>]+)>|(?P<dt_curie>[^\s<>"]+)))?
          |(?P<o_curie>[^\s"<]\S*))
        \s*\.\s*$""",
    re.VERBOSE,
)

_ECHARS = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_ESCAPES = {char: f"\\{code}" for code, char in _ECHARS.items() if code != "'"}
_ESCAPE_PATTERN = re.compile(r"""\\(?:([tbnrf"'\\])|u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))""")
#: Characters the writer escapes: the ECHARs and the other C0 controls.
_NEEDS_ESCAPE = re.compile(r'[\x00-\x1f"\\]')


def _decode(match: re.Match) -> str:
    echar, short, long, bad = match.groups()
    if echar:
        return _ECHARS[echar]
    if bad is not None:
        raise GraphIOError(f"unknown escape \\{bad}")
    code = int(short or long, 16)
    if code > 0x10FFFF:
        raise GraphIOError(f"escape \\U{long} is past U+10FFFF")
    return chr(code)


def _unescape(value: str) -> str:
    return _ESCAPE_PATTERN.sub(_decode, value)


def _escape(value: str) -> str:
    return _NEEDS_ESCAPE.sub(lambda m: _ESCAPES.get(m[0]) or f"\\u{ord(m[0]):04X}", value)


def parse_ntriples_line(line: str) -> Triple | None:
    """Parse a single N-Triples statement; return ``None`` for blanks/comments."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    match = _NT_PATTERN.match(stripped)
    if match is None:
        raise GraphIOError(f"malformed N-Triples line: {line!r}")
    subject = match.group("s_iri") or match.group("s_curie")
    predicate = match.group("p_iri") or match.group("p_curie")
    if match.group("o_lit") is not None:
        obj: str | Literal = Literal(
            _unescape(match.group("o_lit")),
            datatype=match.group("dt_iri") or match.group("dt_curie") or "string",
            language=match.group("lang") or "",
        )
    else:
        obj = match.group("o_iri") or match.group("o_curie")
    return Triple(subject, predicate, obj)


def iter_ntriples(lines: Iterable[str]) -> Iterator[Triple]:
    """Yield triples from an iterable of N-Triples lines."""
    for number, line in enumerate(lines, start=1):
        try:
            triple = parse_ntriples_line(line)
        except GraphIOError as exc:
            raise GraphIOError(f"line {number}: {exc}") from exc
        if triple is not None:
            yield triple


def load_ntriples(path: _PathLike, name: str | None = None) -> KnowledgeGraph:
    """Load a knowledge graph from an N-Triples file."""
    path = Path(path)
    graph = KnowledgeGraph(name or path.stem)
    try:
        with path.open("r", encoding="utf-8") as handle:
            graph.add_all(iter_ntriples(handle))
    except OSError as exc:
        raise GraphIOError(f"cannot read {path}: {exc}") from exc
    return graph


def triple_to_ntriples(triple: Triple) -> str:
    """Serialize one triple as an N-Triples statement (CURIEs kept as-is).

    A literal's language tag is written when it has one, else its
    datatype unless that is the default ``"string"``: a CURIE bare, any
    other datatype as ``<iri>``.
    """
    literal = triple.object
    if not isinstance(literal, Literal):
        return f"{triple.subject} {triple.predicate} {literal} ."
    if literal.language:
        tag = f"@{literal.language}"
    elif literal.datatype == "string":
        tag = ""
    elif ":" in literal.datatype and "/" not in literal.datatype:
        tag = f"^^{literal.datatype}"
    else:
        tag = f"^^<{literal.datatype}>"
    return f'{triple.subject} {triple.predicate} "{_escape(literal.value)}"{tag} .'


def save_ntriples(graph: KnowledgeGraph, path: _PathLike) -> None:
    """Write a knowledge graph to an N-Triples file."""
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8") as handle:
            for triple in graph.triples:
                handle.write(triple_to_ntriples(triple) + "\n")
    except OSError as exc:
        raise GraphIOError(f"cannot write {path}: {exc}") from exc
