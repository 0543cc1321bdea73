"""Every write to the search index equals a fresh build over the same documents.

A field of an index epoch is its base CSR plus the documents written
since.  After each write, the epoch is checked against the dict model of
``tests/index_oracle.py``: its merged CSRs array for array, and every
term's postings, cf/df/max tf and the lengths as read through the
written documents.  The writes run on systems that came to be each of
the ``serial_matrix.ORIGINS`` ways, and on a written index saved and
loaded again.  They include new and replaced ids; replacements that take
away a term's max tf, a field's shortest or longest document, or a
term's last holder; two writes with no read between them; and enough
writes to cross the merge threshold.
"""

from __future__ import annotations

from collections.abc import Iterator

import pytest

from index_oracle import ReferenceIndex, assert_index_equals, sorted_build
from repro.config import PivotEConfig
from repro.datasets import build_random_kg
from repro.exceptions import FieldNotFoundError
from repro.index import FieldedIndex
from repro.index.fielded_index import MERGE_FRACTION
from repro.index.inverted_index import PostingColumns
from repro.search import analyze_document, build_all_documents, build_entity_document
from repro.storage import SegmentBuilder, SegmentView, encode_index_snapshot, restore_fielded_index
from serial_matrix import GRAPH_SHAPES, ORIGINS, WRITTEN, origin_system

FieldTerms = dict[str, list[str]]


def reload(index: FieldedIndex) -> FieldedIndex:
    """``index`` saved as a ``search-index`` segment and adopted again."""
    manifest, builder = encode_index_snapshot(index)
    encoded = SegmentBuilder.encode_manifest(manifest)
    buffer = bytearray(builder.total_size(encoded)[0])
    builder.write_into(buffer, encoded)
    return restore_fielded_index(SegmentView(bytes(buffer), verify=True), index.fields)


def field_of_longest(reference: ReferenceIndex) -> tuple[str, str]:
    """``(field, doc)``: the longest document of the field with the widest length range."""
    def spread(name: str) -> tuple[int, str]:
        lengths = reference.field[name].lengths.values()
        return max(lengths) - min(lengths), name

    name = max(reference.fields, key=spread)
    lengths = reference.field[name].lengths
    return name, max(sorted(lengths), key=lengths.__getitem__)


def edge_writes(reference: ReferenceIndex) -> Iterator[tuple[str, FieldTerms]]:
    """Writes aimed at the cases a delta gets wrong, each chosen on the model's state."""
    fields = reference.fields
    # A new id holding known terms (one of them twice) and an unseen one.
    known = sorted(reference.field[fields[0]].postings)[:2]
    yield "ex:aa-new", {fields[0]: known + known[:1] + ["unseenterm"]}
    # A replaced id: the first document, with other terms.
    yield reference.doc_ids[0], {name: ["replaced", "replaced", "terms"] for name in fields}
    # The holder of a term's max tf (the largest tf anywhere) loses the term.
    name, term, doc_id = max(
        (
            (name, term, doc_id)
            for name in fields
            for term, held in reference.field[name].postings.items()
            for doc_id in held
        ),
        key=lambda cell: (reference.field[cell[0]].postings[cell[1]][cell[2]], cell),
    )
    yield doc_id, {name: ["other"]}
    # The field's longest document becomes its shortest, empty.
    name, doc_id = field_of_longest(reference)
    yield doc_id, {}
    # The field's shortest document becomes its longest.
    lengths = reference.field[name].lengths
    shortest = min(sorted(lengths), key=lengths.__getitem__)
    yield shortest, {name: ["long"] * (max(lengths.values()) + 3)}
    # A term's only holder loses it: the term empties.
    for name in fields:
        single = sorted(t for t, held in reference.field[name].postings.items() if len(held) == 1)
        if single:
            (doc_id,) = reference.field[name].postings[single[0]]
            yield doc_id, {name: ["emptied"]}
            break
    # A document written since the base, written again.
    yield "ex:aa-new", {fields[-1]: ["again"]}


def write_and_check(
    index: FieldedIndex, reference: ReferenceIndex, doc_id: str, field_terms: FieldTerms,
    check: bool = True,
) -> FieldedIndex:
    written = index.with_added_document(doc_id, field_terms)
    reference.write(doc_id, field_terms)
    assert written.epoch == index.epoch + 1 and written.uid != index.uid
    if check:
        assert_index_equals(written, reference)
    return written


def run_writes(index: FieldedIndex, reference: ReferenceIndex) -> FieldedIndex:
    """The edge writes, two unread writes, then new ids past one merge."""
    for doc_id, field_terms in edge_writes(reference):
        index = write_and_check(index, reference, doc_id, field_terms)
    fields = index.fields
    index = write_and_check(index, reference, "ex:zz-unread", {fields[0]: ["unread"]}, check=False)
    index = write_and_check(index, reference, reference.doc_ids[1], {fields[1]: ["unread"]})
    base = index.field_index(fields[0]).base
    for number in range(int(MERGE_FRACTION * index.num_documents) + 2):
        index = write_and_check(
            index, reference, f"ex:m{number:03d}", {fields[number % len(fields)]: ["merge", "merge"]}
        )
    assert index.field_index(fields[0]).base is not base  # the delta was merged
    return index


def reference_of(documents: dict[str, FieldTerms], fields) -> ReferenceIndex:
    reference = ReferenceIndex(fields)
    for doc_id in sorted(documents):
        reference.write(doc_id, documents[doc_id])
    return reference


@pytest.mark.parametrize("shape", ["default", "tiny"])
@pytest.mark.parametrize("origin", ORIGINS)
def test_every_write_equals_a_fresh_build(origin, shape, tmp_path):
    graph = build_random_kg(GRAPH_SHAPES[shape])
    config = PivotEConfig()
    fields = config.search.fields
    documents = {
        doc_id: analyze_document(document, fields)
        for doc_id, document in build_all_documents(graph).items()
    }
    system = origin_system(graph, origin, str(tmp_path), config)
    if origin == "written":  # the write indexes the new entity only
        documents[WRITTEN] = analyze_document(build_entity_document(graph, WRITTEN), fields)
    reference = reference_of(documents, fields)
    index = system.search_engine.index
    assert_index_equals(index, reference)
    index = run_writes(index, reference)
    system.close()
    # A written index saved and loaded holds the same, and takes writes alike.
    loaded = reload(index)
    assert_index_equals(loaded, reference)
    run_writes(loaded, reference)


def test_a_merge_never_sorts_token_rows(monkeypatch):
    """A merging write folds the delta's cells into the base rows; it never
    turns the field back into tokens for the build's sort."""
    graph = build_random_kg(GRAPH_SHAPES["default"])
    fields = PivotEConfig().search.fields
    documents = {
        doc_id: analyze_document(document, fields)
        for doc_id, document in build_all_documents(graph).items()
    }
    index = sorted_build(fields, documents)
    reference = reference_of(documents, fields)
    sorts = []
    from_tokens = PostingColumns.from_tokens.__func__
    monkeypatch.setattr(PostingColumns, "from_tokens", classmethod(
        lambda cls, *args: sorts.append(args) or from_tokens(cls, *args)
    ))
    run_writes(index, reference)  # crosses the merge threshold once
    assert not sorts


def test_a_small_collection_written_from_empty():
    reference = ReferenceIndex(["names", "categories"])
    index = FieldedIndex(["names", "categories"])
    assert_index_equals(index, reference)
    writes = [
        ("e2", {"names": ["apollo"], "categories": ["american", "film"]}),
        ("e1", {"names": ["forrest", "gump", "gump"], "categories": ["american", "film"]}),
        ("e3", {"names": [], "categories": ["film", "film", "film", "space"]}),
        ("e4", {"names": ["gump", "sequel", "of", "forrest", "gump"]}),
        ("e1", {"names": ["gump"], "categories": ["film"]}),
        ("e3", {"names": ["space", "space"]}),
        ("e2", {}),
        ("e4", {"names": ["sequel"], "categories": ["film"] * 5}),
        ("e4", {"names": ["sequel"], "categories": ["film"] * 5}),
    ]
    for doc_id, field_terms in writes:
        index = write_and_check(index, reference, doc_id, field_terms)
    assert index.epoch == len(writes)
    # The sorted build over the documents the writes left equals them too.
    documents = {
        doc_id: {
            name: [term for term, held in model.postings.items() for _ in range(held.get(doc_id, 0))]
            for name, model in reference.field.items()
        }
        for doc_id in reference.doc_ids
    }
    assert_index_equals(sorted_build(reference.fields, documents), reference)


def test_unknown_fields_are_refused_and_the_predecessor_is_untouched():
    reference = ReferenceIndex(["names"])
    index = write_and_check(FieldedIndex(["names"]), reference, "e1", {"names": ["a"]})
    with pytest.raises(FieldNotFoundError):
        index.with_added_document("e2", {"bogus": ["x"]})
    with pytest.raises(FieldNotFoundError):
        index.term_frequency("bogus", "a", "e1")
    written = index.with_added_document("e1", {"names": ["b"]})
    assert_index_equals(index, reference)  # the predecessor still reads "a"
    assert written.term_frequency("names", "b", "e1") == 1
