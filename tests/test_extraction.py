"""Extraction: section detection, resource tracing, docx, normalization, lint."""

from __future__ import annotations

import io
import re
import zipfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import corpus
from citecheck.errors import (CitecheckError, CorruptArchive, MissingDocumentPart,
                              UnsupportedFormat)
from citecheck.extraction import (detect_reference_section, extract_docx_text,
                                  extract_references, lint_bibliography,
                                  normalize_reference)
from citecheck.extraction.latex import extract_bibitems, strip_comments
from citecheck.extraction.models import RawReference, ReferenceInput, RejectedReference
from citecheck.extraction.text import (parse_freetext_fields, segment_references,
                                       split_freetext_authors)
from citecheck.rewrite.render import MergedEntry, patch_text_entry


def _raw(origin="plaintext", key=None, text="x", ordinal=1):
    return RawReference(source_span=(0, max(len(text), 1)), original_text=text,
                        origin_format=origin, ordinal=ordinal, citation_key=key,
                        source_path="mem")


# ---------------------------------------------------------------------------
# Section detection
# ---------------------------------------------------------------------------

def test_single_header_spans_to_end():
    lines = [f"line {i}" for i in range(1, 40)] + ["References"] + [
        f"[{i}] entry {i}" for i in range(1, 21)]
    text = "\n".join(lines) + "\n"
    span = detect_reference_section(text)
    assert span is not None
    section = text[span[0]:span[1]]
    assert section.startswith("[1] entry 1")
    assert section.rstrip().endswith("entry 20")


def test_section_ends_before_next_header_oracle():
    text = ("Intro prose.\n\nReferences\n\n[1] Able, A. (2000). First thing. Venue.\n"
            "[2] Baker, B. (2001). Second thing. Venue.\nAppendix\nExtra material.\n")
    span = detect_reference_section(text)
    section = text[span[0]:span[1]]
    # Line-scanning oracle: everything between the header line and "Appendix".
    lines = text.splitlines(keepends=True)
    start = sum(len(l) for l in lines[:3])
    end = sum(len(l) for l in lines[:6])
    assert span == (start, end)
    assert "Appendix" not in section


def test_no_header_returns_none():
    assert detect_reference_section("just prose\nwith no headers\n") is None


def test_markdown_and_numbered_headers():
    md = "# Title\n\n## References\n\n1. Entry one.\n\n## Appendix\n\nStuff.\n"
    span = detect_reference_section(md)
    assert "Entry one" in md[span[0]:span[1]]
    assert "Stuff" not in md[span[0]:span[1]]

    numbered = "1. Intro\ntext\n7. References\n[1] An entry.\n8. Conclusion\nmore\n"
    span = detect_reference_section(numbered)
    section = numbered[span[0]:span[1]]
    assert "An entry" in section
    assert "Conclusion" not in section


def test_last_matching_header_wins():
    text = "References\nold list\nBibliography\n[1] Real, R. (2020). Entry. Venue.\n"
    span = detect_reference_section(text)
    assert "Real" in text[span[0]:span[1]]
    assert "old list" not in text[span[0]:span[1]]


def test_segmentation_prefers_markers_then_blank_lines():
    block = "[1] one\ncontinued\n[2] two\n"
    spans = segment_references(block, (0, len(block)))
    assert [block[s:e] for s, e in spans] == ["[1] one\ncontinued", "[2] two"]

    block = "alpha entry\n\nbeta entry\n"
    spans = segment_references(block, (0, len(block)))
    assert [block[s:e] for s, e in spans] == ["alpha entry", "beta entry"]

    block = "one per line\nanother line\n"
    spans = segment_references(block, (0, len(block)))
    assert [block[s:e] for s, e in spans] == ["one per line", "another line"]


# ---------------------------------------------------------------------------
# LaTeX resources and bibitems
# ---------------------------------------------------------------------------

def _bib_resources(folder: Path, tex: str) -> list[str]:
    (folder / "paper.tex").write_text(tex)
    return [Path(p).name for p in extract_references(folder / "paper.tex").bib_resources]


def test_resolve_bibliography_command(tmp_path):
    (tmp_path / "refs.bib").write_text("@misc{a, title={T}}\n")
    assert _bib_resources(tmp_path, "\\bibliography{refs}") == ["refs.bib"]


def test_commented_directive_ignored(tmp_path):
    (tmp_path / "old.bib").write_text("@misc{a, title={T}}\n")
    assert _bib_resources(tmp_path, "% \\bibliography{old}") == []


def test_multi_name_and_addbibresource_deduplicated(tmp_path):
    for name in ("a.bib", "b.bib"):
        (tmp_path / name).write_text("@misc{x, title={T}}\n")
    tex = "\\bibliography{a,b}\\addbibresource{a.bib}"
    # Hand-parse oracle for this exact string: names a, b in order, a deduped.
    assert _bib_resources(tmp_path, tex) == ["a.bib", "b.bib"]


def test_missing_bib_files_not_returned(tmp_path):
    assert _bib_resources(tmp_path, "\\bibliography{ghost}") == []


def _missing_resources(result):
    return [f.message for f in result.lint if "not found" in f.message]


def test_bibliography_in_a_subfolder_is_not_linted_missing(tmp_path):
    (tmp_path / "bib").mkdir()
    (tmp_path / "bib" / "refs.bib").write_text("@misc{a, title={Some title}}\n")
    (tmp_path / "paper.tex").write_text("\\bibliography{bib/refs}\n")
    result = extract_references(tmp_path / "paper.tex")
    assert [e.citation_key for e in result.entries] == ["a"]
    assert _missing_resources(result) == []


def test_missing_resource_is_linted_by_its_path_not_its_basename(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "refs.bib").write_text("@misc{a, title={Some title}}\n")
    (tmp_path / "paper.tex").write_text("\\bibliography{a/refs,refs}\n")
    result = extract_references(tmp_path / "paper.tex")
    assert result.bib_resources == [str(tmp_path / "a" / "refs.bib")]
    assert _missing_resources(result) == [
        "bibliography resource 'refs.bib' not found next to the manuscript"]


def test_strip_comments_preserves_offsets():
    tex = "before % comment\nafter"
    cleaned = strip_comments(tex)
    assert len(cleaned) == len(tex)
    assert "comment" not in cleaned
    assert cleaned.endswith("after")
    assert strip_comments("100\\% sure \\bibliography{x}").count("bibliography") == 1


def _strip_comments_by_hand(tex_source: str) -> str:
    """`strip_comments` as a character loop, kept as the reference for its regex."""
    out = []
    for line in tex_source.splitlines(keepends=True):
        cut = None
        i = 0
        while i < len(line):
            ch = line[i]
            if ch == "\\":
                i += 2
                continue
            if ch == "%":
                cut = i
                break
            i += 1
        if cut is None:
            out.append(line)
        else:
            kept = line[:cut]
            tail = line[cut:]
            newline = ""
            while tail.endswith(("\n", "\r")):
                newline = tail[-1] + newline
                tail = tail[:-1]
            out.append(kept + " " * len(tail) + newline)
    return "".join(out)


# Escapes, comments, braces and every line break str.splitlines knows.
_TEX_PIECES = ["a", "b", " ", "%", "\\", "{", "}", "\n", "\r", "\r\n", "\v", "\f",
               "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_TEX_PIECES), max_size=16).map("".join))
@example("a % b\u2028c % d\r\ne")
@example("\\\n% c\\")
def test_strip_comments_matches_the_character_loop(tex):
    assert strip_comments(tex) == _strip_comments_by_hand(tex)


def test_bibitem_extraction():
    tex = ("\\begin{thebibliography}{9}\n"
           "\\bibitem{a1} Doe, J. (2020). First item. Venue.\n"
           "\\bibitem{a2} Roe, R. (2021). Second item. Venue.\n"
           "\\end{thebibliography}\n")
    items = extract_bibitems(tex)
    assert [i.key for i in items] == ["a1", "a2"]
    assert "First item" in items[0].text
    assert "Second item" not in items[0].text


# ---------------------------------------------------------------------------
# DOCX
# ---------------------------------------------------------------------------

def test_docx_single_paragraph():
    payload = corpus.make_docx(["Hello"])
    assert extract_docx_text(payload) == ["Hello"]


def test_docx_runs_are_concatenated():
    payload = corpus.make_docx(["Walters"], split_runs=True)
    assert extract_docx_text(payload) == ["Walters"]


def test_test_docx_bytes_do_not_depend_on_the_clock():
    """The corpus .docx is stamped with a fixed date, so every build of the
    corpus gives the same bytes and the same plan digests."""
    with zipfile.ZipFile(io.BytesIO(corpus.make_docx(["Hello"]))) as archive:
        assert archive.getinfo("word/document.xml").date_time == (1980, 1, 1, 0, 0, 0)


def test_docx_missing_document_part():
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("word/other.xml", "<x/>")
    with pytest.raises(MissingDocumentPart):
        extract_docx_text(buffer.getvalue())


def _docx_of(document_xml: str) -> bytes:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr("word/document.xml", document_xml)
    return buffer.getvalue()


def test_docx_malformed_document_xml_is_a_corrupt_archive():
    with pytest.raises(CorruptArchive):
        extract_docx_text(_docx_of("<w:document><w:body>"))


def test_docx_tab_and_break_become_spaces():
    xml = ('<w:document xmlns:w="http://schemas.openxmlformats.org/wordprocessingml/2006/main">'
           "<w:body><w:p><w:r><w:t>Doe,</w:t><w:tab/><w:t>J.</w:t><w:br/><w:t>Title</w:t>"
           "</w:r></w:p></w:body></w:document>")
    assert extract_docx_text(_docx_of(xml)) == ["Doe, J. Title"]


_W = 'xmlns:w="http://schemas.openxmlformats.org/wordprocessingml/2006/main"'
_RUN_PARTS = st.sampled_from(["<w:t>Doe,</w:t>", "<w:t xml:space=\"preserve\"> J. </w:t>",
                              "<w:t/>", "<w:tab/>", "<w:br/>", "<w:t>Ü&amp;ł</w:t>"])


def _paragraphs(depth: int) -> st.SearchStrategy[str]:
    """A paragraph of runs; a run may hold a text box of further paragraphs."""
    runs = st.lists(_RUN_PARTS, max_size=4).map(lambda parts: "<w:r>%s</w:r>" % "".join(parts))
    if depth:
        box = st.lists(_paragraphs(depth - 1), max_size=2).map(
            lambda ps: "<w:r><w:pict><w:txbxContent>%s</w:txbxContent></w:pict></w:r>"
                       % "".join(ps))
        runs = runs | box
    return st.lists(runs, max_size=3).map(lambda rs: "<w:p>%s</w:p>" % "".join(rs))


@settings(max_examples=300, deadline=None)
@given(st.lists(_paragraphs(2) | st.just("<w:tbl><w:tr><w:tc><w:p><w:r><w:t>Cell</w:t>"
                                          "</w:r></w:p></w:tc></w:tr></w:tbl>"), max_size=5))
def test_streamed_docx_reads_what_the_tree_walk_reads(body):
    """Tabs, breaks, empty runs and text boxes: an outer paragraph, which
    holds its text box's text too, comes before the paragraphs nested in it."""
    import docx_by_tree

    xml = f"<w:document {_W}><w:body>{''.join(body)}</w:body></w:document>"
    assert extract_docx_text(_docx_of(xml)) == docx_by_tree.paragraphs_by_tree(xml.encode())


_PEAK_CHILD = """
import io, sys, zipfile
sys.path[:0] = sys.argv[3:]
import citecheck.extraction, docx_by_tree
data = open(sys.argv[1], "rb").read()
if sys.argv[2] == "stream":
    count = len(citecheck.extraction.extract_docx_text(data))
else:
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        count = len(docx_by_tree.paragraphs_by_tree(archive.read("word/document.xml")))
with open("/proc/self/status") as status:
    print(count, next(line.split()[1] for line in status if line.startswith("VmHWM")))
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM")
def test_docx_near_the_cap_peaks_at_half_the_tree_walk(tmp_path):
    """A valid document.xml just under the read cap: the child's own peak
    (VmHWM, which a parent's pre-exec size cannot inflate as wait4's can) is
    at most half the tree walk's."""
    import subprocess
    import sys

    from citecheck.extraction.docx import DOCUMENT_XML_MAX_BYTES

    para = "<w:p><w:r><w:t>[%06d] Doe, J. (2020). A title of some length. Venue.</w:t></w:r></w:p>"
    head, tail = f"<w:document {_W}><w:body>", "</w:body></w:document>"
    count = (DOCUMENT_XML_MAX_BYTES - len(head) - len(tail)) // len(para % 0)
    path = tmp_path / "big.docx"
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        archive.writestr("word/document.xml",
                         head + "".join(para % i for i in range(count)) + tail)
    tests = Path(__file__).parent
    peaks = {}
    for way in ("stream", "tree"):
        out = subprocess.run([sys.executable, "-c", _PEAK_CHILD, str(path), way,
                              str(tests.parent / "src"), str(tests)],
                             capture_output=True, text=True, check=True).stdout.split()
        assert int(out[0]) == count
        peaks[way] = int(out[1])
    assert peaks["stream"] * 2 <= peaks["tree"], peaks


_DOCX = corpus.make_docx(["References", "[1] Doe, J. (2020). A title. Venue."] * 4)


def _with_header_field(offset: int, value: int) -> bytes:
    """The test .docx with one 16-bit field of its local header (at `offset`)
    and of its central directory entry (2 bytes further on) set to `value`."""
    data = bytearray(_DOCX)
    for signature, at in ((b"PK\x03\x04", offset), (b"PK\x01\x02", offset + 2)):
        pos = data.index(signature) + at
        data[pos:pos + 2] = value.to_bytes(2, "little")
    return bytes(data)


def _flipped(changes: list[tuple[int, int]]) -> bytes:
    damaged = bytearray(_DOCX)
    for pos, value in changes:
        damaged[pos] = value
    return bytes(damaged)


# The first member's data starts past the 30-byte local header, its name and extra field.
_MEMBER_DATA = 30 + int.from_bytes(_DOCX[26:28], "little") + int.from_bytes(_DOCX[28:30], "little")
_DAMAGED_DOCX = st.one_of(
    st.binary(max_size=200),
    st.integers(0, len(_DOCX)).map(lambda n: _DOCX[:n]),
    st.lists(st.tuples(st.integers(0, len(_DOCX) - 1), st.integers(0, 255)),
             min_size=1, max_size=4).map(_flipped),
)


@settings(max_examples=300, deadline=None, database=None)
@given(_DAMAGED_DOCX)
@example(_with_header_field(6, 1))  # encrypted member
@example(_with_header_field(8, 99))  # unknown compression method
@example(_flipped([(_MEMBER_DATA + 5, 0xff), (_MEMBER_DATA + 6, 0)]))  # corrupt deflate data
def test_docx_damaged_archive_raises_only_citecheck_errors(data):
    try:
        paragraphs = extract_docx_text(data)
    except CitecheckError:
        return
    assert all(isinstance(p, str) for p in paragraphs)


_SECTION_LINE = st.one_of(
    st.sampled_from(["References", "## Bibliography", "Works Cited:", "[1] ", "2. ", "",
                     "   ", "Doe, J. (2020). A title. Venue.", "\r"]),
    st.text(max_size=20))


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(st.text(), st.lists(_SECTION_LINE, max_size=20).map("\n".join)), st.data())
def test_section_detection_and_segmentation_raise_only_citecheck_errors(text, data):
    try:
        span = detect_reference_section(text)
        if span is None:
            start = data.draw(st.integers(0, len(text)))
            span = (start, data.draw(st.integers(start, len(text))))
        segments = segment_references(text, span)
    except CitecheckError:
        return
    assert all(span[0] <= s < e <= span[1] for s, e in segments)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def test_freetext_segmentation_oracle():
    fields = parse_freetext_fields("Doe, J. (2020). A Title. Nature.")
    assert fields["title"] == "A Title"
    assert fields["year"] == "2020"
    assert fields["author"] == "Doe, J."
    result = normalize_reference(_raw(), fields)
    assert isinstance(result, ReferenceInput)
    assert result.title == "A Title"
    assert result.year == 2020
    assert result.authors == (("Doe", "J."),)


@pytest.mark.parametrize("authors,read", [
    ((("Smith-Jones", "Mary Ann"), ("Doe", "Jane")), None),
    ((("Smith", "Ü."),), None),
    ((("Doe", "J."), ("Smith", "Alan"), ("Lee", "K.")), None),
    # A lone "Doe, Jane" is also two one-word names; nothing tells them apart.
    ((("Doe", "Jane"),), (("Doe", ""), ("Jane", ""))),
])
def test_text_patch_authors_read_back(tmp_path, authors, read):
    """The author list a text patch writes is the one extraction reads."""
    merged = MergedEntry(key="k", kind="journal", title="A Title", authors=authors,
                         year=2020, venue="Nature", doi=None, pmid=None, arxiv_id=None,
                         volume=None, pages=None, extra_fields=())
    path = tmp_path / "refs.txt"
    path.write_text(f"References\n[1] {patch_text_entry(merged)}\n", encoding="utf-8")
    assert extract_references(path).entries[0].authors == (read or authors)


def test_doi_prefix_stripping_and_lowercase():
    result = normalize_reference(_raw(), {"title": "T",
                                          "doi": "https://doi.org/10.1000/XYZ"})
    assert result.doi == "10.1000/xyz"


def test_dash_only_entry_rejected():
    fields = parse_freetext_fields("\u2014\u2014\u2014")
    result = normalize_reference(_raw(text="\u2014\u2014\u2014"), fields)
    assert isinstance(result, RejectedReference)
    assert "Unparseable" in result.reason


def test_arxiv_forms_normalized():
    for value in ("arXiv:2101.00001v2", "https://arxiv.org/abs/2101.00001v2"):
        result = normalize_reference(_raw(origin="bibtex", key="k"),
                                     {"title": "T", "eprint": value,
                                      "_entry_type": "misc"})
        assert result.arxiv_id == "2101.00001"
        assert result.arxiv_version == 2
        assert result.entry_kind == "preprint"


def test_bibtex_author_splitting():
    result = normalize_reference(
        _raw(origin="bibtex", key="k"),
        {"title": "T", "author": "Doe, Jane and van der Berg, Hans and others",
         "_entry_type": "article"})
    assert result.authors == (("Doe", "Jane"), ("van der Berg", "Hans"))
    assert result.entry_kind == "journal"


def test_year_window_applies_to_freetext_only():
    # Explicit field: taken as-is so lint can flag it.
    explicit = normalize_reference(_raw(origin="bibtex", key="k"),
                                   {"title": "T", "year": "2150",
                                    "_entry_type": "article"})
    assert explicit.year == 2150
    # Free text: implausible numbers are not years.
    fields = parse_freetext_fields("Doe, J. Strange Item. Venue 4096, 12-19.")
    assert "year" not in fields


def test_bibtex_date_gives_the_year_when_year_is_missing():
    result = normalize_reference(_raw(origin="bibtex", key="k"),
                                 {"title": "T", "date": "2019-05-01", "_entry_type": "article"})
    assert result.year == 2019


def test_freetext_author_lists():
    assert split_freetext_authors("et al.") == []
    assert split_freetext_authors("Doe, Jane; van der Berg, Hans") == [
        ("Doe", "Jane"), ("van der Berg", "Hans")]


def test_normalization_idempotent():
    first = normalize_reference(
        _raw(origin="bibtex", key="k"),
        {"title": "  A   Title ", "author": "Doe, Jane", "year": "2020",
         "journal": "Nature", "doi": "DOI:10.1000/ABC", "_entry_type": "article"})
    fields = {"title": first.title, "author": "Doe, Jane", "year": str(first.year),
              "journal": first.venue, "doi": first.doi, "_entry_type": "article"}
    second = normalize_reference(_raw(origin="bibtex", key="k"), fields)
    for attr in ("title", "authors", "year", "venue", "doi", "entry_kind"):
        assert getattr(first, attr) == getattr(second, attr)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def test_extract_clean_bib(tmp_path):
    path = tmp_path / "refs.bib"
    corpus.write_bib(path, corpus.MAIN_BIB[:3])
    result = extract_references(path)
    assert len(result.entries) == 3
    assert result.rejected == []
    assert [e.ordinal for e in result.entries] == [1, 2, 3]


def test_extract_tex_pulls_from_bib_resources(tmp_path):
    corpus.write_bib(tmp_path / "refs.bib", corpus.MAIN_BIB[:2])
    (tmp_path / "paper.tex").write_text("\\bibliography{refs}\n", encoding="utf-8")
    result = extract_references(tmp_path / "paper.tex")
    assert len(result.entries) == 2
    assert [Path(p).name for p in result.bib_resources] == ["refs.bib"]
    assert result.entries[0].raw.origin_format == "bibtex"
    assert Path(result.entries[0].raw.source_path).name == "refs.bib"


def test_extract_txt_numbered_entries(tmp_path):
    path = tmp_path / "notes.txt"
    corpus.write_txt(path, corpus.MAIN_TXT, include_rejected=False)
    result = extract_references(path)
    assert len(result.entries) == 5
    assert [e.ordinal for e in result.entries] == [1, 2, 3, 4, 5]


def test_extract_rejects_reported_not_dropped(tmp_path):
    path = tmp_path / "notes.txt"
    corpus.write_txt(path, corpus.MAIN_TXT, include_rejected=True)
    result = extract_references(path)
    assert len(result.entries) == 5
    assert len(result.rejected) == 1
    assert result.rejected[0].raw.ordinal == 6


def test_bibtex_syntax_errors_are_lint_findings(tmp_path):
    path = tmp_path / "refs.bib"
    path.write_text("@article{good1, title={A}, year={2001}}\n"
                    "@article{broken, title={unterminated\n"
                    "@article{, title={No key}}\n"
                    "@article{good2, title={B}, year={2002}}\n", encoding="utf-8")
    result = extract_references(path)
    assert [e.raw.citation_key for e in result.entries] == ["good1", "good2"]
    assert [(f.code, f.entry_ordinal, f.severity, f.message)
            for f in result.lint if f.code == "syntax_error"] == [
        ("syntax_error", 0, "error", "refs.bib line 2: unterminated braced value"),
        ("syntax_error", 0, "error", "refs.bib line 3: missing citation key for @article"),
    ]


def test_unsupported_extension(tmp_path):
    path = tmp_path / "refs.pdf"
    path.write_text("x")
    with pytest.raises(UnsupportedFormat):
        extract_references(path)


def test_span_fidelity_across_formats(tmp_path, corpus_paths):
    main = corpus_paths["main"]
    for name in ("references.bib", "notes.md", "field_notes.txt"):
        path = main / name
        result = extract_references(path)
        raw_bytes = path.read_bytes()
        assert result.entries, name
        for entry in result.entries:
            start, end = entry.raw.source_span
            assert raw_bytes[start:end].decode("utf-8") == entry.raw.original_text


def _write_tex_two_resources(tmp_path: Path) -> tuple[Path, str, list[str]]:
    (tmp_path / "a.bib").write_text(
        "@article{muller2019,\n  title={\u00dcber neuronale Netze},\n"
        "  author={M\u00fcller, J\u00fcrgen},\n  year={2019},\n  journal={Nature}\n}\n"
        "@article{doe2020,\n  title={Gradient methods},\n  author={Doe, Jane},\n"
        "  year={2020},\n  journal={Science}\n}\n", encoding="utf-8")
    (tmp_path / "b.bib").write_text(
        "@article{roe2021,\n  title={Sparse coding revisited},\n  author={Roe, Rich},\n"
        "  year={2021},\n  journal={Cell}\n}\n", encoding="utf-8")
    tex = tmp_path / "paper.tex"
    tex.write_text("\\documentclass{article}\n\\begin{document}\nSee \\cite{doe2020}.\n"
                   "\\bibliography{a,b}\n\\end{document}\n", encoding="utf-8")
    return tex, "utf-8", ["a.bib", "a.bib", "b.bib"]


def _write_tex_bibitems(tmp_path: Path) -> tuple[Path, str, list[str]]:
    tex = tmp_path / "paper.tex"
    tex.write_text(
        "\\documentclass{article}\n\\begin{document}\n% \\bibitem{gone} commented out\n"
        "\\begin{thebibliography}{9}\n"
        "\\bibitem{muller2019} M\u00fcller, J. (2019). \u00dcber neuronale Netze. Nature.\n"
        "\\bibitem{doe2020} Doe, J. (2020). Gradient methods. Science.\n"
        "\\end{thebibliography}\n\\end{document}\n", encoding="utf-8")
    return tex, "utf-8", ["paper.tex", "paper.tex"]


def _write_latin1_txt(tmp_path: Path) -> tuple[Path, str, list[str]]:
    txt = tmp_path / "notes.txt"
    txt.write_bytes(
        "Notes on the r\u00e9sum\u00e9.\n\nReferences\n"
        "[1] M\u00fcller, J. (2019). \u00dcber neuronale Netze. Nature.\n"
        "[2] Doe, J. (2020). Gradient methods. Science.\n".encode("latin-1"))
    return txt, "latin-1", ["notes.txt", "notes.txt"]


@pytest.mark.parametrize("write", [_write_tex_two_resources, _write_tex_bibitems,
                                   _write_latin1_txt],
                         ids=["tex-two-bib-resources", "tex-bibitems", "latin1-txt"])
def test_spans_and_ordinals_through_one_entry_builder(tmp_path, write):
    """Ordinals run 1..n across every file of the artifact, and each span is a
    byte span into the file its entry names."""
    artifact, encoding, files = write(tmp_path)
    result = extract_references(artifact)
    raws = sorted([e.raw for e in result.entries] + [r.raw for r in result.rejected],
                  key=lambda raw: raw.ordinal)
    assert [raw.ordinal for raw in raws] == list(range(1, len(files) + 1))
    assert [Path(raw.source_path).name for raw in raws] == files
    for raw in raws:
        start, end = raw.source_span
        data = Path(raw.source_path).read_bytes()
        assert data[start:end].decode(encoding) == raw.original_text
        assert raw.original_text.strip()


def test_ordinals_strictly_increasing(corpus_paths):
    result = extract_references(corpus_paths["main"] / "references.bib")
    ordinals = [e.ordinal for e in result.entries]
    assert ordinals == sorted(ordinals)
    assert len(set(ordinals)) == len(ordinals)


# ---------------------------------------------------------------------------
# Lint
# ---------------------------------------------------------------------------

def _entry(key, ordinal, **kwargs) -> ReferenceInput:
    defaults = dict(title=f"Title {ordinal}", entry_kind="journal",
                    venue="Venue", year=2020,
                    fields={"title": f"Title {ordinal}"})
    defaults.update(kwargs)
    return ReferenceInput(raw=_raw(origin="bibtex", key=key, ordinal=ordinal), **defaults)


def test_duplicate_keys_flagged_in_groups():
    findings = lint_bibliography([_entry("smith2020", 1), _entry("smith2020", 2)])
    dupes = [f for f in findings if f.code == "duplicate_key"]
    assert len(dupes) == 2
    assert {f.entry_ordinal for f in dupes} == {1, 2}


def test_empty_entry_list_yields_no_findings():
    assert lint_bibliography([]) == []


def test_malformed_doi_flagged():
    entry = _entry("k", 1, suspect_doi="10./bad")
    findings = lint_bibliography([entry])
    assert any(f.code == "malformed_doi" for f in findings)


def test_missing_field_for_journal_kind():
    entry = _entry("k", 1, venue=None, year=None)
    codes = {f.code for f in lint_bibliography([entry])}
    assert "missing_field" in codes


def test_suspicious_year_flagged():
    entry = _entry("k", 1, year=2150)
    assert any(f.code == "suspicious_year" for f in lint_bibliography([entry]))


def test_findings_ordered_by_ordinal_then_code():
    entries = [_entry("dup", 2, year=2150), _entry("dup", 1)]
    findings = lint_bibliography(entries)
    assert [(f.entry_ordinal, f.code) for f in findings] == sorted(
        (f.entry_ordinal, f.code) for f in findings)


# Accepted entries in every input format: values that normalize to nothing,
# whitespace and braces, internal field names, identifiers in odd fields.
_ODD_VALUE = st.one_of(
    st.sampled_from(["", " ", "{}", "{ }", ".", "\u3000", "\u200b", "\u2014", "Doe, J.",
                     "A Title", "2020", "10.1000/xyz", "doi:10./bad", "arXiv:2101.00001",
                     "12345678", "https://arxiv.org/abs/2101.00001v2"]),
    st.text(st.characters(codec="utf-8", exclude_characters="{}\\@"), max_size=12))
_BIB_FIELD = st.sampled_from(["title", "Title", "doi", "pmid", "eprint", "arxiv", "url",
                              "note", "howpublished", "author", "year", "journal", "_x"])
_BIB_ENTRY = st.builds(
    lambda kind, key, fields: "@%s{%s,\n%s}\n" % (kind, key, ",\n".join(
        f"  {name} = {{{value}}}" for name, value in fields)),
    st.sampled_from(["article", "inproceedings", "book", "misc"]),
    st.sampled_from(["k", "k2", ""]),
    st.lists(st.tuples(_BIB_FIELD, _ODD_VALUE), max_size=4))
_FREE_LINE = st.one_of(
    st.sampled_from(["Doe, J. (2020). A title. Venue.", "doi:10.1000/xyz", "PMID: 12345678",
                     "arXiv:2101.00001", "\u2014\u2014\u2014", "...", "   ", "(2020).",
                     "Doe, J.", ""]),
    _ODD_VALUE)
_FREE_ENTRIES = st.lists(st.tuples(st.sampled_from(["[{}] ", "{}. ", "({}) ", ""]), _FREE_LINE),
                         max_size=5).map(
    lambda items: [marker.format(i) + line for i, (marker, line) in enumerate(items, 1)])


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["bib", "tex", "md", "txt", "docx"]), st.lists(_BIB_ENTRY, max_size=4),
       _FREE_ENTRIES, st.booleans())
def test_every_accepted_entry_carries_a_visible_value(tmp_path, ext, bib, lines, tex_names_bib):
    """normalize_reference rejects an entry with no title and no identifier,
    and the value it accepts on stays among the entry's visible fields; so
    the only empty_entry findings are extract_references' own, one per reject."""
    path = tmp_path / f"refs.{ext}"
    section = "\n".join(["References", *lines]) + "\n"
    if ext == "bib":
        path.write_text("".join(bib), encoding="utf-8")
    elif ext == "tex" and tex_names_bib:
        (tmp_path / "refs.bib").write_text("".join(bib), encoding="utf-8")
        path.write_text("\\bibliography{refs}\n", encoding="utf-8")
    elif ext == "tex":
        items = "".join(f"\\bibitem{{b{i}}} {line}\n" for i, line in enumerate(lines))
        path.write_text(f"\\begin{{thebibliography}}{{9}}\n{items}"
                        "\\end{thebibliography}\n" if items else section, encoding="utf-8")
    elif ext == "docx":
        # XML 1.0 has no way to write most control characters.
        path.write_bytes(corpus.make_docx(re.sub(
            r"[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]", "", section).splitlines()))
    else:
        path.write_text(section, encoding="utf-8")
    result = extract_references(path)
    for entry in result.entries:
        assert any(v.strip() for k, v in entry.fields.items() if not k.startswith("_"))
    assert sorted(f.entry_ordinal for f in result.lint if f.code == "empty_entry") == sorted(
        r.raw.ordinal for r in result.rejected)


def test_docx_corrupt_archive():
    from citecheck.errors import CorruptArchive
    with pytest.raises(CorruptArchive):
        extract_docx_text(b"this is not a zip archive at all")


def test_missing_bib_resource_becomes_lint_warning(tmp_path):
    (tmp_path / "paper.tex").write_text(
        "\\bibliography{ghost}\n\nReferences\n\n[1] Doe, J. (2020). Something. Venue.\n",
        encoding="utf-8")
    result = extract_references(tmp_path / "paper.tex")
    warnings = [f for f in result.lint if "ghost.bib" in f.message]
    assert warnings and warnings[0].severity == "warning"
    # Extraction falls through to the plain references section.
    assert len(result.entries) == 1
