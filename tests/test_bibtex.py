"""Tolerant BibTeX parser: recovery, macros, span fidelity."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibtex_by_hand import parse_bibtex as parse_bibtex_by_hand
from citecheck.errors import CitecheckError
from citecheck.extraction.bibtex import char_to_byte_spans, parse_bibtex


def test_minimal_entry():
    result = parse_bibtex("@article{k1, title={T}, year={2020}}")
    assert len(result.entries) == 1
    entry = result.entries[0]
    assert entry.key == "k1"
    assert entry.entry_type == "article"
    assert entry.field_map() == {"title": "T", "year": "2020"}


def test_recovery_between_valid_entries():
    text = (
        "@article{good1, title={A}, year={2001}}\n"
        "@article{broken, title={unterminated\n"  # no closing brace before next @
        "@article{good2, title={B}, year={2002}}\n"
    )
    result = parse_bibtex(text)
    keys = [e.key for e in result.entries]
    assert keys == ["good1", "good2"]
    assert len(result.errors) == 1
    # Recovery resumes exactly at the next top-level "@".
    good2 = result.entries[1]
    assert text[good2.span[0]:good2.span[1]].startswith("@article{good2")


def test_string_macro_expansion():
    text = "@string{jn = {Nature}} @article{k, journal = jn, title={T}}"
    result = parse_bibtex(text)
    assert result.entries[0].field_map()["journal"] == "Nature"
    assert result.strings == {"jn": "Nature"}


def test_string_concatenation():
    text = '@string{jn = {Nature}} @article{k, journal = jn # " Methods", title={T}}'
    result = parse_bibtex(text)
    assert result.entries[0].field_map()["journal"] == "Nature Methods"


def test_non_decimal_digit_value_is_a_macro_name():
    # "²" is str.isdigit() but not a decimal digit.
    entry = parse_bibtex("@misc{k, year = ², title={T}}").entries[0]
    assert entry.field_map() == {"year": "²", "title": "T"}


def test_quoted_and_numeric_values():
    text = '@article{k, title = "Quoted {Braces} inside", year = 1999}'
    entry = parse_bibtex(text).entries[0]
    assert entry.field_map()["title"] == "Quoted {Braces} inside"
    assert entry.field_map()["year"] == "1999"


def test_comment_and_preamble_skipped():
    text = ("@comment{ignore {nested} stuff}\n"
            "@preamble{\"\\makeatletter\"}\n"
            "@misc{k, title={Kept}}\n")
    result = parse_bibtex(text)
    assert [e.key for e in result.entries] == ["k"]
    assert not result.errors


def test_unterminated_comment_block_is_an_error_and_parsing_resumes():
    text = "@comment{never closed\n@misc{k, title={Kept}}\n"
    result = parse_bibtex(text)
    assert [e.key for e in result.entries] == ["k"]
    assert [(e.offset, e.message) for e in result.errors] == [
        (0, "unterminated comment/preamble block")]


def test_spans_reproduce_source_exactly():
    text = "junk before\n@article{k1,\n  title = {Exact},\n  year = {2020}\n}\nafter"
    entry = parse_bibtex(text).entries[0]
    start, end = entry.span
    assert text[start:end].startswith("@article{k1")
    assert text[start:end].endswith("}")
    # Field value span covers the raw delimited value.
    title = next(f for f in entry.fields if f.name == "title")
    assert text[title.value_span[0]:title.value_span[1]] == "{Exact}"


def test_char_to_byte_span_with_multibyte_text():
    text = "@article{k, author = {Müller, J.}, title={Ŧ}}"
    entry = parse_bibtex(text).entries[0]
    spans = [entry.span, entry.key_span] + [f.value_span for f in entry.fields]
    raw = text.encode("utf-8")
    for (start, end), (byte_start, byte_end) in zip(spans, char_to_byte_spans(text, spans)):
        assert raw[byte_start:byte_end].decode("utf-8") == text[start:end]


def test_case_insensitive_types_and_fields():
    entry = parse_bibtex("@ARTICLE{K, TITLE={T}, Year={2020}}").entries[0]
    assert entry.entry_type == "article"
    assert entry.field_map() == {"title": "T", "year": "2020"}
    assert entry.key == "K"  # keys stay case-sensitive


def test_parenthesized_entry_delimiters():
    entry = parse_bibtex("@article(k1, title={T})").entries[0]
    assert entry.key == "k1"
    assert entry.field_map()["title"] == "T"


def test_duplicate_field_first_occurrence_wins():
    entry = parse_bibtex("@misc{k, title={First}, title={Second}}").entries[0]
    assert entry.field_map()["title"] == "First"


def test_trailing_comma_tolerated():
    entry = parse_bibtex("@misc{k, title={T},}").entries[0]
    assert entry.field_map() == {"title": "T"}


# ---------------------------------------------------------------------------
# An entry parsed alone has the spans of the whole-file parse, shifted
# ---------------------------------------------------------------------------

_TEXT = st.text(st.characters(codec="utf-8", exclude_characters='{}"\\@'), max_size=8)
_NAME = st.text(st.characters(codec="utf-8", exclude_categories=("Z", "C"),
                              exclude_characters='@,={}()"#\\'), min_size=1, max_size=5)
_VALUE_PART = st.one_of(
    _TEXT.map(lambda t: "{%s}" % t),
    _TEXT.map(lambda t: "{a {%s} \\} b}" % t),
    _TEXT.map(lambda t: '"%s"' % t),
    st.integers(0, 2100).map(str),
    _NAME,  # an @string macro, defined or not
)
_VALUE = st.lists(_VALUE_PART, min_size=1, max_size=3).map(" # ".join)
_FIELD = st.tuples(_NAME, _VALUE).map(lambda f: f"{f[0]} = {f[1]}")
_ENTRY = st.builds(
    lambda kind, delims, key, fields, sep, tail: (
        f"@{kind}{delims[0]}{key},{sep}" + f",{sep}".join(fields) + tail + delims[1]),
    st.sampled_from(["article", "misc", "InProceedings"]),
    st.sampled_from(["{}", "()"]),
    _NAME,
    st.lists(_FIELD, max_size=4),
    st.sampled_from(["", " ", "\n  "]),
    st.sampled_from(["", ",", "\n"]),
)
_STRING = st.tuples(_NAME, _VALUE).map(lambda m: "@string{%s = %s}" % m)
_NOISE = st.text(st.sampled_from(list('@{}(),="#% \n\\az09') + ["é", "€", "😀"]),
                 max_size=30)
_BIB_TEXT = st.lists(st.one_of(_ENTRY, _ENTRY, _STRING, _NOISE), max_size=6).map("\n".join)


@settings(max_examples=300, deadline=None, database=None)
@given(_BIB_TEXT)
@example('@string{j = {Jour}}\n@article{k, journal = j # " X", year = 2020}')
@example("@misc{k, note = {@misc{inner, a = {b}}}, title = {€}}")
def test_entry_parsed_alone_has_shifted_spans(text):
    raw = text.encode("utf-8")
    entries = parse_bibtex(text).entries
    entry_bytes = char_to_byte_spans(text, [e.span for e in entries])
    for entry, (byte_start, byte_end) in zip(entries, entry_bytes):
        start, end = entry.span
        alone = parse_bibtex(text[start:end]).entries
        assert len(alone) == 1
        local = alone[0]
        assert local.key == entry.key
        assert [f.name for f in local.fields] == [f.name for f in entry.fields]
        spans = [entry.key_span] + [f.value_span for f in entry.fields]
        local_spans = [local.key_span] + [f.value_span for f in local.fields]
        assert [(s + start, e + start) for s, e in local_spans] == spans
        # The same holds in bytes, which is how rewrite planning uses it.
        assert raw[byte_start:byte_end] == text[start:end].encode("utf-8")
        local_bytes = char_to_byte_spans(text[start:end], local_spans)
        assert ([(s + byte_start, e + byte_start) for s, e in local_bytes]
                == char_to_byte_spans(text, spans))


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(_BIB_TEXT, _BIB_TEXT.flatmap(lambda t: st.integers(0, len(t)).map(
    lambda n: t[:n])), st.text()))
def test_parse_bibtex_raises_only_citecheck_errors(text):
    try:
        result = parse_bibtex(text)
    except CitecheckError:
        return
    assert all(0 <= e.span[0] < e.span[1] <= len(text) for e in result.entries)


# ---------------------------------------------------------------------------
# The regex tokenizer reads as the per-character scanner did
# ---------------------------------------------------------------------------

# Entry heads of every kind and both delimiters, nesting and unbalanced
# delimiters, escapes (a draw may end on a lone backslash), concatenation,
# numbers, a digit that is not decimal ("²") and one that is ("١"), and
# whitespace beyond ASCII that str.isspace knows ("\x1c", "\u3000").
_PIECES = ["@article{", "@misc(", "@string{", "@STRING(", "@comment{", "@preamble(",
           "@ Comment {", "@", "k", "title", "jn", "=", ",", "{", "}", "(", ")", '"', "#",
           "\\", "\\{", "\\}", '\\"', " ", "\n", "\x1c", "\u3000", "2020", "²", "١٢", "é"]


def _parsed(result) -> tuple:
    """Every entry (type, key, spans, fields), every error and the macro table."""
    return result.entries, result.errors, result.strings


@settings(max_examples=1000, deadline=None, database=None)
@given(st.one_of(_BIB_TEXT, st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)))
@example("@string{2020 = {x}} @misc{k, year = 2020 # ², t = 2020x}")
@example('@misc{k, t = "a}b"c{"d"}')
@example("@comment{\\}@misc{k, t = {a\\}}}} @preamble(a (b) {c)")
@example("@string{١٢ = {x}} @misc{k, t = ١٢ # ²}")
@example('@misc{k, t = {x} # "y\\"z" # {\\')
@example("@string(jn = {J} # \x1c jn\x1c) @misc\x1c(k\x1c,\x1ct=jn)")
def test_regex_tokenizer_matches_the_character_scanner(text):
    assert _parsed(parse_bibtex(text)) == _parsed(parse_bibtex_by_hand(text))


def test_regex_tokenizer_matches_the_character_scanner_on_the_corpus(corpus_paths):
    bibs = sorted(corpus_paths["main"].parent.rglob("*.bib"))
    assert bibs
    for bib in bibs:
        text = bib.read_text(encoding="utf-8")
        assert _parsed(parse_bibtex(text)) == _parsed(parse_bibtex_by_hand(text)), bib
