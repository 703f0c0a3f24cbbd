"""Reference-section detection and free-text entry segmentation.

Plain-text and Markdown manuscripts carry no structure, so segmentation is
heuristic by design: numbered markers when present, else blank-line blocks,
else one entry per line. Spans always reference the *original* text; the
cleaned copies used for field parsing never leak into offsets.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Callable

from .. import textnorm

# "References", "## References", "7. References", "2) Bibliography:" ...
_HEADER_RE = re.compile(
    r"^(?P<hash>#{1,6}\s+)?(?P<num>\d+(?:\.\d+)*[.)]?\s+)?"
    r"(?P<name>references|bibliography|works\s+cited)\s*:?\s*$",
    re.IGNORECASE,
)

# A short line of capitalized words reads as a section header ("Appendix").
_BARE_HEADER_RE = re.compile(r"^[A-Z][A-Za-z0-9 ]{0,39}$")

# Entry markers: "[1] ", "1. ", "(1) ", "1) ". "[1]" must not be a md link.
_MARKER_RE = re.compile(r"^\s*(?:\[(\d+)\](?!\()|\((\d+)\)|(\d+)[.)])\s+")

_MD_LINK_RE = re.compile(r"\[([^\]]*)\]\(([^)]*)\)")

_DOI_IN_TEXT_RE = re.compile(
    r"(?:doi:\s*|https?://(?:dx\.)?doi\.org/)?(10\.\d{2,9}(?:\.\d+)*/[^\s,;]+)",
    re.IGNORECASE,
)
_PMID_IN_TEXT_RE = re.compile(r"\bPMID[:\s]*(\d{1,9})\b", re.IGNORECASE)
_YEAR_RE = re.compile(r"\b(\d{4})\b")
_PAREN_YEAR_RE = re.compile(r"\((\d{4})[a-z]?\)")

YEAR_MIN, YEAR_MAX = 1500, 2099


def _is_bare_header(line: str) -> bool:
    stripped = line.strip()
    if not _BARE_HEADER_RE.match(stripped):
        return False
    words = stripped.split()
    return len(words) <= 4 and all(w[0].isupper() or w[0].isdigit() for w in words)


def _closes_numbered_section(line: str) -> bool:
    # "8. Conclusion" closes the section; "8. Doe, J. (2020). ..." is an
    # entry. The remainder after the number must itself read as a header.
    m = re.match(r"^\s*\d+(?:\.\d+)*[.)]?\s+(?P<rest>\S.*)$", line)
    return m is not None and _is_bare_header(m.group("rest"))


def detect_reference_section(text: str) -> tuple[int, int] | None:
    """Character span of the references section, or None.

    The span runs from the line after the *last* matching header to the end
    of the document or the next header of the same level, whichever comes
    first.
    """
    lines = text.splitlines(keepends=True)
    offsets = list(itertools.accumulate((len(line) for line in lines), initial=0))
    headers = [(i, m) for i, line in enumerate(lines) if (m := _HEADER_RE.match(line.strip()))]
    if not headers:
        return None
    header_idx, header_match = headers[-1]

    # The section ends at the first later line that closes it.
    closes: Callable[[str], object] = _is_bare_header
    if header_match.group("hash"):
        level = len(header_match.group("hash").strip())
        closes = re.compile(r"^#{1,%d}\s+\S" % level).match
    elif header_match.group("num"):
        closes = _closes_numbered_section
    start = offsets[header_idx + 1]
    end = next((offsets[j] for j in range(header_idx + 1, len(lines)) if closes(lines[j])),
               len(text))
    if start >= end:
        return None
    return (start, end)


def strip_markdown_links(text: str) -> str:
    """Rewrite [text](url) as "text url" so identifiers in URLs stay visible."""
    return _MD_LINK_RE.sub(lambda m: f"{m.group(1)} {m.group(2)}".strip(), text)


def segment_references(text: str, span: tuple[int, int]) -> list[tuple[int, int]]:
    """Split a references block into per-entry character spans.

    Preference order: explicit numbered markers, blank-line blocks, single
    lines. Returned spans are trimmed of surrounding whitespace and always
    lie inside `span`.
    """
    start, end = span
    block = text[start:end]
    lines = block.splitlines(keepends=True)
    offsets = list(itertools.accumulate((len(line) for line in lines), initial=0))

    marker_lines = [i for i, line in enumerate(lines) if _MARKER_RE.match(line)]
    if marker_lines:
        bounds = [offsets[i] for i in marker_lines] + [len(block)]
        spans = list(zip(bounds, bounds[1:]))
    elif any(not line.strip() for line in lines):
        spans = []
        for blank, run in itertools.groupby(range(len(lines)), lambda i: not lines[i].strip()):
            if not blank:
                block_lines = list(run)
                spans.append((offsets[block_lines[0]], offsets[block_lines[-1] + 1]))
    else:
        spans = [(offsets[i], offsets[i + 1]) for i, line in enumerate(lines) if line.strip()]

    trimmed: list[tuple[int, int]] = []
    for seg_start, seg_end in spans:
        segment = block[seg_start:seg_end]
        lead = len(segment) - len(segment.lstrip())
        tail = len(segment) - len(segment.rstrip())
        if seg_start + lead < seg_end - tail:
            trimmed.append((start + seg_start + lead, start + seg_end - tail))
    return trimmed


def marker_length(text: str) -> int:
    """The length of the numbering marker ("[3] ", "4. ") heading an entry, 0 if none."""
    m = _MARKER_RE.match(text)
    return m.end() if m else 0


def first_plausible_year(text: str) -> int | None:
    """First 4-digit integer in the plausible publication window."""
    for m in _YEAR_RE.finditer(text):
        value = int(m.group(1))
        if YEAR_MIN <= value <= YEAR_MAX:
            return value
    return None


def _looks_like_authors(chunk: str) -> bool:
    if " and " in chunk or "&" in chunk:
        return True
    # "Doe, J." / "Doe, J. B." shapes
    return bool(re.search(r"[A-Z][\w'-]+,\s*(?:[A-Z]\.?\s*)+", chunk))


def _split_sentences(text: str) -> list[str]:
    # Split on ". " only when the period follows >= 2 word chars, so author
    # initials ("J.") never end a chunk.
    parts = re.split(r"(?<=\w{2})\.\s+", text)
    return [p.strip().rstrip(".") for p in parts if p.strip().rstrip(".")]


def parse_freetext_fields(entry_text: str) -> dict[str, str]:
    """Heuristic field map {author, title, venue, year, doi, pmid, arxiv} from one entry."""
    text = entry_text.replace("\n", " ")
    text = text[marker_length(text):]
    text = re.sub(r"\s+", " ", text).strip()
    fields: dict[str, str] = {}

    m = _DOI_IN_TEXT_RE.search(text)
    if m:
        fields["doi"] = m.group(1)
    m = _PMID_IN_TEXT_RE.search(text)
    if m:
        fields["pmid"] = m.group(1)
    arxiv = textnorm.find_arxiv_id(text)
    if arxiv:
        fields["arxiv"] = arxiv[0] if arxiv[1] is None else f"{arxiv[0]}v{arxiv[1]}"

    # Drop identifier tails before structural parsing.
    body = _DOI_IN_TEXT_RE.sub("", text)
    body = _PMID_IN_TEXT_RE.sub("", body)
    body = re.sub(r"https?://\S+", "", body)
    body = re.sub(r"\barXiv[:\s]*\S+", "", body, flags=re.IGNORECASE)
    body = re.sub(r"\s+", " ", body).strip().strip(",;")

    # "Authors (Year). Title. Venue" splits at the year; otherwise the first
    # sentence is the authors only when it reads as names and more follows.
    paren_year = _PAREN_YEAR_RE.search(body)
    if paren_year:
        year = int(paren_year.group(1))
        if YEAR_MIN <= year <= YEAR_MAX:
            fields["year"] = paren_year.group(1)
        authors = body[: paren_year.start()].strip().rstrip(",; ")
        chunks = _split_sentences(body[paren_year.end():].lstrip(" .:"))
    else:
        year = first_plausible_year(body)
        if year is not None:
            fields["year"] = str(year)
        chunks = _split_sentences(body)
        authors = ""
        if len(chunks) > 1 and _looks_like_authors(chunks[0]):
            authors, *chunks = chunks
    if authors:
        fields["author"] = authors
    if chunks:
        fields["title"] = chunks[0]
    if len(chunks) > 1:
        fields["venue"] = _clean_venue(chunks[1])
    # A "title" without a single word character (dash runs, ellipses) is
    # decoration, not data; dropping it lets normalization reject the entry.
    if "title" in fields and not re.search(r"[0-9A-Za-z]", fields["title"]):
        del fields["title"]
    return fields


def _clean_venue(chunk: str) -> str:
    chunk = re.sub(r"\b\d{4}\b", "", chunk)
    chunk = re.sub(r"\b\d+\s*\(\d+\)", "", chunk)  # volume(issue)
    chunk = re.sub(r"\b(?:pp?\.|pages?)\s*[\d\u2013-]+", "", chunk, flags=re.IGNORECASE)
    chunk = re.sub(r"[\d:\u2013-]+\s*$", "", chunk)
    return chunk.strip(" ,;.").strip()


def _is_initials(token: str) -> bool:
    """Initials, optionally then one given name: "J.", "J. A.", "Ü.", "J. Alan"."""
    shape = "".join("A" if c.isupper() else "a" if c.islower() else c for c in token)
    return re.fullmatch(r"(?:A\.?\s*)+(?:Aa+)?", shape) is not None


def split_freetext_authors(author_text: str) -> list[tuple[str, str]]:
    """Author list from free text: ';' wins, then BibTeX-ish 'and', then comma pairing.

    Commas pair "Family, I." tokens. A list whose last author, after its
    final 'and', is written "Family, Given" is in that form throughout, so
    its tokens pair two by two whatever the given names are ("Smith-Jones,
    Mary Ann and Doe, Jane"). A lone "Doe, Jane" has no 'and' to tell it
    from two one-word names, and reads as two authors.
    """
    author_text = re.sub(r",?\s*(?:and|&)\s+et al\.?$", "", author_text, flags=re.IGNORECASE)
    author_text = re.sub(r",?\s*et al\.?$", "", author_text, flags=re.IGNORECASE).strip()
    if not author_text:
        return []
    if ";" in author_text:
        parts = [p.strip() for p in author_text.split(";") if p.strip()]
        return [textnorm.split_person_name(p) for p in parts]
    # Normalize " and " / "&" to commas, then pair "Family, Given" tokens.
    parts = re.split(r"\s+(?:and|&)\s+", author_text)
    tokens = [t.strip() for t in ", ".join(parts).split(",") if t.strip()]
    family_first = (len(parts) > 1 and parts[-1].count(",") == 1
                    and len(tokens) % 2 == 0)
    authors: list[tuple[str, str]] = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        if nxt is not None and (family_first or _is_initials(nxt)):
            authors.append((token, nxt))
            i += 2
        else:
            authors.append(textnorm.split_person_name(token))
            i += 1
    return [(f, g) for f, g in authors if f]
