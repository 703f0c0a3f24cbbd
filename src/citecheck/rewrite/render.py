"""Bibliography rendering in the four supported output formats.

Every renderer works from the same merged view: the chosen source record
overrides title/authors/year/venue/identifiers, the cited entry supplies
everything else (volume, pages, leftover BibTeX fields). Each format
renders one entry at a time, and one helper numbers and joins them.
Output is fully deterministic; the BibTeX form is a parser fixed point,
which the round-trip suite pins byte-for-byte.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from ..errors import UnsupportedFormat
from ..extraction.models import ReferenceInput
from ..sources import CandidateRecord
from .keys import assign_citation_keys
from .models import RENDER_FORMATS

# entry kind -> BibTeX type; everything without a dedicated form is @misc.
_BIBTEX_TYPE = {"journal": "article", "conference": "inproceedings"}

_ENDNOTE_TYPE = {
    "journal": "Journal Article",
    "conference": "Conference Proceedings",
    "book": "Book",
    "preprint": "Electronic Article",
    "other": "Generic",
    "unknown": "Generic",
}

# Fields the structured renderers own; anything else in the cited entry's
# field map tags along alphabetically so no data is dropped.
_OWNED_FIELDS = frozenset({
    "author", "title", "journal", "booktitle", "year", "volume", "pages", "doi",
    "eprint", "archiveprefix", "pmid", "venue", "date", "journaltitle", "arxiv",
    "arxivid", "url", "note", "howpublished", "series",
})


@dataclass(frozen=True)
class MergedEntry:
    key: str
    kind: str
    title: str | None
    authors: tuple[tuple[str, str], ...]
    year: int | None
    venue: str | None
    doi: str | None
    pmid: str | None
    arxiv_id: str | None
    volume: str | None
    pages: str | None
    extra_fields: tuple[tuple[str, str], ...]


def merge_entry(entry: ReferenceInput, chosen: CandidateRecord | None,
                key: str) -> MergedEntry:
    kind = entry.entry_kind
    if kind == "unknown" and chosen is not None and chosen.manifestation_kind != "unknown":
        kind = chosen.manifestation_kind
    extras = tuple(sorted(
        (name, value) for name, value in entry.fields.items()
        if not name.startswith("_") and name not in _OWNED_FIELDS and value.strip()
    ))
    record = chosen or entry
    return MergedEntry(
        key=key, kind=kind,
        title=record.title or entry.title,
        authors=record.authors or entry.authors,
        year=record.year if record.year is not None else entry.year,
        venue=record.venue or entry.venue,
        doi=record.doi or entry.doi,
        pmid=record.pmid or entry.pmid,
        arxiv_id=record.arxiv_id or entry.arxiv_id,
        volume=entry.fields.get("volume"),
        pages=entry.fields.get("pages"),
        extra_fields=extras,
    )


def merge_pairs(pairs: list[tuple[ReferenceInput, CandidateRecord | None]]) -> list[MergedEntry]:
    keys = assign_citation_keys([entry for entry, _ in pairs])
    return [merge_entry(entry, chosen, entry.citation_key or keys[entry.ordinal])
            for entry, chosen in pairs]


def render_bibliography(pairs: list[tuple[ReferenceInput, CandidateRecord | None]],
                        fmt: str) -> str:
    """Render the (possibly corrected) bibliography in one output format."""
    if fmt not in RENDER_FORMATS:
        raise UnsupportedFormat(f"unknown output format: {fmt}")
    return RENDERERS[fmt](merge_pairs(pairs))


def bibtex_authors(authors: tuple[tuple[str, str], ...]) -> str:
    """BibTeX author list: "Family, Given and Family"."""
    return " and ".join(f"{family}, {given}" if given else family
                        for family, given in authors)


def _author_display(authors: tuple[tuple[str, str], ...]) -> str:
    return ", ".join(f"{given} {family}".strip() for family, given in authors)


def render_bibtex_entry(m: MergedEntry) -> str:
    """One canonical @entry: sorted fields, two-space indent, no trailing comma."""
    entry_type = _BIBTEX_TYPE.get(m.kind, "misc")
    fields: list[tuple[str, str]] = []
    if m.authors:
        fields.append(("author", bibtex_authors(m.authors)))
    if m.title:
        fields.append(("title", m.title))
    if m.venue:
        fields.append(("booktitle" if entry_type == "inproceedings" else "journal", m.venue))
    if m.year is not None:
        fields.append(("year", str(m.year)))
    if m.volume:
        fields.append(("volume", m.volume))
    if m.pages:
        fields.append(("pages", m.pages))
    if m.doi:
        fields.append(("doi", m.doi))
    if m.arxiv_id:
        fields.append(("eprint", m.arxiv_id))
        fields.append(("archiveprefix", "arXiv"))
    if m.pmid:
        fields.append(("pmid", m.pmid))
    fields.extend(m.extra_fields)
    lines = [f"@{entry_type}{{{m.key},"]
    for i, (name, value) in enumerate(fields):
        comma = "," if i + 1 < len(fields) else ""
        lines.append(f"  {name} = {{{value}}}{comma}")
    lines.append("}")
    return "\n".join(lines)


def render_text_entry(m: MergedEntry) -> str:
    parts = []
    if m.authors:
        parts.append(_author_display(m.authors) + ".")
    if m.title:
        parts.append(m.title + ".")
    venue_year = ", ".join(p for p in (m.venue, str(m.year) if m.year else None) if p)
    if venue_year:
        parts.append(venue_year + ".")
    if m.doi:
        parts.append(f"doi:{m.doi}.")
    elif m.arxiv_id:
        parts.append(f"arXiv:{m.arxiv_id}.")
    if m.pmid:
        parts.append(f"PMID:{m.pmid}.")
    return " ".join(parts)


def patch_text_entry(m: MergedEntry) -> str:
    """Entry body for text-format patches, in the parser's strongest shape.

    Display rendering puts the year after the venue, but that layout does
    not survive re-extraction when authors are cited initials-first
    ("T. Brown." never ends a chunk). Patches instead lead with
    "Family, G. (Year).", so everything reads back as written, except a
    lone author with a full given name: "Doe, Jane" reads back as two
    one-word names.
    """
    parts = []
    authors = bibtex_authors(m.authors)
    if authors and m.year is not None:
        parts.append(f"{authors} ({m.year}).")
    elif authors:
        parts.append(f"{authors}.")
    elif m.year is not None:
        parts.append(f"({m.year}).")
    if m.title:
        parts.append(m.title + ".")
    if m.venue:
        parts.append(m.venue + ".")
    if m.doi:
        parts.append(f"https://doi.org/{m.doi}")
    elif m.arxiv_id:
        parts.append(f"arXiv:{m.arxiv_id}.")
    if m.pmid:
        parts.append(f"PMID: {m.pmid}.")
    return " ".join(parts)


def render_markdown_entry(m: MergedEntry) -> str:
    link = None
    if m.doi:
        link = f"https://doi.org/{m.doi}"
    elif m.arxiv_id:
        link = f"https://arxiv.org/abs/{m.arxiv_id}"
    title = m.title or "(untitled)"
    title_part = f"[{title}]({link})" if link else title
    lead = _author_display(m.authors)
    year_part = f" ({m.year})" if m.year is not None else ""
    venue_part = f" *{m.venue}*." if m.venue else ""
    head = f"{lead}{year_part}. " if lead else ""
    return f"{head}{title_part}.{venue_part}"


def render_endnote_entry(m: MergedEntry) -> str:
    lines = [f"%0 {_ENDNOTE_TYPE.get(m.kind, 'Generic')}"]
    for family, given in m.authors:
        lines.append(f"%A {family}, {given}" if given else f"%A {family}")
    if m.title:
        lines.append(f"%T {m.title}")
    if m.venue:
        lines.append(f"%J {m.venue}")
    if m.year is not None:
        lines.append(f"%D {m.year}")
    if m.volume:
        lines.append(f"%V {m.volume}")
    if m.pages:
        lines.append(f"%P {m.pages}")
    if m.doi:
        lines.append(f"%R {m.doi}")
    if m.pmid:
        lines.append(f"%M {m.pmid}")
    return "\n".join(lines)


def _render_entries(render_one: Callable[[MergedEntry], str], separator: str, label: str,
                    merged: list[MergedEntry]) -> str:
    """Each entry after `label` filled with its 1-based number, joined by
    `separator` and newline-ended; "" for no entries."""
    if not merged:
        return ""
    return separator.join(label.format(number) + render_one(m)
                          for number, m in enumerate(merged, start=1)) + "\n"


# One renderer per output format, in RENDER_FORMATS order.
RENDERERS = {
    "bibtex": partial(_render_entries, render_bibtex_entry, "\n\n", ""),
    "text": partial(_render_entries, render_text_entry, "\n", "[{}] "),
    "markdown": partial(_render_entries, render_markdown_entry, "\n", "{}. "),
    "endnote": partial(_render_entries, render_endnote_entry, "\n\n", ""),
}
