"""Text and identifier normalization shared by extraction and matching.

Match keys are casefolded, diacritic-folded, punctuation-stripped token
sets; display strings keep their original casing. Identifier normalizers
are the single source of truth: extraction and connectors must agree on
them or record linkage silently degrades.
"""

from __future__ import annotations

import re
import unicodedata

# Syntactic DOI shape: 10.<registrant>/<suffix>, registrant all-numeric
# (possibly dotted). Looser than Crossref's full grammar, strict enough to
# reject obvious garbage like "10./bad".
DOI_RE = re.compile(r"^10\.\d{2,9}(?:\.\d+)*/\S+$")

_DOI_PREFIX_RE = re.compile(r"^(?:https?://(?:dx\.)?doi\.org/|doi:)\s*", re.IGNORECASE)

# New-style (2101.00001v2) and old-style (math.GT/0309136) arXiv ids.
_ARXIV_NEW_RE = re.compile(r"(\d{4}\.\d{4,5})(v\d+)?")
_ARXIV_OLD_RE = re.compile(r"([a-z-]+(?:\.[A-Z]{2})?/\d{7})(v\d+)?")
_ARXIV_CONTEXT_RE = re.compile(
    r"(?:arxiv[:.\s/]*(?:abs/|pdf/)?|https?://(?:www\.)?arxiv\.org/(?:abs|pdf)/)"
    r"((?:\d{4}\.\d{4,5}|[a-z-]+(?:\.[A-Z]{2})?/\d{7})(?:v\d+)?)",
    re.IGNORECASE,
)

_TOKEN_RE = re.compile(r"[0-9a-z]+")

# Exactly 50 entries; relaxed (pass 3) queries and citation keys skip these
# for a title's content words.
STOP_WORDS = frozenset({
    "a", "about", "above", "after", "against", "all", "an", "and", "any", "are",
    "as", "at", "be", "been", "between", "both", "but", "by", "for", "from",
    "further", "has", "have", "in", "into", "is", "it", "its", "more", "no",
    "not", "of", "on", "or", "over", "so", "some", "such", "than", "that",
    "the", "their", "this", "through", "to", "under", "until", "up", "via",
    "with",
})
_WS_RE = re.compile(r"\s+")

_SPECIAL_LETTERS = str.maketrans({
    "ø": "o", "Ø": "O", "ł": "l", "Ł": "L", "đ": "d", "Đ": "D", "ß": "ss", "æ": "ae",
    "Æ": "AE", "œ": "oe", "Œ": "OE", "þ": "th", "Þ": "TH"})


def fold_diacritics(text: str) -> str:
    """Strip combining marks; map a few letters NFKD leaves alone (ø, ł, ß...)."""
    if text.isascii():
        return text  # no marks, and NFKD leaves ASCII as it is
    decomposed = unicodedata.normalize("NFKD", text.translate(_SPECIAL_LETTERS))
    return "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn")


def normalize_display(text: str) -> str:
    """Display-form normalization: NFKC plus whitespace collapse. Case preserved."""
    return _WS_RE.sub(" ", unicodedata.normalize("NFKC", text)).strip()


def match_tokens(text: str) -> frozenset[str]:
    """Casefolded, diacritic-folded, punctuation-stripped token set for matching."""
    return frozenset(_TOKEN_RE.findall(fold_diacritics(text).casefold()))


def content_words(title: str) -> list[str]:
    """The title's diacritic-folded, casefolded words in order, stop words dropped."""
    return [w for w in _TOKEN_RE.findall(fold_diacritics(title).casefold())
            if w not in STOP_WORDS]


def jaccard(ta: frozenset[str], tb: frozenset[str]) -> float:
    """Jaccard similarity of two token sets; an empty set scores 0.0."""
    if not ta or not tb:
        return 0.0
    return len(ta & tb) / len(ta | tb)


def match_key(text: str) -> str:
    """Canonical match key: sorted token set joined by spaces."""
    return " ".join(sorted(match_tokens(text)))


def normalize_doi(value: str) -> str | None:
    """Strip resolver prefixes and lowercase; None when the rest is not DOI-shaped."""
    candidate = _DOI_PREFIX_RE.sub("", value.strip()).strip().rstrip(".,;")
    candidate = candidate.lower()
    if DOI_RE.match(candidate):
        return candidate
    return None


def strip_doi_prefix(value: str) -> str:
    """Prefix-strip and lowercase without validating; used to report malformed DOIs."""
    return _DOI_PREFIX_RE.sub("", value.strip()).strip().lower()


def normalize_arxiv_id(value: str) -> tuple[str, int | None] | None:
    """Extract (id, version) from bare ids, arXiv:... prefixes, and URLs.

    The version suffix is stripped from the id and returned separately.
    """
    value = value.strip()
    m = _ARXIV_CONTEXT_RE.search(value)
    if m:
        value = m.group(1)
    for pattern in (_ARXIV_NEW_RE, _ARXIV_OLD_RE):
        m = pattern.fullmatch(value)
        if m:
            version = int(m.group(2)[1:]) if m.group(2) else None
            return m.group(1), version
    return None


def find_arxiv_id(text: str) -> tuple[str, int | None] | None:
    """Find an arXiv id anywhere in free text (requires an arXiv context marker)."""
    m = _ARXIV_CONTEXT_RE.search(text)
    if m:
        return normalize_arxiv_id(m.group(1))
    return None


def identifier_map(doi: str | None, pmid: str | None,
                   arxiv_id: str | None) -> dict[str, str]:
    """The identifiers present, keyed doi, pmid, arxiv: the order in which
    verification tries them."""
    ids: dict[str, str] = {}
    if doi:
        ids["doi"] = doi
    if pmid:
        ids["pmid"] = pmid
    if arxiv_id:
        ids["arxiv"] = arxiv_id
    return ids


def normalize_pmid(value: str) -> str | None:
    digits = re.sub(r"^(?:pmid[:\s]*)", "", value.strip(), flags=re.IGNORECASE).strip()
    return digits if digits.isdigit() else None


def split_person_name(name: str) -> tuple[str, str]:
    """Split one person name into (family, given-or-initials).

    Handles "Family, Given", "Given Family", and PubMed's "Family IN" form
    where the trailing token is bare initials.
    """
    name = normalize_display(name)
    if not name:
        return "", ""
    if "," in name:
        family, _, given = name.partition(",")
        return family.strip(), given.strip()
    parts = name.split()
    if len(parts) == 1:
        return parts[0], ""
    last = parts[-1]
    # "Walters WH": trailing all-caps token of 1-3 letters is initials.
    if last.isupper() and last.isalpha() and len(last) <= 3 and len(parts[0]) > 1:
        return " ".join(parts[:-1]), last
    return parts[-1], " ".join(parts[:-1])


def initials_of(given: str) -> str:
    """First letters of each given-name chunk, casefolded ("J. R." -> "jr")."""
    chunks = re.split(r"[\s.\-]+", given)
    return "".join(c[0] for c in chunks if c).casefold()


def family_key(family: str) -> str:
    return "".join(sorted(match_tokens(family))) if family else ""
