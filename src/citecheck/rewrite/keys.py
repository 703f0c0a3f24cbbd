"""Citation-key generation: firstauthor + year + first title word.

Keys are ASCII-folded and casefolded. Collisions within one batch get
alphabetic suffixes in entry order. Every member of the colliding group
gets one, so "doe2020great" never ambiguously survives next to
"doe2020greatb".
"""

from __future__ import annotations

import re

from .. import textnorm
from ..extraction.models import ReferenceInput


def _slug(text: str) -> str:
    return re.sub(r"[^0-9a-z]+", "", textnorm.fold_diacritics(text).casefold())


def _first_content_word(title: str | None) -> str:
    words = textnorm.content_words(title or "")
    return words[0] if words else "untitled"


def generate_citation_key(entry: ReferenceInput) -> str:
    family = _slug(entry.authors[0][0]) if entry.authors else ""
    author = family or "anon"
    year = str(entry.year) if entry.year is not None else "nd"
    return f"{author}{year}{_first_content_word(entry.title)}"


def assign_citation_keys(entries: list[ReferenceInput]) -> dict[int, str]:
    """Ordinal -> key for a whole batch, with collision suffixes a, b, c...

    Deterministic: suffixes follow entry order. More than 26 collisions on
    one base key would be pathological; suffixes then continue aa, ab, ...
    """
    bases = [(entry.ordinal, generate_citation_key(entry)) for entry in entries]
    by_base: dict[str, list[int]] = {}
    for ordinal, base in bases:
        by_base.setdefault(base, []).append(ordinal)

    def suffix(i: int) -> str:
        letters = ""
        while True:
            letters = chr(ord("a") + i % 26) + letters
            i = i // 26 - 1
            if i < 0:
                return letters

    assigned: dict[int, str] = {}
    for base, ordinals in by_base.items():
        if len(ordinals) == 1:
            assigned[ordinals[0]] = base
        else:
            for i, ordinal in enumerate(ordinals):
                assigned[ordinal] = f"{base}{suffix(i)}"
    return assigned
