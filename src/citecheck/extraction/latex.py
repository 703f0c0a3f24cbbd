"""LaTeX-side extraction: bibliography resource tracing and inline bibitems."""

from __future__ import annotations

import re
from dataclasses import dataclass

_BIBLIOGRAPHY_RE = re.compile(r"\\bibliography\{([^}]*)\}")
_ADDBIBRESOURCE_RE = re.compile(r"\\addbibresource(?:\[[^\]]*\])?\{([^}]*)\}")
BIBITEM_RE = re.compile(r"\\bibitem(?:\[[^\]]*\])?\{([^}]*)\}")
_THEBIB_END_RE = re.compile(r"\\end\{thebibliography\}")

# \cite and friends (natbib, biblatex). Used for key-rename safety scans.
CITE_COMMAND_RE = re.compile(
    r"\\(?:no)?(?:cite|Cite)[a-zA-Z]*\*?(?:\[[^\]]*\])*\{([^}]*)\}"
)


# An escaped character, or a '%' comment to the end of its line as
# str.splitlines ends lines. A CR or LF ends the comment and stays; any
# other line break is blanked with it.
_OTHER_BREAKS = r"\v\f\x1c-\x1e\x85\u2028\u2029"
_COMMENT_RE = re.compile(rf"(\\.)|%[^\n\r{_OTHER_BREAKS}]*[{_OTHER_BREAKS}]?", re.DOTALL)


def strip_comments(tex_source: str) -> str:
    """Blank out '%' comments (preserving offsets) so directives in them are ignored.

    Escaped ``\\%`` does not start a comment. Characters are replaced with
    spaces instead of removed so every span survives unchanged.
    """
    return _COMMENT_RE.sub(lambda m: m[1] or " " * len(m[0]), tex_source)


def named_bib_resources(cleaned: str) -> list[str]:
    """Names given to \\bibliography / \\addbibresource in comment-stripped
    source (see strip_comments), whether or not they exist.

    Names from ``\\bibliography{a,b}`` get ``.bib`` appended when missing.
    Results keep first-appearance order, deduplicated.
    """
    named: list[str] = []
    matches = sorted(
        list(_BIBLIOGRAPHY_RE.finditer(cleaned)) + list(_ADDBIBRESOURCE_RE.finditer(cleaned)),
        key=lambda m: m.start(),
    )
    for m in matches:
        for name in m.group(1).split(","):
            name = name.strip()
            if name:
                named.append(name if name.endswith(".bib") else name + ".bib")
    return list(dict.fromkeys(named))


@dataclass(frozen=True)
class BibItem:
    key: str
    span: tuple[int, int]  # char span covering the \bibitem block
    text: str  # cleaned body text (LaTeX markup stripped)
    head_length: int  # characters of the \bibitem[..]{..} head


def extract_bibitems(cleaned: str) -> list[BibItem]:
    """Inline \\bibitem entries of comment-stripped source (see
    strip_comments), each spanning up to the next item or env end."""
    matches = list(BIBITEM_RE.finditer(cleaned))
    items: list[BibItem] = []
    for i, m in enumerate(matches):
        if i + 1 < len(matches):
            end = matches[i + 1].start()
        else:
            env_end = _THEBIB_END_RE.search(cleaned, m.end())
            end = env_end.start() if env_end else len(cleaned)
        body = cleaned[m.end():end]
        items.append(BibItem(key=m.group(1).strip(), span=(m.start(), end),
                             text=strip_latex_markup(body), head_length=m.end() - m.start()))
    return items


def strip_latex_markup(text: str) -> str:
    """Best-effort plain text from a LaTeX fragment (no macro expansion)."""
    text = re.sub(r"\\newblock\b", " ", text)
    text = re.sub(r"\\(?:emph|textit|textbf|textsc|texttt|mbox|url)\{([^{}]*)\}", r"\1", text)
    text = re.sub(r"\\[a-zA-Z]+\*?(?:\[[^\]]*\])?\{([^{}]*)\}", r"\1", text)
    text = re.sub(r"\\[a-zA-Z]+\s*", " ", text)
    text = text.replace("~", " ").replace("{", "").replace("}", "")
    text = re.sub(r"\s+", " ", text)
    return text.strip()


def find_cited_keys(tex_source: str) -> list[str]:
    """Citation keys referenced by \\cite-family commands, in appearance order."""
    cleaned = strip_comments(tex_source)
    keys: list[str] = []
    for m in CITE_COMMAND_RE.finditer(cleaned):
        for key in m.group(1).split(","):
            key = key.strip()
            if key:
                keys.append(key)
    return keys
