"""Tolerant BibTeX parser that preserves byte spans for rewriting.

Malformed entries never abort the file: the parser records an error and
resynchronizes at the next top-level ``@``. Field values may be brace- or
quote-delimited, bare numbers, or ``@string`` macro names (with ``#``
concatenation). ``@comment`` and ``@preamble`` blocks are skipped.

All spans are *character* offsets into the text handed in; callers that
need byte offsets convert with :func:`char_to_byte_spans`.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field

_WS_RE = re.compile(r"\s*")
_ENTRY_START_RE = re.compile(r"@\s*([A-Za-z]+)\s*([{(])")
_IDENT_RE = re.compile(r"[^\s,={}()\"#]+")
# A bare value part: decimal digits are tried first and stay literal, so an
# @string named "2020" never expands the number 2020; anything else that
# reads as a name ("²" included) is a macro name.
_BARE_RE = re.compile(r"(\d+)|" + _IDENT_RE.pattern)
_CLOSE = {"{": "}", "(": ")"}
# The characters that move a delimited run's depth, each found by one regex
# search. A @comment/@preamble block counts its own delimiters only; a braced
# value counts braces and skips backslash escapes, and so does a quoted one,
# which a quote at brace depth 0 closes. A trailing backslash escapes nothing.
_BLOCK_TOKENS = {"{": re.compile(r"[{}]"), "(": re.compile(r"[()]")}
_BRACED_TOKENS = re.compile(r"\\.|[{}]", re.S)
_QUOTED_TOKENS = re.compile(r'\\.|[{}"]', re.S)


@dataclass(frozen=True)
class BibField:
    name: str  # lowercased
    value: str  # macro-expanded, delimiters stripped
    value_span: tuple[int, int]  # source span of the value, delimiters included


@dataclass(frozen=True)
class BibEntry:
    entry_type: str  # lowercased
    key: str
    key_span: tuple[int, int]
    span: tuple[int, int]  # full entry, "@" through closing delimiter
    fields: tuple[BibField, ...]

    def field_map(self) -> dict[str, str]:
        # First occurrence wins, matching common BibTeX tool behavior.
        out: dict[str, str] = {}
        for f in self.fields:
            out.setdefault(f.name, f.value)
        return out


@dataclass(frozen=True)
class BibParseError:
    offset: int
    message: str


@dataclass
class BibFile:
    entries: list[BibEntry] = field(default_factory=list)
    errors: list[BibParseError] = field(default_factory=list)
    strings: dict[str, str] = field(default_factory=dict)


def char_to_byte_spans(text: str, spans: list[tuple[int, int]],
                       encoding: str = "utf-8") -> list[tuple[int, int]]:
    """Byte spans of the encoded text for character spans of `text`.

    One forward pass: each stretch between consecutive span boundaries is
    encoded once, so converting every entry of a file stays linear in it.
    """
    offsets: dict[int, int] = {}
    char = byte = 0
    for pos in sorted({pos for span in spans for pos in span}):
        byte += len(text[char:pos].encode(encoding))
        char = pos
        offsets[pos] = byte
    return [(offsets[start], offsets[end]) for start, end in spans]


class _SyntaxError(Exception):
    """The (offset, message) of a BibParseError, raised out of the entry read."""


def parse_bibtex(text: str) -> BibFile:
    """Parse BibTeX source; returns entries, per-entry errors, and the macro table."""
    result = BibFile()
    pos = 0
    while (at := text.find("@", pos)) != -1:
        m = _ENTRY_START_RE.match(text, at)
        if not m:
            pos = at + 1
            continue
        entry_type = m.group(1).lower()
        try:
            if entry_type in ("comment", "preamble"):
                pos = _balanced_end(text, m.end() - 1, _BLOCK_TOKENS[m.group(2)])
                if pos == -1:
                    raise _SyntaxError(at, "unterminated comment/preamble block")
            elif entry_type == "string":
                pos = _parse_string(text, m, result.strings)
            else:
                entry = _parse_entry(text, m, result.strings)
                result.entries.append(entry)
                pos = entry.span[1]
        except _SyntaxError as exc:
            result.errors.append(BibParseError(*exc.args))
            pos = at + 1  # recover at the next "@"
    return result


def _balanced_end(text: str, open_pos: int, tokens: re.Pattern[str]) -> int:
    """End of the run whose opening delimiter is at open_pos, -1 if it never closes."""
    opener = text[open_pos]
    depth = 0
    for token in tokens.finditer(text, open_pos):
        if token.group() == opener:
            depth += 1
        elif len(token.group()) == 1:  # the closer; an escape is two characters
            depth -= 1
            if depth == 0:
                return token.end()
    return -1


def _quoted_end(text: str, open_pos: int) -> int:
    """End of the quoted value whose opening quote is at open_pos, -1 if it never closes."""
    depth = 0
    for token in _QUOTED_TOKENS.finditer(text, open_pos + 1):
        char = token.group()
        if char == "{":
            depth += 1
        elif char == "}":
            depth -= 1
        elif char == '"' and depth == 0:
            return token.end()
    return -1


def _expect(text: str, pos: int, char: str) -> int:
    """The position after `char`, which must come next after whitespace."""
    pos = _WS_RE.match(text, pos).end()
    if not text.startswith(char, pos):
        raise _SyntaxError(pos, f"expected {char!r}, found {text[pos:pos + 1]!r}")
    return pos + 1


def _read_value(text: str, pos: int, strings: dict[str, str]) -> tuple[str, tuple[int, int]]:
    """The field value after pos: its parts joined by '#', expanded, and its span."""
    start = pos = _WS_RE.match(text, pos).end()
    parts: list[str] = []
    while True:
        char = text[pos:pos + 1]
        if char == "{" or char == '"':
            braced = char == "{"
            end = _balanced_end(text, pos, _BRACED_TOKENS) if braced else _quoted_end(text, pos)
            if end == -1:
                raise _SyntaxError(pos, f"unterminated {'braced' if braced else 'quoted'} value")
            parts.append(text[pos + 1:end - 1])
        elif bare := _BARE_RE.match(text, pos):
            end = bare.end()
            parts.append(bare.group() if bare.group(1) else
                         strings.get(bare.group().lower(), bare.group()))
        else:
            raise _SyntaxError(pos, "expected a field value")
        pos = _WS_RE.match(text, end).end()
        if not text.startswith("#", pos):
            return "".join(parts), (start, end)
        pos = _WS_RE.match(text, pos + 1).end()


def _parse_string(text: str, m: re.Match[str], strings: dict[str, str]) -> int:
    """Read one @string and store its macro; returns the position after it."""
    pos = _WS_RE.match(text, m.end()).end()
    name = _IDENT_RE.match(text, pos)
    if not name:
        raise _SyntaxError(pos, "expected macro name in @string")
    value, (_, end) = _read_value(text, _expect(text, name.end(), "="), strings)
    end = _expect(text, end, _CLOSE[m.group(2)])
    strings[name.group().lower()] = value
    return end


def _parse_entry(text: str, m: re.Match[str], strings: dict[str, str]) -> BibEntry:
    close = _CLOSE[m.group(2)]
    pos = _WS_RE.match(text, m.end()).end()
    key = _IDENT_RE.match(text, pos)
    if not key:
        raise _SyntaxError(pos, f"missing citation key for @{m.group(1)}")
    fields: list[BibField] = []
    pos = key.end()
    while True:
        pos = _WS_RE.match(text, pos).end()
        if text.startswith(",", pos):
            pos = _WS_RE.match(text, pos + 1).end()
        if text.startswith(close, pos):
            break
        if pos == len(text):
            raise _SyntaxError(m.start(), f"unterminated entry {key.group()!r}")
        name = _IDENT_RE.match(text, pos)
        if not name:
            raise _SyntaxError(pos, f"expected field name in entry {key.group()!r}")
        value, value_span = _read_value(text, _expect(text, name.end(), "="), strings)
        # Interned, as RawReference.field_names keeps every entry's names.
        fields.append(BibField(name=sys.intern(name.group().lower()),
                               value=_clean_value(value), value_span=value_span))
        pos = value_span[1]
    return BibEntry(entry_type=m.group(1).lower(), key=key.group(), key_span=key.span(),
                    span=(m.start(), pos + 1), fields=tuple(fields))


def _clean_value(value: str) -> str:
    """Collapse whitespace; keep inner braces (they carry case protection)."""
    return re.sub(r"\s+", " ", value).strip()


def strip_braces(value: str) -> str:
    """Remove BibTeX case-protection braces for display."""
    return value.replace("{", "").replace("}", "")
