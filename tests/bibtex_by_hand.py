"""The BibTeX parser as a per-character scanner, kept as the reference for the
regex tokenizer in `citecheck.extraction.bibtex`: `parse_bibtex` here must
give the same entries, spans, errors and macro table.
"""

from __future__ import annotations

import re

from citecheck.extraction.bibtex import BibEntry, BibField, BibFile, BibParseError

_ENTRY_START_RE = re.compile(r"@\s*([A-Za-z]+)\s*([{(])")
_IDENT_RE = re.compile(r"[^\s,={}()\"#]+")
_NUMBER_RE = re.compile(r"\d+")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise _SyntaxError(self.pos, f"expected {ch!r}, found {self.peek()!r}")
        self.pos += 1


class _SyntaxError(Exception):
    def __init__(self, offset: int, message: str):
        super().__init__(message)
        self.offset = offset
        self.message = message


def parse_bibtex(text: str) -> BibFile:
    """Parse BibTeX source; returns entries, per-entry errors, and the macro table."""
    result = BibFile()
    pos = 0
    while True:
        at = text.find("@", pos)
        if at == -1:
            break
        m = _ENTRY_START_RE.match(text, at)
        if not m:
            pos = at + 1
            continue
        entry_type = m.group(1).lower()
        try:
            if entry_type in ("comment", "preamble"):
                pos = _skip_block(text, at, m.end() - 1)
                continue
            if entry_type == "string":
                pos = _parse_string(text, at, m, result)
                continue
            entry, pos = _parse_entry(text, at, m, result.strings)
            result.entries.append(entry)
        except _SyntaxError as exc:
            result.errors.append(BibParseError(exc.offset, exc.message))
            pos = _resync(text, at + 1)
    return result


def _resync(text: str, start: int) -> int:
    """Recovery point: the next '@' at or after start."""
    nxt = text.find("@", start)
    return nxt if nxt != -1 else len(text)


def _match_close(open_ch: str) -> str:
    return "}" if open_ch == "{" else ")"


def _skip_block(text: str, at: int, open_pos: int) -> int:
    """Skip a brace-balanced @comment/@preamble block."""
    depth = 0
    open_ch = text[open_pos]
    close_ch = _match_close(open_ch)
    i = open_pos
    while i < len(text):
        ch = text[i]
        if ch == open_ch:
            depth += 1
        elif ch == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    raise _SyntaxError(at, "unterminated comment/preamble block")


def _read_braced(sc: _Scanner) -> str:
    start = sc.pos
    sc.expect("{")
    depth = 1
    while sc.pos < len(sc.text):
        ch = sc.text[sc.pos]
        if ch == "\\" and sc.pos + 1 < len(sc.text):
            sc.pos += 2
            continue
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                sc.pos += 1
                return sc.text[start + 1 : sc.pos - 1]
        sc.pos += 1
    raise _SyntaxError(start, "unterminated braced value")


def _read_quoted(sc: _Scanner) -> str:
    start = sc.pos
    sc.expect('"')
    depth = 0  # braces still nest inside quoted values
    while sc.pos < len(sc.text):
        ch = sc.text[sc.pos]
        if ch == "\\" and sc.pos + 1 < len(sc.text):
            sc.pos += 2
            continue
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == '"' and depth == 0:
            sc.pos += 1
            return sc.text[start + 1 : sc.pos - 1]
        sc.pos += 1
    raise _SyntaxError(start, "unterminated quoted value")


def _read_value(sc: _Scanner, strings: dict[str, str]) -> tuple[str, tuple[int, int]]:
    """One field value: concatenation of parts joined by '#'."""
    sc.skip_ws()
    start = sc.pos
    parts: list[str] = []
    while True:
        sc.skip_ws()
        ch = sc.peek()
        if ch == "{":
            parts.append(_read_braced(sc))
        elif ch == '"':
            parts.append(_read_quoted(sc))
        elif m := _NUMBER_RE.match(sc.text, sc.pos):
            parts.append(m.group(0))
            sc.pos = m.end()
        else:
            m = _IDENT_RE.match(sc.text, sc.pos)
            if not m:
                raise _SyntaxError(sc.pos, "expected a field value")
            macro = m.group(0)
            parts.append(strings.get(macro.lower(), macro))
            sc.pos = m.end()
        save = sc.pos
        sc.skip_ws()
        if sc.peek() == "#":
            sc.pos += 1
            continue
        sc.pos = save
        break
    return "".join(parts), (start, sc.pos)


def _parse_string(text: str, at: int, m: re.Match[str], result: BibFile) -> int:
    sc = _Scanner(text)
    sc.pos = m.end()
    close_ch = _match_close(m.group(2))
    sc.skip_ws()
    name_m = _IDENT_RE.match(text, sc.pos)
    if not name_m:
        raise _SyntaxError(sc.pos, "expected macro name in @string")
    name = name_m.group(0).lower()
    sc.pos = name_m.end()
    sc.skip_ws()
    sc.expect("=")
    value, _ = _read_value(sc, result.strings)
    sc.skip_ws()
    sc.expect(close_ch)
    result.strings[name] = value
    return sc.pos


def _parse_entry(text: str, at: int, m: re.Match[str],
                 strings: dict[str, str]) -> tuple[BibEntry, int]:
    sc = _Scanner(text)
    sc.pos = m.end()
    close_ch = _match_close(m.group(2))
    sc.skip_ws()
    key_m = _IDENT_RE.match(text, sc.pos)
    if not key_m:
        raise _SyntaxError(sc.pos, f"missing citation key for @{m.group(1)}")
    key = key_m.group(0)
    key_span = (key_m.start(), key_m.end())
    sc.pos = key_m.end()

    fields: list[BibField] = []
    while True:
        sc.skip_ws()
        ch = sc.peek()
        if ch == ",":
            sc.pos += 1
            sc.skip_ws()
            ch = sc.peek()
        if ch == close_ch:
            sc.pos += 1
            break
        if ch == "":
            raise _SyntaxError(at, f"unterminated entry {key!r}")
        name_m = _IDENT_RE.match(text, sc.pos)
        if not name_m:
            raise _SyntaxError(sc.pos, f"expected field name in entry {key!r}")
        name = name_m.group(0).lower()
        sc.pos = name_m.end()
        sc.skip_ws()
        sc.expect("=")
        value, value_span = _read_value(sc, strings)
        fields.append(BibField(name=name, value=_clean_value(value), value_span=value_span))

    entry = BibEntry(
        entry_type=m.group(1).lower(),
        key=key,
        key_span=key_span,
        span=(at, sc.pos),
        fields=tuple(fields),
    )
    return entry, sc.pos


def _clean_value(value: str) -> str:
    """Collapse whitespace; keep inner braces (they carry case protection)."""
    return re.sub(r"\s+", " ", value).strip()
