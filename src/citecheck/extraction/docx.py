"""Shallow .docx text extraction: paragraph text from the document XML.

No styling, no layout; tables flatten row-wise because cell paragraphs are
visited in document order. That is the full extent of docx support.
"""

from __future__ import annotations

import io
import lzma
import xml.etree.ElementTree as ET
import zipfile
import zlib

from ..errors import CorruptArchive, MissingDocumentPart

_W_NS = "http://schemas.openxmlformats.org/wordprocessingml/2006/main"
_P_TAG = f"{{{_W_NS}}}p"
_T_TAG = f"{{{_W_NS}}}t"
_TAB_TAG = f"{{{_W_NS}}}tab"
_BR_TAG = f"{{{_W_NS}}}br"

# What zipfile raises on damaged archives: bad headers, bad offsets
# (ValueError, also for undecodable names), truncated or corrupt compressed
# data (EOFError, zlib.error, lzma.LZMAError, OSError from bz2), and
# encrypted members or unknown methods (RuntimeError, NotImplementedError).
_UNREADABLE_ARCHIVE = (zipfile.BadZipFile, ValueError, EOFError, zlib.error, lzma.LZMAError,
                       OSError, RuntimeError, NotImplementedError)

# The most of word/document.xml that is read, inflated. The largest in the
# test and benchmark corpora is 13 KB. A member that inflates past the cap is
# refused once the cap is read, not held whole (a 102 KB .docx can inflate to
# 100 MiB). It is read, not sized, since its header's file_size can lie.
DOCUMENT_XML_MAX_BYTES = 16 * 1024 * 1024


def extract_docx_text(docx_bytes: bytes) -> list[str]:
    """Paragraph strings from word/document.xml, in document order."""
    try:
        with zipfile.ZipFile(io.BytesIO(docx_bytes)) as archive, \
                archive.open("word/document.xml") as member:
            xml_bytes = member.read(DOCUMENT_XML_MAX_BYTES + 1)
    except KeyError as exc:
        raise MissingDocumentPart("archive has no word/document.xml") from exc
    except _UNREADABLE_ARCHIVE as exc:
        raise CorruptArchive(f"not a readable .docx archive: {exc}") from exc
    if len(xml_bytes) > DOCUMENT_XML_MAX_BYTES:
        raise CorruptArchive(f"word/document.xml inflates past {DOCUMENT_XML_MAX_BYTES} bytes")
    # Streamed: each element leaves the tree once it ends, so memory holds
    # the open elements only. A paragraph gets its text from every t, tab
    # and br inside it, nested paragraphs (text boxes) included, and takes
    # its place in the output where it opens, as a pre-order walk would.
    paragraphs: list[str] = []
    open_parts: list[tuple[int, list[str]]] = []  # (output slot, pieces) per open paragraph
    ancestors: list[ET.Element] = []
    try:
        for event, node in ET.iterparse(io.BytesIO(xml_bytes), events=("start", "end")):
            if event == "start":
                if node.tag == _P_TAG:
                    open_parts.append((len(paragraphs), []))
                    paragraphs.append("")
                ancestors.append(node)
                continue
            ancestors.pop()
            if ancestors:
                ancestors[-1].remove(node)  # its earlier siblings are gone: O(1)
            if node.tag == _P_TAG:
                slot, parts = open_parts.pop()
                paragraphs[slot] = "".join(parts).strip()
            elif node.tag in (_T_TAG, _TAB_TAG, _BR_TAG):
                piece = (node.text or "") if node.tag == _T_TAG else " "
                for _, parts in open_parts:
                    parts.append(piece)
    except ET.ParseError as exc:
        raise CorruptArchive(f"document.xml is not well-formed: {exc}") from exc
    return [text for text in paragraphs if text]
