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
# test and benchmark corpora is 13 KB, and analyze of a document just under
# the cap peaks near 100 MB of RSS. A member that inflates past the cap is
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
    try:
        root = ET.fromstring(xml_bytes)
    except ET.ParseError as exc:
        raise CorruptArchive(f"document.xml is not well-formed: {exc}") from exc

    paragraphs: list[str] = []
    for para in root.iter(_P_TAG):
        parts: list[str] = []
        for node in para.iter():
            if node.tag == _T_TAG:
                parts.append(node.text or "")
            elif node.tag in (_TAB_TAG, _BR_TAG):
                parts.append(" ")
        text = "".join(parts).strip()
        if text:
            paragraphs.append(text)
    return paragraphs
