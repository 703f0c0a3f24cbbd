"""`extract_docx_text`'s reading of word/document.xml as it was before it was
streamed, kept as the reference: the whole tree is built, then walked."""

from __future__ import annotations

import xml.etree.ElementTree as ET

_W_NS = "http://schemas.openxmlformats.org/wordprocessingml/2006/main"
_P_TAG = f"{{{_W_NS}}}p"
_T_TAG = f"{{{_W_NS}}}t"
_TAB_TAG = f"{{{_W_NS}}}tab"
_BR_TAG = f"{{{_W_NS}}}br"


def paragraphs_by_tree(xml_bytes: bytes) -> list[str]:
    root = ET.fromstring(xml_bytes)
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
