"""Fixture corpus: reference specs, workspace writers, and recorded responses.

`build_corpus` writes the fixture workspaces, then records the shared store:
`verify_entries` runs over the ten bibliographies through `RecordTransport`,
whose live transport sends to the simulated sources of `catalog.py`. The suites
replay that store byte-exactly; the chimera and planner-comparison tests run
live over the simulator. No test needs network access.
"""

from __future__ import annotations

import io
import zipfile
from pathlib import Path
from xml.sax.saxutils import escape as _xml_escape

from catalog import CatalogSession, RefSpec
from citecheck.extraction import extract_references
from citecheck.extraction.models import ReferenceInput
from citecheck.matching import source_pass_query, verify_entries
from citecheck.sources import (FixtureStore, LiveTransport, RecordTransport,
                               config_from_env)
from citecheck.sources.models import DEFAULT_QUERY_LIMIT, Query


CONFIG = config_from_env({}, sources=("pubmed", "crossref", "arxiv"))


MAIN_BIB = [
    RefSpec("b1", "Gradient descent converges on linearly separable data",
            (("Doe", "Jane"), ("Smith", "Alan")), 2021,
            venue="Journal of Machine Learning Research",
            doi="10.5100/jmlr.2021.114", volume="22", pages="1--28",
            key="doe2021gradient"),
    RefSpec("b2", "Deep residual networks for large scale image recognition",
            (("Chen", "Li"), ("Wang", "Mei")), 2020,
            venue="Pattern Recognition Letters", doi="10.5100/prl.2020.042",
            volume="131", pages="112--119", key="chen2020deep"),
    RefSpec("b3", "Bayesian calibration of cosmological simulation ensembles",
            (("Kumar", "Ravi"),), 2019, venue="Astronomy and Computing",
            doi="10.5100/astro.2019.007", key="kumar2019bayes"),
    RefSpec("b4", "Sparse attention patterns improve long document summarization",
            (("Garcia", "Elena"), ("Ortiz", "Pablo")), 2022,
            venue="Computational Linguistics", doi="10.5100/cl.2022.310",
            volume="48", pages="551--577", key="garcia2022sparse"),
    RefSpec("b5", "A measurement study of certificate revocation on the web",
            (("Nakamura", "Yuki"),), 2018, venue="Computer Networks",
            doi="10.5100/comnet.2018.221", key="nakamura2018certificates"),
    RefSpec("b6", "Carbon fluxes in boreal peatlands under warming scenarios",
            (("Lindqvist", "Sara"), ("Aho", "Mikko")), 2023,
            venue="Global Change Biology", doi="10.5100/gcb.2023.118",
            pmid="36200001", pubmed_mode="match", key="lindqvist2023carbon"),
    RefSpec("b7", "Streaming graph partitioning with bounded replication factors",
            (("Lee", "Minho"), ("Park", "Jisoo")), 2021,
            venue="Proceedings of the International Conference on Data Engineering",
            doi="10.5100/icde.2021.088", bibtype="inproceedings",
            crossref_type="proceedings-article", key="lee2021streaming"),
    RefSpec("b8", "Differentiable rendering for inverse material estimation",
            (("Rossi", "Marco"),), 2022,
            venue="Proceedings of the European Conference on Computer Vision",
            doi="10.5100/eccv.2022.412", bibtype="inproceedings",
            crossref_type="proceedings-article", key="rossi2022differentiable"),
    RefSpec("b9", "Scaling laws for sparse mixture of expert language models",
            (("Novak", "Petra"), ("Svoboda", "Karel")), 2022,
            arxiv="2201.04567", bibtype="misc", key="novak2022scaling",
            crossref_mode="empty", arxiv_mode="match"),
    RefSpec("b10", "CRISPR screening identifies modifiers of alpha synuclein toxicity",
            (("Tanaka", "Hiro"), ("Mori", "Aiko")), 2018,
            venue="Nature Neuroscience", pmid="29456789",
            doi="10.5100/natneuro.2018.501", cite_doi=False,
            pubmed_mode="match", key="tanaka2018crispr"),
]

MAIN_MD = [
    RefSpec("m1", "Robust citation graphs for retracted literature tracking",
            (("Müller", "R."),), 2022, venue="Journal of Informetrics",
            doi="10.5200/joi.2022.031"),
    RefSpec("m2", "Entity resolution at scale with locality sensitive hashing",
            (("Okafor", "C."), ("Reyes", "M.")), 2021,
            venue="The VLDB Journal", doi="10.5200/vldb.2021.117"),
    RefSpec("m3", "Open peer review adoption across biomedical journals",
            (("Silva", "A."),), 2020, venue="Scientometrics",
            doi="10.5200/scim.2020.244"),
]

MAIN_TXT = [
    RefSpec("t1", "Thermal tolerance limits of intertidal gastropods",
            (("Okamoto", "K."),), 2021, venue="Marine Biology",
            doi="10.5300/marbio.2021.077"),
    RefSpec("t2", "Adaptive mesh refinement for relativistic magnetohydrodynamics",
            (("Petrov", "D."), ("Sokolov", "I.")), 2019,
            venue="Journal of Computational Physics", doi="10.5300/jcp.2019.301"),
    RefSpec("t3", "Soil microbiome succession after glacial retreat",
            (("Hansen", "L."),), 2022, venue="The ISME Journal",
            doi="10.5300/isme.2022.140"),
    RefSpec("t4", "Self supervised pretraining for robotic grasping",
            (("Ivanov", "P."), ("Ruiz", "C.")), 2020, arxiv="2006.11223",
            cite_doi=False, crossref_mode="empty", arxiv_mode="match"),
    RefSpec("t5", "Spectral methods for turbulent flow simulation",
            (("Brown", "T."),), 2019, venue="Annual Review of Fluid Mechanics",
            doi="10.5300/arfm.2019.055", cite_doi=False),
]

MAIN_DOCX = [
    RefSpec("d1", "Digital contact tracing effectiveness in seasonal epidemics",
            (("Nguyen", "T."), ("Larsen", "E.")), 2021,
            venue="Epidemics", doi="10.5400/epi.2021.019"),
    RefSpec("d2", "Low power wide area networks for precision agriculture",
            (("Moreau", "J."),), 2020, venue="Computers and Electronics in Agriculture",
            doi="10.5400/agri.2020.233"),
    RefSpec("d3", "Probabilistic forecasts of river discharge under data scarcity",
            (("Abebe", "S."),), 2022, venue="Hydrology and Earth System Sciences",
            doi="10.5400/hess.2022.068"),
]

BIOMED = [
    RefSpec("p1", "Gut microbiota transfer alters glucose metabolism in germ free mice",
            (("Walker", "A. J."), ("Chen", "B.")), 2019,
            venue="Cell Metabolism", doi="10.5500/cmet.2019.101", pmid="31000101",
            cite_doi=False, pubmed_mode="match"),
    RefSpec("p2", "Single cell atlas of the human fetal thymus",
            (("Romero", "L."), ("Park", "S. W.")), 2020,
            venue="Nature Immunology", doi="10.5500/ni.2020.222", pmid="32000222",
            cite_doi=False, pubmed_mode="match"),
    RefSpec("p3", "Ketamine modulates prefrontal dopamine signalling in treatment resistant depression",
            (("Fischer", "M."),), 2018, venue="Biological Psychiatry",
            doi="10.5500/bp.2018.333", pmid="29000333", cite_doi=False,
            pubmed_mode="match"),
    RefSpec("p4", "Wearable biosensors for continuous lactate monitoring in sepsis",
            (("Oliveira", "R."), ("Duarte", "F.")), 2021,
            venue="The Lancet Digital Health", doi="10.5500/ldh.2021.444",
            pmid="33000444", cite_doi=False, pubmed_mode="match"),
    RefSpec("p5", "Phage therapy outcomes in multidrug resistant Klebsiella infections",
            (("Kowalski", "P."),), 2022, venue="Clinical Infectious Diseases",
            doi="10.5500/cid.2022.555", pmid="35000555", cite_doi=False,
            pubmed_mode="match"),
]

MANIFESTATION = RefSpec(
    "x1", "Emergent communication protocols in multi agent reinforcement learning",
    (("Keller", "F."), ("Adams", "R.")), 2021, arxiv="2105.01234",
    bibtype="misc", key="keller2021emergent", cite_doi=False,
    doi="10.5600/nature.2022.777",  # the published sibling's DOI
    venue="Nature Machine Intelligence",
    crossref_mode="match", crossref_type="journal-article",
    crossref_year_offset=1, arxiv_mode="match",
    related_journal_doi="10.5600/nature.2022.777",
)

# The converse: cites the journal DOI of a work that also has an arXiv
# preprint, which links back to it. Pass 1 sends arXiv no title search for
# it, so only `title_searching_pass_query` finds the preprint.
PUBLISHED_WITH_PREPRINT = RefSpec(
    "x2", "Equivariant message passing for crystal structure prediction",
    (("Moreau", "C."), ("Tanaka", "H.")), 2022, arxiv="2203.04567", cite_arxiv=False,
    doi="10.5600/natmeth.2023.888", venue="Nature Methods", crossref_year_offset=1,
    arxiv_mode="match", related_journal_doi="10.5600/natmeth.2023.888",
)

DUPLICATES = [
    RefSpec("u1", "Data lineage tracking in distributed stream processors",
            (("Smith", "Rob"),), 2020, venue="IEEE Transactions on Big Data",
            doi="10.5700/tbd.2020.010", key="smith2020data"),
    RefSpec("u2", "Dataflow verification of streaming pipelines",
            (("Smith", "Tara"),), 2020, venue="ACM Computing Surveys",
            doi="10.5700/csur.2020.020", key="smith2020data"),
    RefSpec("u3", "Checkpoint compaction strategies for exactly once processing",
            (("Varga", "B."),), 2021, venue="The VLDB Journal",
            doi="10.5700/vldb.2021.030", key="varga2021checkpoint"),
]

# Resolves only on the relaxed third pass, at moderate confidence: Crossref's
# record title holds the relaxed query's words but not the cited "of". It
# overlaps 6 of 9 union tokens (Jaccard ~ 0.667), which with matching author
# and exact year lands at ~0.758 (needs_review).
MULTIPASS = [
    RefSpec("q1", "Adaptive routing of wavelength division optical networks",
            (("Feld", "N."),), 2017, bibtype="misc", key="feld2017adaptive",
            cite_doi=False,
            result_title="Adaptive routing in wavelength division multiplexed "
                         "optical networks",
            doi="10.5800/net.2018.404"),
]

# Seven clean entries and three that no source knows: unresolved injection
# for the preset exit-code checks.
MIXED = (
    [RefSpec(f"g{i}", f"Benchmarking protocol component number {i} for suite contrast",
             (("Quinn", "A."),), 2020, venue="Journal of Testing Protocols",
             doi=f"10.5900/jtp.2020.{100 + i}", key=f"quinn2020component{i}")
     for i in range(1, 8)]
    + [RefSpec(f"g{i}", f"Unindexed regional report number {i} on local infrastructure",
               (("Vu", "L."),), 2019, bibtype="misc", key=f"vu2019report{i}",
               cite_doi=False, crossref_mode="empty", pubmed_mode="empty",
               arxiv_mode="empty")
       for i in range(8, 11)]
)

FAILURES = [
    RefSpec("f1", "Resilience of coral reef fish assemblages to marine heatwaves",
            (("Andersen", "M."), ("Wright", "K.")), 2021, bibtype="misc",
            key="andersen2021resilience", cite_doi=False,
            crossref_mode="s401", pubmed_mode="s429", arxiv_mode="io_error"),
    RefSpec("f2", "Urban heat island mitigation through reflective pavements",
            (("Costa", "V."),), 2020, bibtype="misc", key="costa2020urban",
            cite_doi=False,
            crossref_mode="truncated", pubmed_mode="io_error", arxiv_mode="s429"),
]

ALL_SPECS = (MAIN_BIB + MAIN_MD + MAIN_TXT + MAIN_DOCX + BIOMED
             + [MANIFESTATION] + DUPLICATES + MULTIPASS + MIXED + FAILURES)

# Every work the simulated sources know: the cited ones, and the preprint-
# linked journal article that no corpus folder cites.
CATALOG = ALL_SPECS + [PUBLISHED_WITH_PREPRINT]


# --------------------------------------------------------------------------
# Workspace writers
# --------------------------------------------------------------------------

def bibtex_entry_text(spec: RefSpec) -> str:
    key = spec.key or f"{spec.authors[0][0].lower()}{spec.year}{spec.ident}"
    lines = [f"@{spec.bibtype}{{{key},"]
    author = " and ".join(f"{f}, {g}" for f, g in spec.authors)
    fields = [("author", author), ("title", spec.title)]
    if spec.venue:
        name = "booktitle" if spec.bibtype == "inproceedings" else "journal"
        fields.append((name, spec.venue))
    fields.append(("year", str(spec.year)))
    if spec.volume:
        fields.append(("volume", spec.volume))
    if spec.pages:
        fields.append(("pages", spec.pages))
    if spec.doi and spec.cite_doi:
        fields.append(("doi", spec.doi))
    if spec.arxiv and spec.cite_arxiv:
        fields.append(("eprint", spec.arxiv))
        fields.append(("archiveprefix", "arXiv"))
    if spec.pmid and not (spec.doi and spec.cite_doi) and not spec.arxiv:
        fields.append(("pmid", spec.pmid))
    for i, (name, value) in enumerate(fields):
        comma = "," if i + 1 < len(fields) else ""
        lines.append(f"  {name} = {{{value}}}{comma}")
    lines.append("}")
    return "\n".join(lines)


def write_bib(path: Path, specs: list[RefSpec]) -> None:
    path.write_text("\n\n".join(bibtex_entry_text(s) for s in specs) + "\n",
                    encoding="utf-8")


def freetext_line(spec: RefSpec, number: int, marker: str = "[{n}]") -> str:
    authors = " and ".join(f"{f}, {g}" for f, g in spec.authors)
    parts = [f"{marker.format(n=number)} {authors} ({spec.year})." if authors
             else f"{marker.format(n=number)} ({spec.year})."]
    parts.append(f"{spec.title}.")
    if spec.venue:
        parts.append(f"{spec.venue}.")
    if spec.doi and spec.cite_doi:
        parts.append(f"https://doi.org/{spec.doi}")
    if spec.arxiv and spec.cite_arxiv:
        parts.append(f"arXiv:{spec.arxiv}.")
    return " ".join(parts)


def write_markdown(path: Path, specs: list[RefSpec]) -> None:
    lines = ["# Project notes", "", "Reading list for the experiments write-up.", "",
             "## References", ""]
    for i, spec in enumerate(specs, start=1):
        authors = " and ".join(f"{f}, {g}" for f, g in spec.authors)
        link = (f"[doi:{spec.doi}](https://doi.org/{spec.doi})"
                if spec.doi and spec.cite_doi else "")
        line = f"{i}. {authors} ({spec.year}). {spec.title}. {spec.venue}. {link}".rstrip()
        lines.append(line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_txt(path: Path, specs: list[RefSpec], include_rejected: bool = True) -> None:
    lines = ["Field notes, not a manuscript.", "", "References", ""]
    lines += [freetext_line(spec, i) for i, spec in enumerate(specs, start=1)]
    if include_rejected:
        lines.append(f"[{len(specs) + 1}] ———")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_DOCX_XML_HEAD = (
    '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
    '<w:document xmlns:w="http://schemas.openxmlformats.org/wordprocessingml/2006/main">'
    "<w:body>"
)


def make_docx(paragraphs: list[str], split_runs: bool = False) -> bytes:
    """Minimal .docx: a ZIP holding only word/document.xml."""
    body = []
    for para in paragraphs:
        if split_runs and len(para) > 4:
            mid = len(para) // 2
            runs = (f"<w:r><w:t xml:space=\"preserve\">{_xml_escape(para[:mid])}</w:t></w:r>"
                    f"<w:r><w:t xml:space=\"preserve\">{_xml_escape(para[mid:])}</w:t></w:r>")
        else:
            runs = f"<w:r><w:t xml:space=\"preserve\">{_xml_escape(para)}</w:t></w:r>"
        body.append(f"<w:p>{runs}</w:p>")
    xml = _DOCX_XML_HEAD + "".join(body) + "</w:body></w:document>"
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        # A fixed timestamp: two corpus builds give the same bytes.
        archive.writestr(zipfile.ZipInfo("word/document.xml", (1980, 1, 1, 0, 0, 0)), xml,
                         compress_type=zipfile.ZIP_DEFLATED)
    return buffer.getvalue()


def write_docx(path: Path, specs: list[RefSpec]) -> None:
    paragraphs = ["Quarterly progress report", "Summary of activities.", "References"]
    paragraphs += [freetext_line(spec, i) for i, spec in enumerate(specs, start=1)]
    path.write_bytes(make_docx(paragraphs))


DRAFT_TEX = """\\documentclass{article}
\\title{Workspace Fixture Draft}
\\begin{document}
We cite prior work~\\cite{doe2021gradient,kumar2019bayes} throughout.
% \\bibliography{old_refs}
\\bibliography{references}
\\end{document}
"""


def write_main_workspace(root: Path) -> None:
    root.mkdir(parents=True, exist_ok=True)
    (root / "draft.tex").write_text(DRAFT_TEX, encoding="utf-8")
    write_bib(root / "references.bib", MAIN_BIB)
    write_markdown(root / "notes.md", MAIN_MD)
    write_txt(root / "field_notes.txt", MAIN_TXT)
    write_docx(root / "report.docx", MAIN_DOCX)
    (root / "analysis.py").write_text("print('not a manuscript')\n", encoding="utf-8")
    hidden = root / ".git"
    hidden.mkdir(exist_ok=True)
    (hidden / "stray.bib").write_text("@misc{ghost, title={Ghost}}\n", encoding="utf-8")
    generated = root / "node_modules"
    generated.mkdir(exist_ok=True)
    (generated / "junk.bib").write_text("@misc{junk, title={Junk}}\n", encoding="utf-8")


# The corpus folders that hold one bibliography each: (file name, specs).
BIB_FOLDERS = {
    "biomed": ("biomed.bib", BIOMED),
    "manifestation": ("cited.bib", [MANIFESTATION]),
    "duplicates": ("dup.bib", DUPLICATES),
    "failures": ("flaky.bib", FAILURES),
    "multipass": ("obscure.bib", MULTIPASS),
    "mixed": ("mixed.bib", MIXED),
}
MAIN_BIBLIOGRAPHIES = ("references.bib", "notes.md", "field_notes.txt", "report.docx")


def title_searching_pass_query(entry: ReferenceInput, pass_number: int, source: str,
                               limit: int = DEFAULT_QUERY_LIMIT) -> Query | None:
    """The planner as it was before arXiv's pass-1 exception, kept as a
    reference: arXiv also got a pass-1 title search for a DOI-cited entry."""
    query = source_pass_query(entry, pass_number, source, limit)
    if query is None and pass_number == 1 and source == "arxiv" and entry.title:
        return Query(kind="title_search", text=entry.title, limit=limit)
    return query


def always_ask_arxiv(entry: ReferenceInput, best: float) -> bool:
    """`matching.asks_arxiv_title_search` as it was before arXiv was asked
    last in pass 1, kept as a reference: every pass-1 title search is sent."""
    return True


def live_over(session: CatalogSession) -> LiveTransport:
    """citecheck's live transport sending to `session`, retrying without a pause."""
    return LiveTransport(session=session, sleep=lambda seconds: None)


def bibliographies(paths: dict[str, Path]) -> list[Path]:
    """The ten bibliographies of a built corpus, whose runs its store records."""
    return ([paths["main"] / name for name in MAIN_BIBLIOGRAPHIES]
            + [paths[folder] / name for folder, (name, _) in BIB_FOLDERS.items()])


def build_corpus(base: Path) -> dict[str, Path]:
    """Build every fixture workspace and the shared response store under `base`."""
    paths = {"main": base / "workspace", **{folder: base / folder for folder in BIB_FOLDERS},
             "fixtures": base / "http_fixtures"}
    write_main_workspace(paths["main"])
    for folder, (name, specs) in BIB_FOLDERS.items():
        paths[folder].mkdir(parents=True, exist_ok=True)
        write_bib(paths[folder] / name, specs)
    record = RecordTransport(FixtureStore(paths["fixtures"]),
                             live_over(CatalogSession(CATALOG)))
    for bibliography in bibliographies(paths):
        verify_entries(extract_references(bibliography).entries, record, CONFIG)
    return paths
