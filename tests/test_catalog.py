"""The recorded corpus store and the simulated sources it is recorded from."""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import corpus
from catalog import CatalogSession
from citecheck.pipeline import run_repair


def test_catalog_imports_nothing_from_citecheck():
    """The simulated sources import only the standard library and the HTTP
    client whose session they stand in for, so no answer goes through the
    normalization under test."""
    tree = ast.parse(Path(__file__).with_name("catalog.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert "requests" in imported
    assert imported - {"requests"} <= sys.stdlib_module_names


def test_a_relevance_search_finds_both_works_of_a_spliced_title():
    """At share 0.5 a Crossref search for the first half of one title and the
    second half of another answers with both works; at 1.0, with neither."""
    a, b = corpus.MAIN_BIB[:2]
    params = {"query.bibliographic": " ".join(a.title.split()[:4] + b.title.split()[4:]),
              "rows": "5"}
    answers = [CatalogSession(corpus.CATALOG, share=share).get(
        "https://api.crossref.org/works", params=params) for share in (0.5, 1.0)]
    assert [[work["title"][0] for work in json.loads(answer.content)["message"]["items"]]
            for answer in answers] == [[a.title, b.title], []]


def _stored(fixtures: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in fixtures.iterdir()}


def test_store_holds_exactly_what_the_corpus_runs_read(corpus_paths, replay_options, fetches):
    """A replacement repair of each corpus bibliography misses no fixture, and
    together they read every fixture the store holds."""
    stored = {json.loads(body)["request_key"]
              for body in _stored(corpus_paths["fixtures"]).values()}
    read = set()
    for bibliography in corpus.bibliographies(corpus_paths):
        fetches.clear()
        run_repair(replay_options(bibliography, mode="replacement"))
        assert fetches and not set(fetches) - stored, bibliography
        read.update(fetches)
    assert read == stored


def test_corpus_store_is_the_same_from_build_to_build(corpus_paths, tmp_path):
    """Recording goes through the per-source lanes; no stored byte depends on
    how their threads interleave."""
    rebuilt = corpus.build_corpus(tmp_path)
    assert _stored(rebuilt["fixtures"]) == _stored(corpus_paths["fixtures"])
