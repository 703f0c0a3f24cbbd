"""Shared normalization helpers: identifiers, tokens, names."""

from __future__ import annotations

import pytest

from citecheck import textnorm


@pytest.mark.parametrize("raw,expected", [
    ("10.1000/xyz", "10.1000/xyz"),
    ("https://doi.org/10.1000/XYZ", "10.1000/xyz"),
    ("http://dx.doi.org/10.1000/xyz", "10.1000/xyz"),
    ("doi:10.1000/xyz", "10.1000/xyz"),
    ("DOI: 10.1000/xyz", "10.1000/xyz"),
    ("10.1000/xyz.", "10.1000/xyz"),
])
def test_doi_normalization(raw, expected):
    assert textnorm.normalize_doi(raw) == expected


@pytest.mark.parametrize("raw", ["10./bad", "11.1000/x", "10.1000", "notadoi", ""])
def test_invalid_dois_rejected(raw):
    assert textnorm.normalize_doi(raw) is None


@pytest.mark.parametrize("raw,expected_id,expected_version", [
    ("2101.00001", "2101.00001", None),
    ("arXiv:2101.00001v2", "2101.00001", 2),
    ("https://arxiv.org/abs/2101.00001v3", "2101.00001", 3),
    ("https://arxiv.org/pdf/2101.00001", "2101.00001", None),
    ("math.GT/0309136", "math.GT/0309136", None),
])
def test_arxiv_normalization(raw, expected_id, expected_version):
    assert textnorm.normalize_arxiv_id(raw) == (expected_id, expected_version)


def test_pmid_normalization():
    assert textnorm.normalize_pmid("PMID: 12345") == "12345"
    assert textnorm.normalize_pmid("12345") == "12345"
    assert textnorm.normalize_pmid("12a45") is None


def test_match_tokens_fold_case_punctuation_diacritics():
    assert textnorm.match_tokens("Déjà-Vu: The Study!") == {"deja", "vu", "the", "study"}


def test_token_jaccard_bounds():
    def token_jaccard(a: str, b: str) -> float:
        return textnorm.jaccard(textnorm.match_tokens(a), textnorm.match_tokens(b))

    assert token_jaccard("", "anything") == 0.0
    assert token_jaccard("same words", "words same") == 1.0
    assert 0.0 < token_jaccard("alpha beta", "alpha gamma") < 1.0


@pytest.mark.parametrize("name,expected", [
    ("Doe, Jane", ("Doe", "Jane")),
    ("Jane Doe", ("Doe", "Jane")),
    ("Walters WH", ("Walters", "WH")),
    ("van der Berg, Hans", ("van der Berg", "Hans")),
    ("Cher", ("Cher", "")),
])
def test_split_person_name(name, expected):
    assert textnorm.split_person_name(name) == expected


def test_initials_of():
    assert textnorm.initials_of("Jane Ruth") == "jr"
    assert textnorm.initials_of("J. R.") == "jr"
    assert textnorm.initials_of("") == ""


def test_display_normalization_preserves_case():
    assert textnorm.normalize_display("  A Title\n here ") == "A Title here"
