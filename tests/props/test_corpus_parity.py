"""Tier parity over the checked-in fuzz corpus.

``tests/corpus/*.hpf`` holds surviving fuzz programs chosen for
feature coverage (every distribution plan, INDEPENDENT/NEW work
arrays, triangular/downward/imperfect nests, guards, folds) plus the
minimized reproducer of every divergence class a campaign has found.
Each file runs through the same differential battery the fuzzer
applies — both forced tiers plus ``tier="auto"`` byte-identical,
and the parallel result matching the sequential interpreter — so the
corpus is a standing regression net, not documentation.
"""

import pathlib

import pytest

from repro.fuzz import check_sequential, check_tiers

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
FILES = sorted(CORPUS.glob("*.hpf"))


def test_corpus_is_populated():
    assert len(FILES) >= 10


@pytest.mark.parametrize("path", FILES, ids=[p.stem for p in FILES])
def test_corpus_tier_parity(path):
    source = path.read_text()
    for procs in (1, 3, 4):
        divergences, reference = check_tiers(source, procs)
        assert divergences == [], [d.describe() for d in divergences]
        assert reference is not None


@pytest.mark.parametrize("path", FILES, ids=[p.stem for p in FILES])
def test_corpus_matches_sequential(path):
    divergences = check_sequential(path.read_text(), 3)
    assert divergences == [], [d.describe() for d in divergences]
