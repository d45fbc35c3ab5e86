"""Generator contract: closed, deterministic, clash-free, mostly converging."""

from pathlib import Path

from tamc.calculi import ClashOutcome, OpenStuckOutcome, ValueOutcome, normalize_source
from tamc.generate import GenConfig, gen_corpus
from tamc.syntax import print_source
from tamc.terms import free_vars

DATA = Path(__file__).resolve().parent / "data"


def test_seed_7_corpus_is_unchanged():
    # written by print_source on gen_corpus(GenConfig(seed=7), 200), one term
    # a line, before the depth and width became fixed; it pins every random
    # draw, where the bisim report keeps only the first 57 characters of each term
    got = "".join(print_source(t) + "\n" for t in gen_corpus(GenConfig(seed=7), 200))
    assert got.encode() == (DATA / "gen-seed7-count200.txt").read_bytes()


def test_fixed_seed_reproduces_sequence():
    a = gen_corpus(GenConfig(seed=42), 50)
    b = gen_corpus(GenConfig(seed=42), 50)
    assert a == b
    c = gen_corpus(GenConfig(seed=43), 50)
    assert a != c


def test_corpus_outcomes():
    corpus = gen_corpus(GenConfig(seed=42), 1000)
    assert len(corpus) == 1000
    values = 0
    for t in corpus:
        assert not free_vars(t)
        r = normalize_source(t, fuel=200)
        assert not isinstance(r.final, ClashOutcome)
        assert not isinstance(r.final, OpenStuckOutcome)
        if isinstance(r.final, ValueOutcome):
            values += 1
    assert values >= 800
