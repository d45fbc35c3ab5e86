"""Generator contract: closed, deterministic, clash-free, mostly converging."""

import pytest

from tamc.calculi import ClashOutcome, OpenStuckOutcome, ValueOutcome, normalize_source
from tamc.generate import GenConfig, gen_corpus, gen_term
from tamc.terms import free_vars, is_value_source


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(max_depth=0)
    with pytest.raises(ValueError):
        GenConfig(max_width=0)


def test_depth_one_gives_closed_values():
    for seed in range(20):
        t = gen_term(GenConfig(max_depth=1, seed=seed))
        assert not free_vars(t)
        assert is_value_source(t)


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
