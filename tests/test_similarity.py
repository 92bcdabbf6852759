import math

from hypothesis import given
from hypothesis import strategies as st

from dossier.similarity import fold_text, jaccard, name_tokens

from oracles import oracle_jaccard


def name_jaccard(left: str, right: str) -> float:
    return jaccard(name_tokens(left), name_tokens(right))


def test_fold_text_lowercases_and_strips_accents():
    assert fold_text("ÉCLAIR") == "eclair"
    assert fold_text("José García") == "jose garcia"
    assert fold_text("plain") == "plain"


def test_name_tokens_split_on_punctuation_and_underscores():
    assert name_tokens("mary-jane watson") == {"mary", "jane", "watson"}
    assert name_tokens("O'Brien") == {"o", "brien"}
    assert name_tokens("abc_def") == {"abc", "def"}
    assert name_tokens("  !!!  ") == frozenset()


def test_jaccard_frozen_values():
    # {harry, styles} vs {harry, edward, styles}: 2 shared of 3 total.
    assert math.isclose(name_jaccard("harry styles", "harry edward styles"), 2 / 3)
    assert name_jaccard("John Smith", "john smith") == 1.0
    assert name_jaccard("José García", "jose garcia") == 1.0
    assert name_jaccard("shahin", "shahin mohammadzadeh") == 0.5
    assert name_jaccard("alice", "bob") == 0.0
    assert name_jaccard("", "") == 0.0
    assert name_jaccard("!!!", "???") == 0.0
    assert jaccard(frozenset(), frozenset({"ann"})) == 0.0


@given(st.text(max_size=30), st.text(max_size=30))
def test_jaccard_symmetric_and_bounded(a, b):
    forward = name_jaccard(a, b)
    assert forward == name_jaccard(b, a)
    assert 0.0 <= forward <= 1.0


@given(st.text(max_size=30))
def test_jaccard_self_is_one_when_tokenful(a):
    expected = 1.0 if name_tokens(a) else 0.0
    assert name_jaccard(a, a) == expected


@given(st.text(max_size=30), st.text(max_size=30))
def test_jaccard_agrees_with_independent_oracle(a, b):
    assert math.isclose(name_jaccard(a, b), oracle_jaccard(a, b))
