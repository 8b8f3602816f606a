import pytest

from revnet.text_metrics import (CATEGORIES, LEXICON_DIR_ENV, Lexicon,
                                 category_percentages, load_lexicon,
                                 sentiment_score, tokenize)

from helpers import reference_category_percentages


def test_tokenize_lowercases_and_splits_on_non_letters():
    assert tokenize("Good, very-good! 42 results3here") == \
        ["good", "very", "good", "results", "here"]
    assert tokenize("") == []
    assert tokenize("123 !!!") == []


def small_lexicon():
    return Lexicon(
        positive=frozenset({"good", "clear"}),
        negative=frozenset({"bad", "wrong"}),
        categories={name: frozenset() for name in CATEGORIES} | {
            "negation": frozenset({"not", "never"}),
            "insight": frozenset({"think"}),
        },
    )


def test_sentiment_score_signed_ratio():
    lex = small_lexicon()
    assert sentiment_score(tokenize("good good bad the"), lex) == pytest.approx(1 / 4)
    assert sentiment_score(tokenize("bad wrong"), lex) == -1.0
    assert sentiment_score(tokenize("good clear"), lex) == 1.0
    assert sentiment_score(tokenize(""), lex) == 0.0
    assert sentiment_score(tokenize("neutral words only"), lex) == 0.0


def test_category_percentages():
    lex = small_lexicon()
    pct = category_percentages(tokenize("not never think the end"), lex)
    assert pct["negation"] == pytest.approx(40.0)
    assert pct["insight"] == pytest.approx(20.0)
    assert pct["future_tense"] == 0.0


def test_a_word_in_two_categories_counts_in_both():
    lex = Lexicon(frozenset(), frozenset(),
                  {name: frozenset() for name in CATEGORIES} | {
                      "negation": frozenset({"not", "never"}),
                      "exclusive": frozenset({"not", "but"})})
    pct = category_percentages(tokenize("Not but not never"), lex)
    assert pct == reference_category_percentages("Not but not never", lex)
    assert pct["negation"] == 75.0 and pct["exclusive"] == 75.0
    assert pct["insight"] == 0.0
    assert set(pct) == set(CATEGORIES)


def test_overlapping_polarity_lists_rejected():
    with pytest.raises(ValueError):
        Lexicon(frozenset({"fine"}), frozenset({"fine"}),
                {name: frozenset() for name in CATEGORIES})


def write_lexicon_dir(root, marker_word):
    (root / "positive.txt").write_text(f"{marker_word}\nsuperb\n")
    (root / "negative.txt").write_text("awful\n")
    for name in CATEGORIES:
        (root / f"cat_{name}.txt").write_text("placeholder\n")


def test_load_lexicon_from_explicit_directory(tmp_path):
    write_lexicon_dir(tmp_path, "excellent")
    lex = load_lexicon(tmp_path)
    assert "excellent" in lex.positive and "awful" in lex.negative
    assert lex.categories["negation"] == frozenset({"placeholder"})


@pytest.mark.parametrize("word", ["well-written", "na\u00efve", "two words", "x2"])
def test_load_lexicon_rejects_words_no_token_can_match(tmp_path, word):
    write_lexicon_dir(tmp_path, "excellent")
    (tmp_path / "positive.txt").write_text(f"excellent\n\n{word}\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_lexicon(tmp_path)
    message = str(info.value)
    assert "positive.txt" in message and "line 3" in message and repr(word) in message


def test_load_lexicon_strips_and_lowercases(tmp_path):
    write_lexicon_dir(tmp_path, "  Excellent \t")
    assert "excellent" in load_lexicon(tmp_path).positive


def test_load_lexicon_env_override(tmp_path, monkeypatch):
    write_lexicon_dir(tmp_path, "zmarker")
    monkeypatch.setenv(LEXICON_DIR_ENV, str(tmp_path))
    assert "zmarker" in load_lexicon().positive


def test_packaged_lexicon_loads_and_is_sane():
    lex = load_lexicon()
    assert lex.positive and lex.negative
    assert not (lex.positive & lex.negative)
    for name in CATEGORIES:
        assert lex.categories[name], name


def test_sentiment_bounds_and_concatenation(lexicon):
    a = "excellent clear rigorous"
    b = "flawed wrong incorrect unclear"
    sa = sentiment_score(tokenize(a), lexicon)
    sb = sentiment_score(tokenize(b), lexicon)
    assert -1.0 <= sb < 0 < sa <= 1.0
    combined = sentiment_score(tokenize(a + " " + b), lexicon)
    assert min(sa, sb) <= combined <= max(sa, sb)
