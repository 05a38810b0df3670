import random
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import best_segmentation_bruteforce, segment_hashtag_quadratic
from hostility.errors import DataError
from hostility.preprocess import (
    EmojiTable,
    FreqDict,
    LabelTag,
    TokenKind,
    clean_text,
    extract_features,
    load_dataset,
    load_emoji_table,
    load_freq_dict,
    mean_emoji_vector,
    segment_hashtag,
    tokenize_raw,
)


def kinds_and_surfaces(text):
    return [(t.kind, t.surface) for t in tokenize_raw(text)]


class TestTokenize:
    def test_empty(self):
        assert tokenize_raw("") == []

    def test_mixed_tweet(self):
        got = kinds_and_surfaces("RT @user yeh sach hai #SachKaSaath \U0001F602 https://t.co/x")
        assert got == [
            (TokenKind.RESERVED, "RT"),
            (TokenKind.MENTION, "@user"),
            (TokenKind.WORD, "yeh"),
            (TokenKind.WORD, "sach"),
            (TokenKind.WORD, "hai"),
            (TokenKind.HASHTAG, "#SachKaSaath"),
            (TokenKind.EMOJI, "\U0001F602"),
            (TokenKind.URL, "https://t.co/x"),
        ]

    def test_separator_set(self):
        got = kinds_and_surfaces("a,b;c:d")
        assert got == [(TokenKind.WORD, w) for w in "abcd"]

    def test_url_keeps_internal_colons(self):
        (kind, surface), = kinds_and_surfaces("https://x.test/a:b,c")
        assert kind is TokenKind.URL and surface == "https://x.test/a:b,c"

    def test_hashtag_not_split_internally(self):
        got = kinds_and_surfaces("#a:b ,#tag,")
        assert got == [(TokenKind.HASHTAG, "#a:b"), (TokenKind.HASHTAG, "#tag")]

    def test_glued_emojis_become_single_graphemes(self):
        got = kinds_and_surfaces("wah\U0001F602\U0001F621")
        assert got == [
            (TokenKind.WORD, "wah"),
            (TokenKind.EMOJI, "\U0001F602"),
            (TokenKind.EMOJI, "\U0001F621"),
        ]

    def test_skin_tone_modifier_stays_attached(self):
        got = kinds_and_surfaces("✊\U0001F3FD")
        assert got == [(TokenKind.EMOJI, "✊\U0001F3FD")]

    def test_digit_tokens_are_numbers(self):
        got = kinds_and_surfaces("corona19 19 baje")
        assert [k for k, _ in got] == [TokenKind.NUMBER, TokenKind.NUMBER, TokenKind.WORD]

    def test_smiley_whole_token_only(self):
        got = kinds_and_surfaces(":) :( :D ;) :P :/")
        assert all(k is TokenKind.SMILEY for k, _ in got)

    def test_reserved_markers(self):
        got = kinds_and_surfaces("RT FAV rt")
        assert [k for k, _ in got] == [TokenKind.RESERVED, TokenKind.RESERVED, TokenKind.WORD]


class TestCleanText:
    def test_empty(self):
        assert clean_text([]) == ""

    def test_mixed_tweet(self):
        tokens = tokenize_raw("RT @user yeh sach hai #SachKaSaath \U0001F602 https://t.co/x")
        assert clean_text(tokens) == "yeh sach hai"

    def test_all_emoji(self):
        assert clean_text(tokenize_raw("\U0001F602 \U0001F621")) == ""

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_round_trip_conservation(self, text):
        """WORD surfaces survive cleaning exactly, as a multiset."""
        tokens = tokenize_raw(text)
        words = [t.surface for t in tokens if t.kind is TokenKind.WORD]
        assert Counter(words) == Counter(clean_text(tokens).split())


TOY_FREQ = FreqDict.from_counts(
    {"hindi": 50, "tweets": 30, "hind": 5, "it": 40, "weets": 1}
)
# The dictionary of acceptance criterion c04.
C04_WORDS = [
    "a", "b", "c", "d", "e",
    "ab", "ba", "cd", "de", "ea",
    "ad", "be", "ce", "da", "eb",
    "aa", "bb", "cc", "dd", "ee",
    "abc", "bcd", "cde", "dea", "eab",
    "ae", "ac", "bd", "abcd", "bcde",
]
C04_FREQ = FreqDict.from_counts({w: (i * 7) % 50 + 1 for i, w in enumerate(C04_WORDS)})


def zipf_freq(n_words=1200, seed=7):
    """Distinct random words of 1-8 letters over "abcdefgh", counted
    100000 / rank + 1."""
    rng = random.Random(seed)
    words = {}
    while len(words) < n_words:
        words.setdefault("".join(rng.choice("abcdefgh") for _ in range(rng.randint(1, 8))), None)
    return FreqDict.from_counts({w: 100_000 // rank + 1 for rank, w in enumerate(words, 1)})


ZIPF_FREQ = zipf_freq()
# Equal counts make many splits tie on score and word count.
EQUAL_FREQ = FreqDict.from_counts({w: 1 for w in ["ab", "c", "def", "a", "bcd", "ef", "fa", "b"]})
# p("a") is exactly 1/10, the unknown-word penalty per letter, so long
# unknown words after different runs of "a" tie up to rounding.
TENTH_FREQ = FreqDict.from_counts({"a": 1, "b": 9})


@st.composite
def hashtag_bodies(draw, freq):
    """Bodies of up to 60 characters built from dictionary words, short
    runs of the dictionary's letters and unknown runs longer than its
    longest word."""
    words = sorted(freq.counts)
    letters = "".join(sorted(set("".join(words)))) + "xz9"
    longest = freq.max_word_len
    piece = st.one_of(
        st.sampled_from(words),
        st.text(alphabet=letters, min_size=1, max_size=4),
        st.text(alphabet=letters, min_size=longest + 1, max_size=longest + 15),
    )
    return "".join(draw(st.lists(piece, min_size=1, max_size=12)))[:60]


class TestSegmentHashtag:
    def test_single_word_body(self):
        assert segment_hashtag("#a", FreqDict.from_counts({"a": 10})) == "a"

    def test_known_words_win(self):
        assert segment_hashtag("#hinditweets", TOY_FREQ) == "hindi tweets"
        assert segment_hashtag("#hinditweets", TOY_FREQ) == best_segmentation_bruteforce(
            "hinditweets", TOY_FREQ
        )

    def test_oov_prefers_single_chunk(self):
        empty = FreqDict.empty()
        assert segment_hashtag("#xqz", empty) == "xqz"
        assert best_segmentation_bruteforce("xqz", empty) == "xqz"

    def test_case_folding(self):
        assert segment_hashtag("#HindiTweets", TOY_FREQ) == "hindi tweets"

    def test_rejects_whitespace_body(self):
        with pytest.raises(ValueError, match="whitespace"):
            segment_hashtag("#a b", TOY_FREQ)

    def test_rejects_empty_body(self):
        with pytest.raises(ValueError):
            segment_hashtag("#", TOY_FREQ)

    @given(st.text(alphabet="abcdehint", min_size=1, max_size=10))
    @settings(max_examples=150)
    def test_soundness_and_optimality(self, body):
        """Output concatenates back to the body and matches brute force."""
        got = segment_hashtag("#" + body, TOY_FREQ)
        assert got.replace(" ", "") == body.casefold()
        assert got == best_segmentation_bruteforce(body.casefold(), TOY_FREQ)

    def test_tie_prefers_smaller_joined_string(self):
        # "a bcd ef" and "ab c def" both score 3 * log(1/8).
        assert segment_hashtag("#abcdef", EQUAL_FREQ) == "a bcd ef"
        assert best_segmentation_bruteforce("abcdef", EQUAL_FREQ) == "a bcd ef"

    @pytest.mark.parametrize(
        "freq",
        [TOY_FREQ, C04_FREQ, ZIPF_FREQ, EQUAL_FREQ, TENTH_FREQ],
        ids=["toy", "c04", "zipf", "equal", "tenth"],
    )
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_quadratic_dp(self, freq, data):
        body = data.draw(hashtag_bodies(freq))
        assert segment_hashtag("#" + body, freq) == segment_hashtag_quadratic("#" + body, freq)

    @pytest.mark.parametrize(
        "tag, counts, expected",
        [
            ("#IndiaFightsCorona", {}, "indiafightscorona"),
            ("#FakeNewsAlert2021", {}, "fakenewsalert2021"),
            ("#HindiTweetsNow", {"hindi": 1}, "hindi tweetsnow"),
        ],
    )
    def test_unknown_words_never_adjacent(self, tag, counts, expected):
        """With a total count of at most 1 every split of an unknown run
        scores the same; unknown words may not be adjacent, so the run
        stays whole."""
        assert segment_hashtag(tag, FreqDict.from_counts(counts)) == expected

    @pytest.mark.parametrize("freq", [ZIPF_FREQ, FreqDict.empty()], ids=["zipf", "empty"])
    def test_long_hashtag_bounded_time(self, freq):
        rng = random.Random(3)
        body = "".join(rng.choice("abcdefghxyz") for _ in range(10_000))
        start = time.perf_counter()
        got = segment_hashtag("#" + body, freq)
        assert time.perf_counter() - start < 2.0
        assert got.replace(" ", "") == body


class TestMeanEmojiVector:
    TABLE = EmojiTable(
        dim=3,
        entries={
            "\U0001F602": np.array([1.0, 2.0, 3.0], dtype=np.float32),
            "\U0001F621": np.array([3.0, 2.0, 1.0], dtype=np.float32),
        },
    )

    def test_single(self):
        np.testing.assert_array_equal(
            mean_emoji_vector(["\U0001F602"], self.TABLE), [1.0, 2.0, 3.0]
        )

    def test_pair_mean(self):
        np.testing.assert_allclose(
            mean_emoji_vector(["\U0001F602", "\U0001F621"], self.TABLE), [2.0, 2.0, 2.0]
        )

    def test_unknown_skipped(self):
        np.testing.assert_array_equal(
            mean_emoji_vector(["\U0001F602", "\U0001F996"], self.TABLE), [1.0, 2.0, 3.0]
        )

    def test_all_unknown_gives_zero(self):
        out = mean_emoji_vector(["\U0001F996"], self.TABLE)
        np.testing.assert_array_equal(out, np.zeros(3))

    @given(st.integers(min_value=1, max_value=40))
    def test_mean_linearity_exact(self, k):
        table = EmojiTable(
            dim=3, entries={"\U0001F602": np.array([0.1, -0.7, 0.3], dtype=np.float32)}
        )
        out = mean_emoji_vector(["\U0001F602"] * k, table)
        np.testing.assert_array_equal(out, table.entries["\U0001F602"])


class TestExtractFeatures:
    def test_plain_text(self, fixture_freq, fixture_emoji_table):
        bundle = extract_features("yeh sach hai", fixture_freq, fixture_emoji_table)
        assert bundle.cleaned_text == "yeh sach hai"
        assert bundle.hashtag_flow == ""
        assert bundle.emoji_count == 0
        assert np.linalg.norm(bundle.emoji_vec) == 0

    def test_composition(self, fixture_freq, fixture_emoji_table):
        bundle = extract_features(
            "RT @user yeh sach hai #SachKaSaath \U0001F602 https://t.co/x",
            fixture_freq,
            fixture_emoji_table,
        )
        assert bundle.cleaned_text == "yeh sach hai"
        assert bundle.hashtag_flow == "sach ka saath"
        assert bundle.emoji_count == 1
        np.testing.assert_array_equal(
            bundle.emoji_vec, fixture_emoji_table.entries["\U0001F602"]
        )

    def test_duplicate_hashtags_repeat(self, fixture_freq, fixture_emoji_table):
        bundle = extract_features("#AchaDin #AchaDin", fixture_freq, fixture_emoji_table)
        assert bundle.hashtag_flow == "acha din acha din"

    def test_bare_hash_adds_nothing(self, fixture_freq, fixture_emoji_table):
        bundle = extract_features("# #AchaDin #", fixture_freq, fixture_emoji_table)
        assert bundle.hashtag_flow == "acha din"

    def test_pure_function(self, fixture_freq, fixture_emoji_table):
        text = "jhooth khabar #FakeNews \U0001F621 dekho"
        a = extract_features(text, fixture_freq, fixture_emoji_table)
        b = extract_features(text, fixture_freq, fixture_emoji_table)
        assert a.cleaned_text == b.cleaned_text
        assert a.hashtag_flow == b.hashtag_flow
        assert a.emoji_count == b.emoji_count
        assert a.emoji_vec.tobytes() == b.emoji_vec.tobytes()


class TestLoaders:
    def test_emoji_table(self, tmp_path):
        path = tmp_path / "emoji.txt"
        path.write_text("2 3\n\U0001F602 1.0 2.0 3.0\n\U0001F621 -1.0 0.5 0\n", encoding="utf-8")
        table = load_emoji_table(path)
        assert table.dim == 3 and len(table.entries) == 2

    def test_emoji_table_wrong_width(self, tmp_path):
        path = tmp_path / "emoji.txt"
        path.write_text("1 3\n\U0001F602 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_emoji_table(path)

    def test_emoji_table_count_mismatch(self, tmp_path):
        path = tmp_path / "emoji.txt"
        path.write_text("2 2\n\U0001F602 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="declares 2"):
            load_emoji_table(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "1e39"])
    def test_emoji_table_non_finite_value(self, tmp_path, value):
        # 1e39 parses as a float but overflows to inf in float32.
        path = tmp_path / "emoji.txt"
        path.write_text(f"2 3\n\U0001F602 1.0 2.0 3.0\n\U0001F621 -1.0 {value} 0\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 3: .*not finite"):
            load_emoji_table(path)

    def test_freq_dict(self, tmp_path):
        path = tmp_path / "freq.tsv"
        path.write_text("sach\t50\nka\t10\n", encoding="utf-8")
        freq = load_freq_dict(path)
        assert freq.counts == {"sach": 50, "ka": 10}
        assert freq.total == 60

    def test_freq_dict_bad_count(self, tmp_path):
        path = tmp_path / "freq.tsv"
        path.write_text("sach\t50\nka\tx\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_freq_dict(path)

    def test_freq_dict_missing_tab(self, tmp_path):
        path = tmp_path / "freq.tsv"
        path.write_text("sach 50\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 1"):
            load_freq_dict(path)


class TestDataset:
    def test_fixture_loads(self, fixture_posts):
        assert len(fixture_posts) == 12
        assert fixture_posts[0].id == "t01"
        assert fixture_posts[0].labels == frozenset({LabelTag.NON_HOSTILE})
        assert fixture_posts[6].labels == frozenset({LabelTag.FAKE, LabelTag.HATE})

    def test_quoting_round_trips(self, fixture_posts):
        assert fixture_posts[1].text == "सच बोलो, सच ही jeetega"
        assert '"pakka"' in fixture_posts[3].text

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,body,labels\nx,y,\n", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            load_dataset(path)

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,text,labels\nx,y,bogus\n", encoding="utf-8")
        with pytest.raises(DataError, match="bogus"):
            load_dataset(path)

    def test_non_hostile_exclusivity(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,text,labels\nx,y,non-hostile|hate\n", encoding="utf-8")
        with pytest.raises(DataError, match="non-hostile"):
            load_dataset(path)

    def test_field_over_csv_limit(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(f'id,text,labels\nx,y,\nz,"{"w" * 200_000}",\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 3: field larger than field limit"):
            load_dataset(path)

    def test_unlabeled_rows_allowed(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("id,text,labels\nx,koi baat,\n", encoding="utf-8")
        posts = load_dataset(path)
        assert posts[0].labels == frozenset()
