"""Social-post parsing and the three model input features.

A raw post is tokenized into classified tokens (words, emojis, hashtags,
mentions, URLs, numbers, reserved markers, smileys), then reduced to a
FeatureBundle: cleaned text (words only), the hashtag flow (segmented
hashtag bodies in order), and the mean emoji embedding.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError


class LabelTag(Enum):
    NON_HOSTILE = "non-hostile"
    FAKE = "fake"
    HATE = "hate"
    OFFENSIVE = "offensive"
    DEFAMATION = "defamation"


FINE_TAGS = (LabelTag.FAKE, LabelTag.HATE, LabelTag.OFFENSIVE, LabelTag.DEFAMATION)
_TAG_BY_NAME = {tag.value: tag for tag in LabelTag}


@dataclass(frozen=True)
class RawPost:
    id: str
    text: str
    labels: frozenset[LabelTag]


class TokenKind(Enum):
    WORD = "word"
    EMOJI = "emoji"
    HASHTAG = "hashtag"
    MENTION = "mention"
    URL = "url"
    NUMBER = "number"
    RESERVED = "reserved"
    SMILEY = "smiley"


@dataclass(frozen=True)
class ClassifiedToken:
    surface: str
    kind: TokenKind


@dataclass(frozen=True)
class FreqDict:
    """Lowercase word counts used to score hashtag segmentations."""

    counts: dict[str, int]
    total: int

    @classmethod
    def from_counts(cls, counts: dict[str, int]) -> "FreqDict":
        return cls(dict(counts), sum(counts.values()))

    @classmethod
    def empty(cls) -> "FreqDict":
        return cls({}, 0)

    @cached_property
    def max_word_len(self) -> int:
        """Length of the longest dictionary word (0 when empty)."""
        return max(map(len, self.counts), default=0)


@dataclass(frozen=True)
class EmojiTable:
    dim: int
    entries: dict[str, np.ndarray]


@dataclass(frozen=True)
class FeatureBundle:
    cleaned_text: str
    hashtag_flow: str
    emoji_vec: np.ndarray
    emoji_count: int


SEPARATORS = ",;:"
_SEP_SPLIT = re.compile(r"[,;:]+")
_URL = re.compile(r"^(https?://|www\.)\S+$")
RESERVED_WORDS = frozenset({"RT", "FAV"})
# Only whole whitespace-delimited tokens count as smileys; the separator
# split would otherwise tear ':' off them.
SMILEYS = frozenset({":)", ":(", ":D", ";)", ":P", ":/"})

# Emoticons, Misc Symbols & Pictographs, Supplemental Symbols, Transport,
# plus the U+2600 and U+2700 blocks.
_EMOJI_RANGES = (
    (0x1F300, 0x1F5FF),
    (0x1F600, 0x1F64F),
    (0x1F680, 0x1F6FF),
    (0x1F900, 0x1F9FF),
    (0x2600, 0x26FF),
    (0x2700, 0x27BF),
)
_ZWJ = 0x200D
_VARIATION_SELECTOR = 0xFE0F
_SKIN_TONES = (0x1F3FB, 0x1F3FF)


def _is_emoji_base(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _EMOJI_RANGES)


def _is_emoji_modifier(ch: str) -> bool:
    cp = ord(ch)
    return cp == _VARIATION_SELECTOR or _SKIN_TONES[0] <= cp <= _SKIN_TONES[1]


def _take_emoji_grapheme(text: str, start: int) -> int:
    """Return the end index of the emoji grapheme starting at text[start]."""
    i = start + 1
    while i < len(text) and _is_emoji_modifier(text[i]):
        i += 1
    # ZWJ sequences (e.g. family emoji) stay one grapheme.
    while i + 1 < len(text) and ord(text[i]) == _ZWJ and _is_emoji_base(text[i + 1]):
        i += 2
        while i < len(text) and _is_emoji_modifier(text[i]):
            i += 1
    return i


def _classify_plain(segment: str) -> TokenKind:
    if segment in RESERVED_WORDS:
        return TokenKind.RESERVED
    if any(ch.isdigit() for ch in segment):
        return TokenKind.NUMBER
    return TokenKind.WORD


def _scan_segment(segment: str, out: list[ClassifiedToken]) -> None:
    """Split emoji graphemes out of a segment and classify the rest."""
    buf_start = 0
    i = 0
    while i < len(segment):
        if _is_emoji_base(segment[i]):
            if buf_start < i:
                word = segment[buf_start:i]
                out.append(ClassifiedToken(word, _classify_plain(word)))
            end = _take_emoji_grapheme(segment, i)
            out.append(ClassifiedToken(segment[i:end], TokenKind.EMOJI))
            i = end
            buf_start = i
        else:
            i += 1
    if buf_start < len(segment):
        word = segment[buf_start:]
        out.append(ClassifiedToken(word, _classify_plain(word)))


def tokenize_raw(text: str) -> list[ClassifiedToken]:
    """Split text on whitespace plus commas, colons and semicolons and
    classify every resulting token.

    URL-shaped tokens and '#'/'@'-prefixed tokens are kept intact rather
    than split on internal separators.
    """
    tokens: list[ClassifiedToken] = []
    for raw_piece in text.split():
        # Smileys start with ':'/';' so they must be recognized before
        # boundary separators are stripped.
        if raw_piece in SMILEYS:
            tokens.append(ClassifiedToken(raw_piece, TokenKind.SMILEY))
            continue
        piece = raw_piece.strip(SEPARATORS)
        if not piece:
            continue
        if _URL.match(piece):
            tokens.append(ClassifiedToken(piece, TokenKind.URL))
            continue
        if piece[0] == "#":
            tokens.append(ClassifiedToken(piece, TokenKind.HASHTAG))
            continue
        if piece[0] == "@":
            tokens.append(ClassifiedToken(piece, TokenKind.MENTION))
            continue
        for sub in _SEP_SPLIT.split(piece):
            if not sub:
                continue
            if _URL.match(sub):
                tokens.append(ClassifiedToken(sub, TokenKind.URL))
            elif sub[0] == "#":
                tokens.append(ClassifiedToken(sub, TokenKind.HASHTAG))
            elif sub[0] == "@":
                tokens.append(ClassifiedToken(sub, TokenKind.MENTION))
            else:
                _scan_segment(sub, tokens)
    return tokens


def clean_text(tokens: Iterable[ClassifiedToken]) -> str:
    """Join WORD surfaces with single spaces, dropping every other kind."""
    return " ".join(t.surface for t in tokens if t.kind is TokenKind.WORD)


_LOG10 = math.log(10)


def _oov_score(length: int, log_total: float) -> float:
    # Zipf-style out-of-vocabulary penalty, exponential in word length.
    return -(log_total + length * _LOG10)


# A segmentation entry is (score, words, end, prev): a split of body[:end]
# whose last word body[prev[2]:end] extends the entry prev (None at the
# start). Entries share their prefixes, so no joined string is built.
def _joined_before(a: tuple, b: tuple, body: str) -> bool:
    """Whether a's words, joined by spaces, sort before b's. Both split
    the same prefix, so the strings first differ at the smallest cut
    only one of them has: a space there against a body character."""
    cut, cut_in_a = -1, False
    while a is not b:
        if a[2] > b[2]:
            cut, cut_in_a, a = a[2], True, a[3]
        elif b[2] > a[2]:
            cut, cut_in_a, b = b[2], False, b[3]
        else:
            a, b = a[3], b[3]
    return (" " < body[cut]) == cut_in_a


def _better(cur: tuple | None, cand: tuple | None, body: str) -> tuple | None:
    """The preferred of two splits of one prefix: higher score, then
    fewer words, then the smaller joined string. None always loses."""
    if cur is None:
        return cand
    if cand is None or cand[0] < cur[0]:
        return cur
    if cand[0] > cur[0] or cand[1] < cur[1]:
        return cand
    if cand[1] > cur[1]:
        return cur
    return cand if _joined_before(cand, cur, body) else cur


def _words(entry: tuple, body: str) -> str:
    cuts = []
    while entry[3] is not None:
        cuts.append(entry[2])
        entry = entry[3]
    bounds = [0] + cuts[::-1]
    return " ".join(body[a:b] for a, b in zip(bounds, bounds[1:]))


def segment_hashtag(tag: str, freq: FreqDict) -> str:
    """Split a hashtag body into the highest-scoring word sequence.

    Scores are summed per-word unigram log probabilities with a
    length-exponential penalty for unknown words, and an unknown word
    never directly follows another. Ties prefer fewer words, then the
    lexicographically smallest result. The concatenation of the output
    equals the case-folded tag body. Cost is O(n·L) for a body of n
    characters and a longest dictionary word of L characters, unless
    many long unknown words tie up to rounding (then up to O(n²)).
    """
    if not tag.startswith("#"):
        raise ValueError(f"hashtag must start with '#', got {tag!r}")
    body = tag[1:].casefold()
    if not body:
        raise ValueError("hashtag body is empty")
    if any(ch.isspace() for ch in body):
        raise ValueError(f"hashtag body contains whitespace: {tag!r}")
    n = len(body)
    counts, total = freq.counts, freq.total
    log_total = math.log(max(total, 1))
    window = freq.max_word_len
    start = (0.0, 0, 0, None)
    # best[i]: the preferred split of body[:i]; known[i]: the preferred
    # one ending in a dictionary word (or the empty split at 0), the only
    # kind an unknown word may extend. When total >= 2 merging two
    # adjacent unknown words gains at least log 2, so the rule changes
    # no result there; with no dictionary it keeps the body whole.
    best: list[tuple | None] = [start] + [None] * n
    known: list[tuple | None] = [start] + [None] * n
    # An unknown word body[j:i] longer than `window` scores
    # key(j) - log_total - i·log 10 with key(j) = known[j] score + j·log 10,
    # so only the j whose key is near the running maximum can win at any
    # i; `far` holds those (key, entry) pairs and their exact scores
    # decide. `tol` is far above the rounding error of a sum of at most n
    # scores below `bound` in size (dictionary counts at most `total`).
    far: list[tuple[float, tuple]] = []
    far_max = -math.inf
    bound = n * (log_total + 2 * _LOG10) + 1
    tol = (n + 3) * bound * 2.0**-48
    for i in range(1, n + 1):
        j = i - window - 1
        if j >= 0 and known[j] is not None:
            key = known[j][0] + j * _LOG10
            if key >= far_max - tol:
                if key > far_max:
                    far_max = key
                    far = [f for f in far if f[0] >= key - tol]
                far.append((key, known[j]))
        in_dict = None
        unknown = None
        for j in range(max(0, i - window), i):
            count = counts.get(body[j:i])
            if count is not None:
                prev = best[j]
                cand = (prev[0] + math.log(count / total), prev[1] + 1, i, prev)
                in_dict = _better(in_dict, cand, body)
            elif known[j] is not None:
                prev = known[j]
                cand = (prev[0] + _oov_score(i - j, log_total), prev[1] + 1, i, prev)
                unknown = _better(unknown, cand, body)
        for _, prev in far:
            cand = (prev[0] + _oov_score(i - prev[2], log_total), prev[1] + 1, i, prev)
            unknown = _better(unknown, cand, body)
        known[i] = in_dict
        best[i] = _better(in_dict, unknown, body)
    return _words(best[n], body)


def hashtag_flow(tokens: Iterable[ClassifiedToken], freq: FreqDict) -> str:
    """The segmented bodies of the hashtag tokens, joined in order; a
    bare '#' contributes nothing."""
    return " ".join(
        segment_hashtag(t.surface, freq)
        for t in tokens
        if t.kind is TokenKind.HASHTAG and len(t.surface) > 1
    )


def mean_emoji_vector(emojis: Sequence[str], table: EmojiTable) -> np.ndarray:
    """Arithmetic mean of the table vectors of the given emojis.

    Emojis without an entry are skipped; with nothing left the zero
    vector is returned.
    """
    known = [table.entries[e] for e in emojis if e in table.entries]
    if not known:
        return np.zeros(table.dim, dtype=np.float32)
    # Accumulate in float64 so k copies of one vector average back exactly.
    return np.mean(np.stack(known), axis=0, dtype=np.float64).astype(np.float32)


def extract_features(text: str, freq: FreqDict, table: EmojiTable) -> FeatureBundle:
    tokens = tokenize_raw(text)
    cleaned = clean_text(tokens)
    emojis = [t.surface for t in tokens if t.kind is TokenKind.EMOJI]
    return FeatureBundle(
        cleaned_text=cleaned,
        hashtag_flow=hashtag_flow(tokens, freq),
        emoji_vec=mean_emoji_vector(emojis, table),
        emoji_count=len(emojis),
    )


# ---------------------------------------------------------------------------
# File loaders
# ---------------------------------------------------------------------------


def load_emoji_table(path) -> EmojiTable:
    """Parse the embedding file: "<count> <dim>" header, then one
    "<grapheme> <f_1> ... <f_dim>" line per emoji."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"{path}: empty emoji table")
    header = lines[0].split()
    if len(header) != 2:
        raise DataError(f"{path}: line 1: header must be '<count> <dim>'")
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError:
        raise DataError(f"{path}: line 1: header must be two integers") from None
    if count < 0 or dim <= 0:
        raise DataError(f"{path}: line 1: bad count/dim {count} {dim}")
    entries: dict[str, np.ndarray] = {}
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(" ")
        if len(fields) != dim + 1:
            raise DataError(f"{path}: line {ln}: expected {dim} floats, got {len(fields) - 1}")
        try:
            with np.errstate(over="ignore"):
                vec = np.array([float(x) for x in fields[1:]], dtype=np.float32)
        except ValueError:
            raise DataError(f"{path}: line {ln}: malformed float") from None
        if not np.isfinite(vec).all():
            raise DataError(f"{path}: line {ln}: value not finite in float32")
        entries[fields[0]] = vec
    if len(entries) != count:
        raise DataError(f"{path}: header declares {count} entries, found {len(entries)}")
    return EmojiTable(dim=dim, entries=entries)


def load_freq_dict(path) -> FreqDict:
    """Parse "<word>\\t<count>" lines into a FreqDict; words are case-folded."""
    counts: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            word, sep, count_str = line.partition("\t")
            if not sep or not word:
                raise DataError(f"{path}: line {ln}: expected '<word>\\t<count>'")
            try:
                count = int(count_str)
            except ValueError:
                raise DataError(f"{path}: line {ln}: count is not an integer") from None
            if count <= 0:
                raise DataError(f"{path}: line {ln}: count must be positive")
            word = word.casefold()
            counts[word] = counts.get(word, 0) + count
    return FreqDict.from_counts(counts)


def parse_labels(field: str) -> frozenset[LabelTag]:
    if not field:
        return frozenset()
    tags = set()
    for name in field.split("|"):
        tag = _TAG_BY_NAME.get(name)
        if tag is None:
            raise DataError(f"unknown label {name!r}")
        tags.add(tag)
    if LabelTag.NON_HOSTILE in tags and len(tags) > 1:
        raise DataError("non-hostile cannot combine with other labels")
    return frozenset(tags)


def load_dataset(path) -> list[RawPost]:
    """Parse the delimited dataset: header "id,text,labels", double-quoted
    text with doubled-quote escaping, '|'-joined lowercase labels."""
    posts = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            if header != ["id", "text", "labels"]:
                raise DataError("header must be id,text,labels")
            for row in reader:
                if not row:
                    continue
                if len(row) != 3:
                    raise DataError(f"expected 3 fields, got {len(row)}")
                posts.append(RawPost(id=row[0], text=row[1], labels=parse_labels(row[2])))
        except StopIteration:
            raise DataError(f"{path}: empty dataset file") from None
        except (DataError, csv.Error) as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    return posts
