"""Seeded input generator for the benchmark workloads.

The language is fixed: one word list with Zipfian ranks, label cue words
and an emoji set, all drawn from LANGUAGE_SEED. A workload seed only
chooses which posts are sampled from that language, so artifacts trained
on one seed read the posts of any other seed with an in-vocabulary word
list. Everything uses random.Random, whose output is fixed across
platforms, so a seed always gives byte-identical files.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

LANGUAGE_SEED = 20210108
N_WORDS = 7500
ZIPF_EXPONENT = 1.05
EMOJI_DIM = 300
TWEET_LIMIT = 279
LONG_TAIL_EVERY = 12  # every 12th mixed post is a hashtag to the tweet limit

# The public corpus: 5728 posts, 3050 non-hostile; fine tag counts below.
NON_HOSTILE_SHARE = 3050 / 5728
FINE_TAGS = ("fake", "hate", "offensive", "defamation")
FINE_COUNTS = (1144, 792, 742, 564)
# 3242 fine tags on 2678 hostile posts: 564 posts carry a second tag.
SECOND_TAG_SHARE = 564 / 2678
CUES_PER_LABEL = 6

_ONSETS = ("", "b", "bh", "ch", "d", "dh", "g", "h", "j", "k", "kh", "l", "m", "n",
           "p", "ph", "r", "s", "sh", "t", "th", "v", "y", "z")
_VOWELS = ("a", "aa", "e", "i", "ee", "o", "u", "oo", "ai", "au")
_CODAS = ("", "", "", "n", "r", "l", "m", "t", "k")
# Emoticons and pictographs the tokenizer classifies as emoji.
_EMOJI_BASES = [0x1F600 + i for i in range(0, 80, 2)]

# short: 8-30 words, a quarter with one short hashtag. mixed: the same,
# except that every LONG_TAIL_EVERY-th post is a few words and one CamelCase
# hashtag running to the tweet limit, the posts that make hashtag
# segmentation costly. long: 110-114 words, so the first five long posts
# are one whole cycle of word counts.
KINDS = ("short", "mixed", "long")
# Plain words per post, before cue words, hashtags and emojis.
WORDS_PER_POST = {"short": (8, 30), "mixed": (8, 30), "long": (110, 114)}
# Share of posts with emojis. Hostile and non-hostile posts draw from
# disjoint halves of the emoji set: the signal one short epoch can learn.
EMOJI_SHARE = 0.8


@dataclass(frozen=True)
class Language:
    words: tuple[str, ...]
    cum_weights: tuple[float, ...]
    cues: dict
    emojis: tuple[str, ...]


@lru_cache(maxsize=1)
def language() -> Language:
    """The fixed word list, Zipf weights, per-label cue words and emojis."""
    rng = random.Random(LANGUAGE_SEED)
    words: list[str] = []
    seen = set()
    while len(words) < N_WORDS:
        n_syl = rng.choice((1, 2, 2, 2, 3, 3, 4))
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS) for _ in range(n_syl)
        )
        if len(word) >= 2 and word not in seen:
            seen.add(word)
            words.append(word)
    # Frequent words are short, as in natural text; ties keep draw order.
    words.sort(key=len)
    cum, total = [], 0.0
    for rank in range(1, N_WORDS + 1):
        total += 1.0 / rank**ZIPF_EXPONENT
        cum.append(total)
    # Cue groups: one per label, plus one every hostile post draws from,
    # so the coarse task is learnable within one short epoch.
    labels = ("non-hostile", "hostile") + FINE_TAGS
    pool = rng.sample(range(150, 1500), CUES_PER_LABEL * len(labels))
    cues = {
        label: tuple(words[r] for r in pool[i * CUES_PER_LABEL : (i + 1) * CUES_PER_LABEL])
        for i, label in enumerate(labels)
    }
    emojis = tuple(chr(cp) for cp in _EMOJI_BASES)
    return Language(tuple(words), tuple(cum), cues, emojis)


def _zipf_words(rng: random.Random, lang: Language, k: int) -> list[str]:
    return rng.choices(lang.words, cum_weights=lang.cum_weights, k=k)


def _labels(rng: random.Random) -> tuple[str, ...]:
    if rng.random() < NON_HOSTILE_SHARE:
        return ("non-hostile",)
    first = rng.choices(FINE_TAGS, weights=FINE_COUNTS)[0]
    tags = {first}
    if rng.random() < SECOND_TAG_SHARE:
        rest = [t for t in FINE_TAGS if t != first]
        tags.add(rng.choices(rest, weights=[FINE_COUNTS[FINE_TAGS.index(t)] for t in rest])[0])
    return tuple(t for t in FINE_TAGS if t in tags)


def _hashtag(rng: random.Random, lang: Language, n_words: int, cues: list[str]) -> str:
    parts = _zipf_words(rng, lang, n_words)
    if cues and rng.random() < 0.5:
        parts[rng.randrange(len(parts))] = rng.choice(cues)
    return "#" + "".join(w.capitalize() for w in parts)


def _long_hashtag(rng: random.Random, lang: Language, max_chars: int) -> str:
    """A CamelCase hashtag of dictionary words, as long as max_chars allows."""
    body = ""
    while True:
        word = _zipf_words(rng, lang, 1)[0].capitalize()
        if 1 + len(body) + len(word) > max_chars:
            break
        body += word
    return "#" + body


def _schedule(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n values cycling through lo..hi, each cycle in shuffled order, so
    their sum, and the work it makes, hardly varies between seeds."""
    out: list[int] = []
    while len(out) < n:
        cycle = list(range(lo, hi + 1))
        rng.shuffle(cycle)
        out += cycle
    return out[:n]


def _post_text(
    rng: random.Random, lang: Language, labels: tuple[str, ...], n_words: int, long_tail: bool,
) -> str:
    hostile = labels != ("non-hostile",)
    groups = labels + (("hostile",) if hostile else ())
    cues = [c for group in groups for c in lang.cues[group]]
    words = _zipf_words(rng, lang, n_words)
    for group in groups:
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.9:
                words.insert(rng.randrange(len(words) + 1), rng.choice(lang.cues[group]))
    if rng.random() < 0.1:
        other = rng.choice(sorted(lang.cues))
        words.insert(rng.randrange(len(words) + 1), rng.choice(lang.cues[other]))
    extras: list[str] = []
    if rng.random() < 0.25:
        extras.append(_hashtag(rng, lang, rng.randint(1, 3), cues))
    if rng.random() < EMOJI_SHARE:
        half = len(lang.emojis) // 2
        pool = lang.emojis[:half] if hostile else lang.emojis[half:]
        extras += [rng.choice(pool) for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.1:
        extras.append(f"@user{rng.randint(1, 999)}")
    if rng.random() < 0.05:
        extras.append(f"https://t.co/{rng.randint(10**5, 10**6 - 1)}")
    for token in extras:
        words.insert(rng.randrange(len(words) + 1), token)
    if rng.random() < 0.05:
        words.insert(0, "RT")
    if rng.random() < 0.1:
        i = rng.randrange(len(words))
        words[i] = words[i] + rng.choice(",;:")
    text = " ".join(words)
    if long_tail:
        # One hashtag filling the rest of the tweet limit.
        text = " ".join(words[: rng.randint(1, 3)])
        text += " " + _long_hashtag(rng, lang, TWEET_LIMIT - len(text) - 1)
    return text


def generate_posts(kind: str, n_posts: int, seed: int, prefix: str = "p") -> list[tuple[str, str, str]]:
    """(id, text, labels) rows; labels are '|'-joined in a fixed order."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    lang = language()
    rng = random.Random(f"{kind}:{seed}")
    sizes = random.Random(f"{kind}:{seed}:sizes")
    n_words = _schedule(sizes, *WORDS_PER_POST[kind], n_posts)
    rows = []
    for i in range(n_posts):
        labels = _labels(rng)
        # A fixed share of long-tail posts, not a random one: they dominate
        # preprocessing cost, so their count must not vary by seed.
        long_tail = kind == "mixed" and i % LONG_TAIL_EVERY == LONG_TAIL_EVERY - 1
        text = _post_text(rng, lang, labels, n_words[i], long_tail)
        rows.append((f"{prefix}{i:05d}", text, "|".join(labels)))
    return rows


def write_posts(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "text", "labels"])
        writer.writerows(rows)


def write_freq_dict(path: Path) -> None:
    """Zipfian counts for every word of the language, rank 1 first."""
    lang = language()
    lines = [f"{w}\t{int(1e7 / rank**ZIPF_EXPONENT) + 1}" for rank, w in enumerate(lang.words, 1)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_emoji_table(path: Path) -> None:
    """A 300-d vector for every emoji the generator emits."""
    lang = language()
    rng = random.Random(LANGUAGE_SEED + 1)
    lines = [f"{len(lang.emojis)} {EMOJI_DIM}"]
    for emoji in lang.emojis:
        lines.append(emoji + " " + " ".join(f"{rng.uniform(-1, 1):.4f}" for _ in range(EMOJI_DIM)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_inputs(out: Path, kind: str, n_posts: int, seed: int, prefix: str = "p") -> dict:
    """Write posts.csv, freq.tsv and emoji.txt into out; return the
    measured input properties."""
    out.mkdir(parents=True, exist_ok=True)
    rows = generate_posts(kind, n_posts, seed, prefix)
    write_posts(out / "posts.csv", rows)
    write_freq_dict(out / "freq.tsv")
    write_emoji_table(out / "emoji.txt")
    return properties(rows)


def properties(rows) -> dict:
    """Measured input properties, including the share of posts that have
    each property a later optimisation might depend on."""
    lang = language()
    emojis = set(lang.emojis)
    types = set()
    n_tokens, hashtag_chars, longest = [], [], 0
    with_hashtag = with_long = with_emoji = non_hostile = 0
    for _, text, labels in rows:
        tokens = text.split()
        n_tokens.append(len(tokens))
        types.update(t.casefold() for t in tokens)
        tags = [t.strip(",;:") for t in tokens if t.startswith("#")]
        hashtag_chars.append(sum(len(t) for t in tags))
        longest = max([longest] + [len(t) for t in tags])
        with_hashtag += bool(tags)
        with_long += any(len(t) >= 100 for t in tags)
        with_emoji += any(ch in emojis for ch in text)
        non_hostile += labels == "non-hostile"
    n = len(rows)
    return {
        "posts": n,
        "vocab_types": len(types),
        "mean_tokens": round(sum(n_tokens) / n, 3),
        "max_tokens": max(n_tokens),
        "hashtag_chars_per_post": round(sum(hashtag_chars) / n, 3),
        "longest_hashtag": longest,
        "non_hostile_share": round(non_hostile / n, 4),
        "hashtag_post_share": round(with_hashtag / n, 4),
        "long_hashtag_post_share": round(with_long / n, 4),
        "emoji_post_share": round(with_emoji / n, 4),
    }
