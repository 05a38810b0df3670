"""Brute-force reference implementations the fast paths are checked against."""

import math


def enumerate_segmentations(body: str):
    """All ways to split body into non-empty contiguous words."""
    n = len(body)
    for mask in range(1 << max(n - 1, 0)):
        words = []
        start = 0
        for i in range(n - 1):
            if mask >> i & 1:
                words.append(body[start : i + 1])
                start = i + 1
        words.append(body[start:])
        yield words


def segmentation_score(words, freq) -> float:
    total = max(freq.total, 1)
    score = 0.0
    for w in words:
        count = freq.counts.get(w)
        if count is not None:
            score += math.log(count / freq.total)
        else:
            score += -(math.log(total) + len(w) * math.log(10))
    return score


def best_segmentation_bruteforce(body: str, freq) -> str:
    """Exhaustive maximum of the segmentation score; ties prefer fewer
    words, then the lexicographically smallest joined string."""
    best = None
    for words in enumerate_segmentations(body):
        cand = (segmentation_score(words, freq), len(words), " ".join(words))
        if (
            best is None
            or cand[0] > best[0]
            or (cand[0] == best[0] and (cand[1], cand[2]) < (best[1], best[2]))
        ):
            best = cand
    return best[2]


def _dp_word_score(word: str, freq) -> float:
    count = freq.counts.get(word)
    if count is not None:
        return math.log(count / freq.total)
    # Zipf-style out-of-vocabulary penalty, exponential in word length.
    total = max(freq.total, 1)
    return -(math.log(total) + len(word) * math.log(10))


def segment_hashtag_quadratic(tag: str, freq) -> str:
    """The earlier all-split-points dynamic program: every prefix is
    extended by every word, and joined strings are built for every
    candidate. It agrees with the fast segmenter whenever freq.total >= 2."""
    body = tag[1:].casefold()
    n = len(body)
    # best[i]: (score, word count, joined words) for body[:i]; higher
    # score wins, then fewer words, then the smaller string.
    best = [None] * (n + 1)
    best[0] = (0.0, 0, "")
    for i in range(1, n + 1):
        for j in range(i):
            prev = best[j]
            if prev is None:
                continue
            word = body[j:i]
            score = prev[0] + _dp_word_score(word, freq)
            joined = word if j == 0 else f"{prev[2]} {word}"
            cand = (score, prev[1] + 1, joined)
            cur = best[i]
            if (
                cur is None
                or cand[0] > cur[0]
                or (cand[0] == cur[0] and (cand[1], cand[2]) < (cur[1], cur[2]))
            ):
                best[i] = cand
    return best[n][2]


def confusion_matrix_scores(preds, golds):
    """Per-class precision/recall/F1 plus macro and weighted F1 via an
    explicit confusion matrix."""
    matrix = [[0, 0], [0, 0]]  # matrix[gold][pred]
    for p, g in zip(preds, golds):
        matrix[g][p] += 1
    result = {}
    f1s = []
    supports = []
    for cls in (0, 1):
        tp = matrix[cls][cls]
        fp = matrix[1 - cls][cls]
        fn = matrix[cls][1 - cls]
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        support = tp + fn
        result[cls] = (precision, recall, f1, support)
        f1s.append(f1)
        supports.append(support)
    result["macro_f1"] = sum(f1s) / 2
    result["weighted_f1"] = (supports[0] * f1s[0] + supports[1] * f1s[1]) / len(golds)
    return result
