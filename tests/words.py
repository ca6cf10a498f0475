"""Word helpers for tests: canonical sort keys, random words and a ball's words.

Words are tuples of signed 1-based generator indices, as in ``pslab.matgroup``.
"""


def word_key(word):
    """Sort key of a word in canonical order: letters +1, -1, +2, -2, ..."""
    return tuple(2 * (abs(x) - 1) + (x < 0) for x in word)


def random_words(rank, count, max_len, rng):
    """Freely reduced random words, for property tests and identity suites."""
    words = []
    for _ in range(count):
        length = int(rng.integers(1, max_len + 1))
        word = []
        for _ in range(length):
            while True:
                letter = int(rng.integers(1, rank + 1)) * (1 if rng.random() < 0.5 else -1)
                if not word or word[-1] != -letter:
                    break
            word.append(letter)
        words.append(tuple(word))
    return words


def ball_words(ball):
    """The words of a WordBall's rows, as tuples, in row order."""
    return [tuple(w) for block in ball.sphere_letters() for w in block.tolist()]
