"""Combinatorics of mixing subshifts of finite type.

Symbols are 1-based in every public interface; 0-based indices only
appear inside loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

Word = tuple[int, ...]

#: most digits of k^n at which a refusal counts and prints #L_n (Python prints at most 4,300)
PRINTED_DIGITS = 100


class NotPrimitiveError(ValueError):
    """The transition matrix is not primitive (shift not mixing)."""


@dataclass(frozen=True)
class TransitionMatrix:
    """Validated 0/1 transition matrix of a mixing subshift of finite type.

    ``mixing_rate`` is the least n with all entries of Q^n positive.
    Build instances through :func:`validate`.
    """

    k: int
    entries: np.ndarray = field(repr=False)
    mixing_rate: int = 0
    #: #L_1, #L_2, ... and the last one's words by first symbol (:func:`count_words`)
    _counts: list[int] = field(default_factory=list, init=False, repr=False, compare=False)
    _vec: list[int] = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=np.int64))

    @property
    def is_full_shift(self) -> bool:
        return bool(np.all(self.entries == 1))

    def allows(self, a: int, b: int) -> bool:
        """Whether the transition a -> b is admissible (1-based symbols)."""
        return bool(self.entries[a - 1, b - 1])


def full_shift(k: int) -> TransitionMatrix:
    """The full shift on k symbols (all transitions allowed)."""
    return validate(np.ones((k, k), dtype=np.int64))


def validate(entries) -> TransitionMatrix:
    """Validate a 0/1 matrix and certify primitivity.

    Returns a TransitionMatrix carrying the mixing rate, i.e. the least
    n <= (k-1)^2 + 1 with Q^n entrywise positive.  Raises ValueError on
    malformed input and NotPrimitiveError when no such n exists.
    """
    Q = np.asarray(entries)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"transition matrix must be square, got shape {Q.shape}")
    if not np.isin(Q, (0, 1)).all():
        raise ValueError("transition matrix entries must be 0 or 1")
    Q = Q.astype(np.int64)
    k = Q.shape[0]
    if (Q.sum(axis=1) == 0).any():
        row = int(np.argmax(Q.sum(axis=1) == 0)) + 1
        raise ValueError(f"symbol {row} has no outgoing transition")
    if (Q.sum(axis=0) == 0).any():
        col = int(np.argmax(Q.sum(axis=0) == 0)) + 1
        raise ValueError(f"symbol {col} has no incoming transition")

    # Boolean powers avoid overflow; the Wielandt bound caps the search.
    bound = (k - 1) ** 2 + 1
    P = (Q > 0)
    for n in range(1, bound + 1):
        if P.all():
            return TransitionMatrix(k=k, entries=Q, mixing_rate=n)
        P = (P.astype(np.int64) @ Q) > 0
    zero = np.argwhere(~P)[0]
    raise NotPrimitiveError(
        f"matrix is not primitive: (Q^{bound})[{zero[0] + 1},{zero[1] + 1}] = 0"
    )


def check_symbols(Q: TransitionMatrix, word: Sequence[int]) -> None:
    for s in word:
        if not 1 <= s <= Q.k:
            raise ValueError(f"symbol {s} outside alphabet 1..{Q.k}")


def is_admissible(Q: TransitionMatrix, word: Sequence[int]) -> bool:
    """Whether every consecutive transition of the word is allowed."""
    check_symbols(Q, word)
    return all(Q.allows(a, b) for a, b in zip(word, word[1:]))


def count_words(Q: TransitionMatrix, n: int) -> int:
    """Exact number of admissible words of length n.

    Equals the sum of all entries of Q^(n-1), computed with Python
    integers, so the count never overflows.  The counts are kept on Q
    and extended on demand, one step of the count vector per length.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    counts, vec = Q._counts, Q._vec
    if len(counts) < n:
        succ = [np.flatnonzero(row).tolist() for row in Q.entries]
        while len(counts) < n:
            vec[:] = [sum(vec[j] for j in row) for row in succ] if counts else [1] * Q.k
            counts.append(sum(vec))
    return counts[n - 1]


def length_past(Q: TransitionMatrix, n: int, limit: int) -> int | None:
    """None when #L_n <= limit; else a length m <= n with #L_m > limit,
    which proves #L_n > limit, since every symbol has a successor and so
    #L never decreases: n itself when k^n, which bounds #L_n, has at
    most PRINTED_DIGITS digits, else the least such m, past which no
    length is counted."""
    if n * math.log10(Q.k) <= PRINTED_DIGITS:
        return n if count_words(Q, n) > limit else None
    return next((m for m in range(1, n + 1) if count_words(Q, m) > limit), None)


def word_arrays(Q: TransitionMatrix, n: int) -> list[np.ndarray]:
    """:func:`word_array` at every length 1..n, as a list, from one pass.

    Level-synchronous, in the order of a profile sweep: each level
    extends every row by the symbols that ``np.nonzero`` finds in the
    transition row of its last symbol.
    """
    levels = [np.arange(1, Q.k + 1)[:, None]] if n >= 1 else []
    for _ in range(n - 1):
        words = levels[-1]
        par, sym = np.nonzero(Q.entries[words[:, -1] - 1])
        levels.append(np.column_stack([words[par], sym + 1]))
    return levels


def word_array(Q: TransitionMatrix, n: int) -> np.ndarray:
    """Admissible words of length n, one per row, in lexicographic order."""
    if n < 1:
        raise ValueError("word length must be >= 1")
    return word_arrays(Q, n)[-1]


def child_tables(Q: TransitionMatrix, n: int) -> list[np.ndarray]:
    """Rank tables of the admissible words of length < n.

    ``tables[m - 1]`` has shape (#L_m, k); entry [r, s - 1] is the row of
    ``word_array(Q, m + 1)`` holding row r of ``word_array(Q, m)``
    followed by s, or -1 if that word is not admissible.  Built in the
    ``np.nonzero`` order of :func:`word_array`.
    """
    last = np.arange(Q.k)  # 0-based last symbol of each m-word
    tables = []
    for _ in range(n - 1):
        par, sym = np.nonzero(Q.entries[last])
        table = np.full((len(last), Q.k), -1)
        table[par, sym] = np.arange(len(par))
        tables.append(table)
        last = sym
    return tables


def enumerate_words(Q: TransitionMatrix, n: int) -> Iterator[Word]:
    """Yield the admissible words of length n in lexicographic order."""
    yield from map(tuple, word_array(Q, n).tolist())


def shift_entropy(Q: TransitionMatrix) -> float:
    """log of the Perron root of Q (topological entropy of the shift):
    a primitive Q has one eigenvalue of largest modulus, and it is real
    and positive."""
    return float(np.log(np.abs(np.linalg.eigvals(Q.entries.astype(float))).max()))
