"""Reference computations the benchmark checks polarkit against.

Each one is written from the defining recursion or formula, not from the
library's code, so a fast path that returns a wrong answer fails a check
instead of posting a better time.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def erasure_flags(erased) -> np.ndarray:
    """Genie-aided SC erasure flag of every synthesized BEC channel, in index order.

    A block of erasure flags splits into e1 (even positions) and e2 (odd
    positions); the minus half e1 | e2 is decoded first, then the plus half
    e1 & e2, recursively.  SC decoding of a BEC block fails exactly when some
    information index is flagged, and never guesses otherwise.
    """
    e = np.asarray(erased, dtype=bool)[None, :]
    while e.shape[1] > 1:
        e1, e2 = e[:, 0::2], e[:, 1::2]
        # Row b splits into rows 2b (minus) and 2b+1 (plus): index order is kept.
        e = np.stack((e1 | e2, e1 & e2), axis=1).reshape(-1, e.shape[1] // 2)
    return e[:, 0]


def encode(u) -> np.ndarray:
    """x = u G from the recursion x[0::2] = enc(u_lo) ^ enc(u_hi), x[1::2] = enc(u_hi)."""
    x = np.asarray(u, dtype=np.uint8)[:, None]
    while x.shape[0] > 1:
        lo, hi = x[0::2], x[1::2]
        y = np.empty((lo.shape[0], 2 * lo.shape[1]), dtype=np.uint8)
        y[:, 0::2] = lo ^ hi
        y[:, 1::2] = hi
        x = y
    return x[0]


def embed(info_set, block_length: int, message, frozen_value: int = 0) -> np.ndarray:
    """The input word u: frozen positions hold frozen_value, info positions the message."""
    u = np.full(block_length, frozen_value, dtype=np.uint8)
    u[np.asarray(info_set)] = np.asarray(message, dtype=np.uint8)
    return u


def wilson(failures: int, trials: int, z: float) -> tuple[float, float]:
    """Wilson score interval of a binomial proportion at z standard deviations."""
    p = failures / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def converse_binomial(z0: float, n: int, beta: float) -> float:
    """P(L <= n beta - log2 log2(1/z0)) for L ~ Binomial(n, 1/2), summed exactly."""
    t = n * beta - math.log2(math.log2(1.0 / z0))
    if t < 0.0:
        return 0.0
    kmax = min(math.floor(t), n)
    return float(Fraction(sum(math.comb(n, k) for k in range(kmax + 1)), 2**n))


def hajek_bound(n: int) -> float:
    """E[sqrt(Z_n (1 - Z_n))] <= (1/2) (3/4)^(n/2) for the extremal process at z0 = 1/2."""
    return 0.5 * 0.75 ** (0.5 * n)
