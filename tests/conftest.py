import numpy as np
import pytest

from polarkit.bdmc import Channel
from polarkit.zprocess import _depth, _paths, _prefixes


def random_channel(rng: np.random.Generator, max_outputs: int = 16) -> Channel:
    """A random valid channel; occasionally sparse to exercise zero handling."""
    m = int(rng.integers(1, max_outputs + 1))
    probs = np.empty((m, 2))
    for x in (0, 1):
        col = rng.dirichlet(np.ones(m))
        if m > 2 and rng.random() < 0.3:
            # Zero out a strict subset of the entries, then renormalize.
            kill = rng.random(m) < 0.4
            if kill.all():
                kill[int(rng.integers(0, m))] = False
            col = np.where(kill, 0.0, col)
            col = col / col.sum()
        probs[:, x] = col
    return Channel(probs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def order_violations(z, tol: float = 0.0) -> int:
    """The number of pairs (i, j) with z[j] > z[i] + tol, j a move of i that
    never raises the Z of a synthesized channel, over z in index order
    (first coin most significant, coin 1 the squaring child).  The moves:
    raising a 0 coin to 1, j = i | 2^k, and moving a 1 one coin earlier,
    "01" -> "10" at coins k + 1 and k, j = i + 2^k."""
    z = np.asarray(z)
    i = np.arange(z.size)
    n = z.size.bit_length() - 1
    found = 0
    for k in range(n):
        moved = i[(i >> k) & 1 == 0]
        found += np.count_nonzero(z[moved + (1 << k)] > z[moved] + tol)
    for k in range(n - 1):
        moved = i[(i >> k) & 3 == 1]
        found += np.count_nonzero(z[moved + (1 << k)] > z[moved] + tol)
    return int(found)


def raw_coin_rows(rng, size: int, steps: int) -> np.ndarray:
    """(steps, size) uint8 coins, by shifts: row r is the low size bits of
    the generator's next ceil(size/64) raw words, low bit first, as
    zprocess._coin_rows reads them."""
    words = -(-size // 64)
    raw = rng.bit_generator.random_raw(steps * words).reshape(steps, words, 1)
    bits = (raw >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    return bits.reshape(steps, 64 * words)[:, :size].astype(np.uint8)


def prefix_coins(size: int, depth: int) -> np.ndarray:
    """(depth, size) uint8 coins: lane j's first depth coins, the bits of
    j // (size >> depth), most significant first."""
    prefix = np.arange(size) // (size >> depth)
    return ((prefix >> np.arange(depth - 1, -1, -1)[:, None]) & 1).astype(np.uint8)


def chunk_paths(z0, n, rng, size, start):
    """The size EXTREMAL lanes of one chunk whose reader first reads step
    start, at every step: yields (log2 z, coins into the step) at steps
    0..n, coins None at step 0.  Up to the chunk's depth d = _depth(size,
    start) lane j holds level s of _prefixes at prefix j // (size >> s), on
    the coins prefix_coins(size, d); from d on the lanes are those of
    _paths(z0, n, rng, size, d), one array advanced in place."""
    d = _depth(size, start)
    bits = prefix_coins(size, d)
    for s, level in enumerate(_prefixes(z0, d)):
        if s < d:
            yield np.repeat(level, size >> s), bits[s - 1] if s else None
    for s, (a, coins) in enumerate(_paths(z0, n, rng, size, d), d):
        yield a, bits[s - 1] if s == d and d else coins
