import numpy as np
import pytest

from polarkit.bdmc import Channel


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
