"""Squaring/doubling stochastic processes on (0,1), driven by fair coin flips.

Three update rules share the squaring branch z -> z^2 on B = 1 and differ on
B = 0:

* EXTREMAL: z -> 2z - z^2, the mirror image of squaring (1-z is squared).
  This is a bounded martingale and exactly the erasure-probability process
  of a binary erasure channel under repeated polarization.
* LOWER: z -> z (hold).  Dominated by every in-class process with the same
  start, which turns tail questions into exact binomial sums.
* DOUBLING: z -> 2z with no clamp; an upper bound used only through log2 z,
  so values above 1 are kept.

A scalar walk (step, walk) carries the pair (log2 z, log2(1-z)).  The
squaring step doubles log2 z, which is exact, and recovers log2(1-z) from
the smaller side with a log1p evaluation, so trajectories stay accurate next
to both endpoints long after z itself would underflow binary64.  Since
1 - (2z - z^2) = (1 - z)^2, the mirror step is the squaring step applied to
the swapped pair (log2(1-z), log2 z); it is written once and called both
ways.

Exact laws and Monte Carlo paths carry log2 z alone and share one child
map: B = 1 doubles it, and the EXTREMAL B = 0 child is x + log2(2 - 2^x) up
to x = -1 (_mirror_low, x + 1 bit for bit below -53) and squares
1 - z = -expm1(ln2 x) above it (_mirror_high), so the upper tail stays
resolved down to 1 - z of about 2^-1074; values closer to 1 are stored at
log2 z = -0.0, a fixed point of the map.  The child lies in [2x, x + 1].

Exact laws store each atom with the number of branch words that reach it;
the probability is that count times 2^-n (_levels, which exact_distribution
reads).  A level's children come in two sorted halves, which _merge merges.
The curves keep only counts at the thresholds they will ask, from one loop
(_exact_tail_counts).  Each level makes its children, drops those that
_margins puts below every threshold still ahead, or above all of them, into
a tally of the words on the asked side, counts its grid thresholds over the
rest and the tally, and keeps the rest, except at the top level.  An
EXTREMAL grid whose 2^top branch words fit the atom budget keeps the words
themselves, unsorted and unmerged (word mode): few of them coincide.  Other
EXTREMAL grids, whose deep levels repeat each atom in several words (9.7
million live words on 2.4 million atoms at level 26 of the converse grid
8, 12, ..., 28 at beta 0.55 and 0.6), and every LOWER grid, whose law has
n + 1 atoms, merge the kept children (merged mode).

Monte Carlo EXTREMAL paths advance in place through _step, a chunk of 2^15
at a time.  The map works lane by lane, so a path's state after s steps
depends only on its first s coins, and while a chunk holds more paths than
there are coin prefixes, every Monte Carlo reader (the curves,
q_halfmoment, bootstrap_diagnostic) steps each prefix once, up to the step
it first reads, and each path then reads its state from its prefix
(_prefixes).  The curves' counts step a path only while they need to: once
its log2 z is above the bound past which the exact curves lump a child at
its level, it stays above every later threshold, and once it is below
-53 - (steps left), it only doubles or adds 1.  A LOWER path's log2 z is
doubled or held from the first step.  Every path reads its coins from raw generator words
(_coin_rows), bit for bit the columns rng.integers(0, 2, size,
dtype=np.uint8) would draw.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import ResourceCapError

_LN2 = math.log(2.0)

DEFAULT_ENUM_CAP = 2**24  # children one exact-law level may allocate


class Rule(enum.Enum):
    EXTREMAL = "extremal"
    LOWER = "lower"
    DOUBLING = "doubling"


def _require_open_unit(x: float, name: str = "z0") -> None:
    if not 0.0 < x < 1.0:
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {x}")


def _require_steps(n: int) -> None:
    if n < 0:
        raise ValueError(f"step count must be nonnegative, got {n}")


def _require_rule(rule) -> None:
    if not isinstance(rule, Rule):
        raise ValueError(f"rule must be one of Rule.EXTREMAL, Rule.LOWER, Rule.DOUBLING, got {rule!r}")


def _require_coin(b) -> None:
    if b not in (0, 1):
        raise ValueError(f"coin must be 0 or 1, got {b!r}")


def _require_not_nan(x: float, name: str) -> None:
    if math.isnan(x):
        raise ValueError(f"{name} must be a number, got {x}")


def _require_cap(cap) -> None:
    if not cap >= 1:
        raise ValueError(f"enum cap must be at least 1, got {cap}")


# ---------------------------------------------------------------------------
# log-domain scalar primitives
# ---------------------------------------------------------------------------

# Scalar steps call numpy's exp2, log1p and log2, not libm's (pow(2, x) and
# exp2(x) can differ by an ulp): the pinned polarize-path bytes rest on them.

def _log2_1m_pow2(x: float) -> float:
    # log2(1 - 2^x) for x < 0; -inf when 2^x rounds up to 1
    t = float(np.exp2(x))
    if t >= 1.0:
        return -math.inf
    return float(np.log1p(-t)) / _LN2


def _squared(a: float, c: float) -> tuple[float, float]:
    # z -> z^2: doubling log2 z is the exact composition and is always kept;
    # log2(1 + z) comes from whichever of z = 2^a and 1 - z = 2^c is the small
    # side, and log2(1-z) is recovered from a2 whenever z^2 lands on it.
    # a2 <= c implies a2 <= c2, the branch taken anyway: c2 is c plus
    # log1p(2^a)/ln2 >= 0 (a <= c) or log2(2 - 2^c) >= 0 (a > c, c <= 0; for
    # c > 0, a > c > 0 gives a2 > c).  NaNs fall through to the full formula.
    a2 = 2.0 * a
    if a2 <= c:
        return a2, _log2_1m_pow2(a2)
    small = float(np.exp2(min(a, c)))
    c2 = c + (float(np.log1p(small)) / _LN2 if a <= c else float(np.log2(2.0 - small)))
    return a2, _log2_1m_pow2(a2) if a2 <= c2 else c2


@dataclass(frozen=True)
class ZState:
    """A process value z in (0, 1) carried as (log2 z, log2(1-z)).

    For the DOUBLING rule z may exceed 1; then only log_z is meaningful and
    log_1mz is NaN.
    """

    log_z: float
    log_1mz: float

    @classmethod
    def from_value(cls, z: float) -> "ZState":
        _require_open_unit(z, "z")
        return cls(float(np.log2(z)), float(np.log1p(-z)) / _LN2)

    @property
    def value(self) -> float:
        try:
            return 2.0 ** self.log_z
        except OverflowError:
            return math.inf


def step(state: ZState, b: int, rule: Rule) -> ZState:
    """Advance one polarization step: b = 1 squares, b = 0 follows the rule."""
    _require_rule(rule)
    _require_coin(b)
    a, c = state.log_z, state.log_1mz
    if rule is Rule.DOUBLING:
        a = 2.0 * a if b else a + 1.0
        return ZState(a, _log2_1m_pow2(a) if a < 0.0 else math.nan)
    if b:
        return ZState(*_squared(a, c))
    if rule is Rule.EXTREMAL:
        c2, a2 = _squared(c, a)  # 2z - z^2 = 1 - (1-z)^2: square 1 - z
        return ZState(a2, c2)
    return state  # Rule.LOWER holds on b = 0


# ---------------------------------------------------------------------------
# branch words and trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchWord:
    """A sequence of coin outcomes B1..Bn selecting the step taken at each level."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("branch word bits must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    @classmethod
    def from_index(cls, index: int, n: int) -> "BranchWord":
        """Read the n-bit binary expansion of index, most significant bit first."""
        if not 0 <= index < (1 << n):
            raise ValueError(f"index {index} out of range for {n} bits")
        return cls(tuple((index >> (n - 1 - j)) & 1 for j in range(n)))

    def to_index(self) -> int:
        out = 0
        for b in self.bits:
            out = (out << 1) | b
        return out

    @classmethod
    def random(cls, n: int, seed: int) -> "BranchWord":
        rng = np.random.default_rng(seed)
        return cls(tuple(rng.integers(0, 2, size=n).tolist()))


def walk(z0: float, word: Iterable[int], rule: Rule) -> list[ZState]:
    """Log-domain trajectory of the process along a fixed branch word."""
    _require_open_unit(z0)
    _require_rule(rule)
    states = [ZState.from_value(z0)]
    for b in word:
        states.append(step(states[-1], b, rule))
    return states


def iterate_values(z0: float, word: Iterable[int], rule: Rule) -> list[float]:
    """Plain binary64 trajectory; the reference iteration for cross-checks.

    Underflows on deep squaring runs; use walk() when the tail matters.
    """
    _require_open_unit(z0)
    _require_rule(rule)
    z = float(z0)
    values = [z]
    for b in word:
        _require_coin(b)
        if b:
            z = z * z
        elif rule is Rule.EXTREMAL:
            z = 2.0 * z - z * z
        elif rule is Rule.DOUBLING:
            z = 2.0 * z
        values.append(z)
    return values


def sample_path(z0: float, n: int, rule: Rule, seed: int) -> list[ZState]:
    """A random trajectory of n steps; deterministic for a given seed."""
    _require_steps(n)
    return walk(z0, BranchWord.random(n, seed), rule)


# ---------------------------------------------------------------------------
# the log2 z child map of exact laws and Monte Carlo lanes
# ---------------------------------------------------------------------------

def _mirror_low(x, out):
    """The EXTREMAL B = 0 child of log2 z = x <= -1 into out, not x:
    x + log2(2 - 2^x).  exp2 sees max(x, -60): below -53, 2 - 2^x rounds to
    2, so the child is x + 1 bit for bit, and exp2 never takes its slow path
    for results below 2^-1022."""
    np.exp2(np.maximum(x, -60.0, out=out), out=out)
    np.log2(np.subtract(2.0, out, out=out), out=out)
    return np.add(out, x, out=out)


def _mirror_high(x, out):
    """The EXTREMAL B = 0 child of log2 z = x > -1 into out, which may be x:
    it squares 1 - z = -expm1(ln2 x), which log2(2 - z) would lose next to
    z = 1, and stores log2 z = -0.0 once 1 - z is below about 2^-1074."""
    np.expm1(np.multiply(x, _LN2, out=out), out=out)
    np.negative(np.square(out, out=out), out=out)
    return np.divide(np.log1p(out, out=out), _LN2, out=out)


def _mirror(x, out):
    """The EXTREMAL B = 0 children of the unsorted lanes x into out, not x:
    _mirror_low on every lane, then _mirror_high on the lanes above -1, the
    map of _children_log2 bit for bit."""
    _mirror_low(x, out)
    high = np.flatnonzero(x > -1.0)
    out[high] = _mirror_high(x[high], np.empty(high.size))
    return out


def _step(a: np.ndarray, coins: np.ndarray) -> np.ndarray:
    """One EXTREMAL step of the lanes a = log2 z on coins, in place; returns a.

    B = 1 doubles a (past -2^1023 to -inf, which is z = 0).  B = 0 takes the
    mirror child (_mirror).  Every operation works lane by lane, gathering
    the lanes it computes and scattering them back.
    """
    zero = np.flatnonzero(coins == 0)
    x = a[zero]
    with np.errstate(over="ignore"):
        a += a
    a[zero] = _mirror(x, np.empty(x.size))
    return a


_COIN_BLOCK = 16  # coin rows per raw draw; even, so no block ends inside a 64-bit word


def _coin_rows(rng, size: int, steps: int):
    """steps uint8 coin columns of size lanes: the columns that `steps` calls
    of rng.integers(0, 2, size, dtype=np.uint8) would return, read from the
    generator's raw 64-bit words.

    That bounded draw takes ceil(size/4) 32-bit words per call, the low half
    of each raw word before the high half, and turns each byte x of them,
    low byte first, into the coin (2x) >> 8, its top bit.  So each row is the
    next ceil(size/4) words' bytes, cut to size, shifted right by 7.  Rows
    are read _COIN_BLOCK at a time; a block of an even number of rows ends on
    a whole raw word, as the calls would.  Each row is a fresh array, which
    the caller may keep.

    rng must not hold a buffered half word (bit_generator.state
    "has_uint32"), which integers would spend first: ValueError.  The
    generator's end state is not the one the calls would leave (the last
    block may take a half word more, and nothing is buffered); the chunk
    generators this reads from are discarded after their chunk.
    """
    bitgen = rng.bit_generator
    if bitgen.state.get("has_uint32"):
        raise ValueError("coin rows need a generator with no buffered 32-bit half word")
    row = 4 * -(-size // 4)  # bytes a row takes
    for done in range(0, steps, _COIN_BLOCK):
        rows = min(_COIN_BLOCK, steps - done)
        # little-endian bytes, low byte first, on any host
        raw = bitgen.random_raw(-(-rows * row // 8)).astype("<u8", copy=False)
        block = raw.view(np.uint8)[:rows * row].reshape(rows, row)
        for r in range(rows):
            yield np.right_shift(block[r, :size], 7)


def _prefixes(z0: float, rows, size: int, limit: int):
    """The coin-prefix phase of size EXTREMAL lanes from z0: yields (a, node)
    at steps 0..d, d the largest with 2^d <= size/8 and d <= limit; lane j's
    log2 z is a[node[j]].  Each step takes one coin column from rows.  _step
    works lane by lane, so after s steps a lane's log2 z is a function of z0
    and its first s coins alone: that of node i, i the prefix read as a
    binary number, first coin most significant.  The child of node i on coin
    b is node 2i + b, so step s repeats each node twice and steps the 2^s
    nodes on the coins 0, 1, 0, 1, ..., and each lane's node becomes
    2 node + coin, in place.  At depth s, a is the log2 spectrum in index
    order: node i is synthesized channel i.
    """
    a = np.array([float(np.log2(z0))])
    node = np.zeros(size, np.intp)
    depth = min(limit, max(0, (size // 8).bit_length() - 1))
    yield a, node
    for _ in range(depth):
        node += node
        node += next(rows)
        a = _step(np.repeat(a, 2), np.arange(2 * a.size) & 1)
        yield a, node


def _paths(z0: float, n: int, rng, size: int, start: int):
    """size EXTREMAL Monte Carlo paths from z0: yields (log2 z, coins) at
    steps start..n, coins None at step start.  Each step takes one coin
    column from _coin_rows; the first min(start, d) advance coin prefixes
    (_prefixes), then each lane takes its prefix's log2 z and the lanes
    advance in place through _step: every step yields the same array, so a
    caller that keeps a state past its step keeps a copy.  Callers pass the
    first step they read: q_halfmoment n, bootstrap_diagnostic m, the tests'
    oracles 0.
    """
    rows = _coin_rows(rng, size, n)
    *_, (depth, (a, node)) = enumerate(_prefixes(z0, rows, size, start))
    a = a[node]
    for _ in range(depth, start):
        _step(a, next(rows))
    yield a, None
    for coins in rows:
        yield _step(a, coins), coins


def _margins(cuts, level: int, first: int) -> tuple[float, float]:
    """(min(t - k - 1), max(t / 2^k)) over the thresholds t that cuts asks at
    grid n >= first, k = n - level.  A log2 z at level below the first ends
    below every such t, as a step raises it by at most 1; one above the
    second ends above every such t, as a step at least doubles its magnitude
    (the B = 1 child of x is 2x and the B = 0 child lies in [2x, x + 1]).
    The second is ldexp(t, -k), t / 2^k rounded once to the nearest double
    (or -0.0), in the subnormal range too: it cannot overflow, and any double
    above it is above t / 2^k.  Halving a rounded value would round twice.  The
    exact curves lump a level's children by _margins(cuts, level, level); a
    Monte Carlo lane at step s, whose grid s is already counted, retires by
    _margins(cuts, s, s + 1)."""
    ahead = [(n - level, t) for n in cuts if n >= first for t in cuts[n]]
    return min(t - k - 1 for k, t in ahead), max(math.ldexp(t, -k) for k, t in ahead)


def _tail_counts(z0: float, cuts, upper: bool, rule: Rule, rng, size: int) -> dict:
    """{(n, t): count} over size paths of the EXTREMAL or LOWER process from
    z0: the paths with log2 Z_n at or below t, or at or above it when upper,
    for every grid n in cuts and threshold t <= -1 in cuts[n].

    Each step takes one coin column from _coin_rows, as _paths does, so the
    EXTREMAL counts are those of _paths(z0, max(cuts), rng, size, 0).  Steps
    1..d advance coin prefixes (_prefixes, up to max(cuts); none under
    LOWER), and a grid n <= d counts np.bincount(node) over the nodes on the
    threshold's side.  At step d each lane takes its log2 z from its node.

    In the lane loop only the live lanes run through _step: they sit at the
    front of the state array.  A low lane is mapped a -> 2a on B = 1 and, on
    B = 0, a -> a + 1 (EXTREMAL) or a (LOWER).  LOWER lanes are low from
    step 0: the map gives its log2 Z_n = 2^(L_n) log2 z0 exactly, L_n the
    ones among the first n coins (-inf once past -2^1024).  After step
    s >= d, with k steps left, a live EXTREMAL lane retires high, counted on
    the upper side of every later threshold and the lower side of none, when
    a > hi of _margins(cuts, s, s + 1), the bound past which the exact curves
    lump a child at its own level; else it retires low when a < -53 - k.

    High: a > t / 2^j for every later threshold t, j steps ahead, and the
    child of a lies in [2a, a + 1] on either coin, so a_n >= 2^j a > t.
    Low: below -53 the B = 0 child is a + 1 bit for bit (_mirror_low) and
    the B = 1 child 2a < a, so a lane below -53 - k stays below -53 for its
    last k steps, and the low map is _step's there.
    """
    on_side = np.greater_equal if upper else np.less_equal
    top = max(cuts)
    rows = _coin_rows(rng, size, top)
    counts = {}
    for depth, (a, node) in enumerate(_prefixes(z0, rows, size, 0 if rule is Rule.LOWER else top)):
        if depth in cuts:
            paths = np.bincount(node, minlength=a.size)
            for t in cuts[depth]:
                counts[depth, t] = int(paths[on_side(a, t)].sum())
    a = a[node]
    lane = np.arange(size)  # the coin column entry of each live lane
    live = 0 if rule is Rule.LOWER else size
    low, low_lane, lows, highs = a.copy(), lane.copy(), size - live, 0
    for s in range(depth, top):
        hi = _margins(cuts, s, s + 1)[1]
        al = a[:live]
        up, down = al > hi, al < min(-53.0 - (top - s), hi)
        ups, downs = int(np.count_nonzero(up)), int(np.count_nonzero(down))
        if ups or downs:
            keep = ~(up | down)
            low[lows:lows + downs] = al[down]
            low_lane[lows:lows + downs] = lane[:live][down]
            lows, highs, was, live = lows + downs, highs + ups, live, live - ups - downs
            a[:live], lane[:live] = al[keep], lane[:was][keep]
        coins = next(rows)
        if live:
            _step(a[:live], coins[lane[:live]])
        v = low[:lows]
        gain = np.add(coins[low_lane[:lows]], 1.0)  # 2 on B = 1, 1 on B = 0
        with np.errstate(over="ignore"):  # past -2^1024, a is -inf
            v *= gain
        if rule is Rule.EXTREMAL:
            v += 2.0 - gain
        for t in cuts.get(s + 1, ()):
            counts[s + 1, t] = int(np.count_nonzero(on_side(a[:live], t))
                                   + np.count_nonzero(on_side(low[:lows], t))) + (highs if upper else 0)
    return counts


_CHUNK_ROWS = 1 << 15


def _run_chunks(
    run_chunk, trials: int, seed: int, threads: int = 1, rows: int = _CHUNK_ROWS
) -> list:
    """run_chunk(rng, size) over chunks of `rows` trials (the last one shorter);
    results in chunk order.  Chunk i's generator is seeded by SeedSequence(seed,
    spawn_key=(i,)), the i-th child of SeedSequence(seed).spawn, so the results
    are identical for any thread count; min(threads, chunks, CPU count) workers
    take the chunks in turn, and map returns them in chunk order.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    chunks = -(-trials // rows)
    workers = min(threads, chunks, os.cpu_count() or 1)

    def chunk(i):
        return run_chunk(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))),
                         min(rows, trials - i * rows))

    if workers == 1:
        return list(map(chunk, range(chunks)))
    from concurrent import futures

    with futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(chunk, range(chunks)))


# ---------------------------------------------------------------------------
# exact finite distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZDistribution:
    """A finite law of log2 z, as exact_distribution returns it: distinct
    atoms log2_values in increasing order, with probabilities probs.

    Storing log2 z keeps the deep lower tail resolvable; the values property
    and the CSV value column convert back to plain floats (0 below 2^-1074;
    atoms with 1 - z < 2^-53 read 1.0), so the CSV also carries log2 z.
    Exact atoms within 2^-1074 of 1 are stored at log2 z = -0.0.  Atoms merge
    only on exact equality of log2 z: epsilon merging would corrupt tails.
    The tail queries clamp their sums to at most 1: an exact law past 53
    steps carries rounded path counts (see exact_distribution), and its
    probabilities can sum a few ulps above 1.
    """

    log2_values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        lv = np.ascontiguousarray(np.asarray(self.log2_values, dtype=np.float64))
        pr = np.ascontiguousarray(np.asarray(self.probs, dtype=np.float64))
        if lv.shape != pr.shape or lv.ndim != 1 or lv.size == 0:
            raise ValueError("log2_values and probs must be matching 1-D arrays")
        # The tail queries bisect log2_values.  Pairwise comparison makes no
        # float temporary the size of the law, and any NaN fails it (or is lv[0]).
        if math.isnan(lv[0]) or not (lv[1:] > lv[:-1]).all():
            raise ValueError("log2_values must be strictly increasing, with no NaN")
        lv.setflags(write=False)
        pr.setflags(write=False)
        object.__setattr__(self, "log2_values", lv)
        object.__setattr__(self, "probs", pr)

    @property
    def size(self) -> int:
        return self.log2_values.size

    @property
    def values(self) -> np.ndarray:
        return np.exp2(self.log2_values)

    def cdf_at_log2(self, t: float) -> float:
        """P(Z_n <= 2^t); the closed event, boundary atoms count."""
        _require_not_nan(t, "t")
        i = int(np.searchsorted(self.log2_values, t, side="right"))
        return min(1.0, float(self.probs[:i].sum()))

    def sf_at_log2(self, t: float) -> float:
        """P(Z_n >= 2^t), boundary atoms included."""
        _require_not_nan(t, "t")
        i = int(np.searchsorted(self.log2_values, t, side="left"))
        return min(1.0, float(self.probs[i:].sum()))

    def cdf_at(self, threshold: float) -> float:
        """P(Z_n <= threshold)."""
        _require_not_nan(threshold, "threshold")
        if threshold < 0.0:
            return 0.0
        return self.cdf_at_log2(math.log2(threshold) if threshold else -math.inf)

    def mean(self) -> float:
        return float(np.sum(self.probs * np.exp2(self.log2_values)))

    def interior_mass(self, delta: float) -> float:
        """P(delta < Z_n < 1 - delta), the mass not yet polarized."""
        _require_open_unit(delta, "delta")
        lo = int(np.searchsorted(self.log2_values, math.log2(delta), side="right"))
        hi = int(np.searchsorted(self.log2_values, math.log1p(-delta) / _LN2, side="left"))
        return float(self.probs[lo:hi].sum())


def _children_log2(vals: np.ndarray, rule: Rule) -> np.ndarray:
    """The children of the sorted atoms vals: the B = 0 children, then the
    squared ones, each half sorted like vals."""
    m = vals.size
    out = np.empty(2 * m)
    if rule is Rule.EXTREMAL:
        # Below log2 z = -53 the mirror child is x + 1 (_mirror_low), taken
        # here without the exp2 and log2 passes.
        k = int(np.searchsorted(vals, -53.0, side="left"))
        h = int(np.searchsorted(vals, -1.0, side="right"))
        np.add(vals[:k], 1.0, out=out[:k])
        _mirror_low(vals[k:h], out[k:h])
        _mirror_high(vals[h:], out[h:m])
    elif rule is Rule.LOWER:
        out[:m] = vals
    else:
        np.add(vals, 1.0, out=out[:m])
    with np.errstate(over="ignore"):  # past -2^1024, -inf: z = 0
        np.multiply(vals, 2.0, out=out[m:])
    return out


def exact_distribution(
    z0: float, n: int, rule: Rule, cap: int = DEFAULT_ENUM_CAP
) -> ZDistribution:
    """Enumerate all 2^n branch words (each with probability 2^-n).

    Equal atoms are merged by exact bit equality.  Each atom carries the
    number of branch words that reach it, and its probability is that count
    times 2^-n: exact while the counts stay below 2^53, so the probabilities
    sum to exactly 1 in binary64.  Past 2^53 (n > 53) each level's merge
    rounds the counts it adds, so a count carries a relative error of about
    n 2^-52, and the probabilities can sum a few ulps above 1.

    Raises ValueError for a cap below 1 and for n > 1023, where the counts
    would overflow a double, and ResourceCapError before a level would
    allocate more than cap children (raise it with --enum-cap).
    """
    levels = _levels(z0, n, rule, cap)
    for _ in range(n):
        next(levels)
    atoms, counts = next(levels)
    return ZDistribution(atoms, counts * 2.0 ** -n)


def _require_law(z0: float, top: int, rule: Rule, cap: int) -> None:
    _require_open_unit(z0)
    _require_rule(rule)
    _require_steps(top)
    _require_cap(cap)
    if top > 1023:
        raise ValueError(f"exact laws stop at n = 1023, past which path counts overflow a "
                         f"double; got n={top}; curves past it run with --mode mc")


def _require_budget(level: int, children: int, cap: int) -> None:
    if children > cap:
        raise ResourceCapError(f"exact law level {level} needs {children} children, "
                               f"over the atom budget ({cap})", flag="--enum-cap")


def _merge(law: list) -> tuple[np.ndarray, np.ndarray]:
    """(atoms, counts) of law = [children, words]: the distinct children, in
    order, and the branch words that reach each.  children holds two sorted
    runs, which one stable sort merges; words[j % words.size] counts the
    words behind children[j].  Emptying law frees each array once used."""
    children, words = law
    law.clear()
    order = np.argsort(children, kind="stable")
    children = children[order]
    words = np.take(words, order, mode="wrap")
    del order
    new = np.ones(children.size, bool)
    np.not_equal(children[1:], children[:-1], out=new[1:])
    atoms = children[new]
    del children
    index = new.astype(np.intp)  # np.cumsum(new) casts the mask in a buffered loop
    np.cumsum(index, out=index)
    return atoms, np.bincount(np.subtract(index, 1, out=index), weights=words)


def _levels(z0: float, top: int, rule: Rule, cap: int):
    """The exact law at levels 0..top from one enumeration: yields (atoms,
    counts), counts[j] the number of branch words that reach atoms[j].  Raises
    ValueError at once for a cap below 1 or a top past 1023, and
    ResourceCapError (flag --enum-cap) before a level's children pass cap."""
    _require_law(z0, top, rule, cap)
    atoms = np.array([float(np.log2(z0))])
    counts = np.array([1.0])  # branch words per atom, exact below 2^53
    for level in range(1, top + 1):
        yield atoms, counts
        _require_budget(level, 2 * atoms.size, cap)
        law = [_children_log2(atoms, rule), counts]
        del atoms, counts  # the level before, freed here unless the caller keeps it
        atoms, counts = _merge(law)
    yield atoms, counts


_WORD_BLOCK = 1 << 15  # words stepped at a time: their children fit a 512 KB cache


def _word_children(x, out):
    """The children [mirror(x), 2x] of the unsorted words x in out[:2 x.size].
    Below -53 the mirror child is x + 1 bit for bit (_mirror_low), taken
    without the exp2 and log2 passes."""
    m = x.size
    np.add(x, 1.0, out=out[:m])
    near = np.flatnonzero(x >= -53.0)
    out[near] = _mirror(x[near], np.empty(near.size))
    with np.errstate(over="ignore"):  # past -2^1024, -inf: z = 0
        np.multiply(x, 2.0, out=out[m:2 * m])
    return out[:2 * m]


def _inside(c, w, lo, hi, upper: bool):
    """(c', w', lumped): the children c' of c in [lo, hi], their words w', and
    the words above hi if upper, else below lo; c is a sorted run, or lanes (w None)."""
    if w is None:
        low, high = c < lo, c > hi
        return c[~(low | high)], None, int(np.count_nonzero(high if upper else low))
    i, j = int(np.searchsorted(c, lo, side="left")), int(np.searchsorted(c, hi, side="right"))
    return c[i:j], w[i:j], float(w[j:].sum() if upper else w[:i].sum())


def _on_side(c, w, t: float, upper: bool):
    """The words behind the children c at or above t if upper, else at or below."""
    if w is None:
        return int(np.count_nonzero(c >= t if upper else c <= t))
    i = int(np.searchsorted(c, t, side="left" if upper else "right"))
    return float(w[i:].sum() if upper else w[:i].sum())


def _exact_tail_counts(z0: float, cuts, upper: bool, rule: Rule, cap: int) -> dict:
    """{(n, t): count} of the 2^n branch words from z0 with log2 Z_n at or
    below t, or at or above it when upper, for each grid n and threshold t
    in cuts, from one loop over the levels, as the module docstring says.

    Word mode keeps one float lane per word, _WORD_BLOCK at a time: a level
    holds at most 2^level <= cap children, so it is never refused, and the
    counts are exact ints.  Merged mode keeps sorted atoms with the words on
    each, as deep EXTREMAL levels repeat each atom in several words; their
    children come in two sorted halves that share those words, so a margin
    or a threshold cuts a half at a bisection.  The counts are the full
    laws', exact below 2^53 (n <= 53); past that the merged ones round.
    """
    top = max(cuts)
    _require_law(z0, top, rule, cap)
    a = np.array([float(np.log2(z0))])  # the level's word lanes, or its atoms
    w = None if rule is Rule.EXTREMAL and 2**top <= cap else np.array([1.0])  # words per atom
    lumped = 0  # words lumped on the asked side
    tallies = {(0, t): _on_side(a, w, t, upper) for t in cuts.get(0, ())}
    buf = np.empty(2 * _WORD_BLOCK)
    for level in range(1, top + 1):
        _require_budget(level, 2 * a.size, cap)
        lo, hi = _margins(cuts, level, level)
        lumped += lumped
        found = dict.fromkeys(cuts.get(level, ()), 0)
        # The kept arrays have twice the level's size; their pages past k stay untouched.
        size = 2 * a.size if level < top else 0
        kept, kept_w, k = np.empty(size), None if w is None else np.empty(size), 0
        if w is None:
            blocks = ((_word_children(a[i:i + _WORD_BLOCK], buf), None)
                      for i in range(0, a.size, _WORD_BLOCK))
        else:  # the level before is freed once its children are made
            blocks, a = ((half, w) for half in np.split(_children_log2(a, rule), 2)), None
        for c, cw in blocks:
            if level < top:
                c, cw, dropped = _inside(c, cw, lo, hi, upper)
                lumped += dropped
                kept[k:k + c.size] = c
                if cw is not None:
                    kept_w[k:k + c.size] = cw
                k += c.size
            for t in found:
                found[t] += _on_side(c, cw, t, upper)
        tallies.update(((level, t), found[t] + lumped) for t in found)
        if w is None:
            a = kept[:k]
        elif level < top:
            law, kept, kept_w = [kept[:k], kept_w[:k]], None, None
            c = cw = w = None  # the level's children and the words on its parents
            a, w = _merge(law)
    return tallies


# ---------------------------------------------------------------------------
# Monte Carlo functionals and closed-form bounds
# ---------------------------------------------------------------------------

def q_halfmoment(z0: float, n: int, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of E[sqrt(Z_n (1 - Z_n))] for the extremal rule.

    Returns (estimate, standard error); deterministic for a given seed.  The
    paths come from _paths, read at step n only, in the fixed 2^15-trial
    chunks of _run_chunks; log2(1 - Z_n) is recovered from log2 Z_n, and
    each chunk reduces to its moments as it runs.
    """
    _require_open_unit(z0)
    _require_steps(n)

    def run_chunk(rng, size):
        a, _ = next(_paths(z0, n, rng, size, n))
        with np.errstate(divide="ignore"):  # log2(1 - z) is -inf at log2 z = -0.0
            c = np.log2(-np.expm1(np.maximum(a, -64.0) * _LN2))
        q = np.exp2(0.5 * (a + c))
        return size, float(q.mean()), float(q.var()) * size

    # (count, mean, squared deviations) merged in chunk order: Chan, Golub & LeVeque.
    count = est = m2 = 0.0
    for size, mean, sq in _run_chunks(run_chunk, trials, seed):
        delta, count = mean - est, count + size
        est += delta * (size / count)
        m2 += sq + delta * delta * (count - size) * (size / count)
    err = math.sqrt(m2 / (trials - 1)) / math.sqrt(trials) if trials > 1 else 0.0
    return est, err


def hajek_bound(n: int) -> float:
    """The supermartingale bound E[sqrt(Q_n)] <= (1/2) (3/4)^(n/2)."""
    _require_steps(n)
    return 0.5 * 0.75 ** (0.5 * n)


def f_rho(rho: float, n: int) -> float:
    """The smaller root r of r(1-r) = rho^n, or 1 when no root exists.

    Thresholding Z_n at this value is equivalent to thresholding
    Q_n = Z_n (1 - Z_n) at rho^n on the lower branch.
    """
    _require_open_unit(rho, "rho")
    _require_steps(n)
    x = 4.0 * rho ** n
    if 1.0 - x > 0.0:
        # (1 - sqrt(1 - x)) / 2 in a cancellation-free form
        return x / (2.0 * (1.0 + math.sqrt(1.0 - x)))
    return 1.0


def converse_binomial(z0: float, n: int, beta: float) -> float:
    """Exact P(L + log2 log2 (1/z0) <= n beta) for L ~ Binomial(n, 1/2).

    This is the probability that the hold-on-zero process stays at or above
    2^(-2^(beta n)) after n steps, hence a lower bound on the same tail for
    every in-class process started at z0.
    """
    _require_open_unit(z0)
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be finite and positive, got {beta}")
    _require_steps(n)
    shift = math.log2(-math.log2(z0))
    t = n * beta - shift
    if t < 0.0:
        return 0.0
    kmax = min(math.floor(t), n)
    total = sum(math.comb(n, k) for k in range(kmax + 1))
    return float(Fraction(total, 1 << n))


def domination_check(z0_low: float, z0_high: float, n: int, seed: int) -> bool:
    """Samplewise ordering along one shared branch word.

    Drives EXTREMAL(z0_low) and EXTREMAL(z0_high) with the same coin flips,
    and LOWER(z0_low) and DOUBLING(z0_low) through log2 z alone, by step's
    arithmetic from EXTREMAL(z0_low)'s start (2a on B = 1; a, or a + 1, on
    B = 0), and checks, at every step, LOWER <= EXTREMAL(z0_low) <=
    min(DOUBLING, 1) and EXTREMAL(z0_low) <= EXTREMAL(z0_high).
    """
    if not (0.0 < z0_low <= z0_high < 1.0):
        raise ValueError(f"need 0 < z0_low <= z0_high < 1, got ({z0_low}, {z0_high})")
    _require_steps(n)
    word = BranchWord.random(n, seed)
    ext = walk(z0_low, word, Rule.EXTREMAL)
    ext_hi = walk(z0_high, word, Rule.EXTREMAL)
    lo = up = ext[0].log_z
    for mid, hi, b in zip(ext, ext_hi, word.bits + (0,)):
        if not (lo <= mid.log_z <= min(up, 0.0)) or mid.log_z > hi.log_z:
            return False
        lo, up = (2.0 * lo, 2.0 * up) if b else (lo, up + 1.0)
    return True
