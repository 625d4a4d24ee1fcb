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

State is carried as the pair (log2 z, log2(1-z)).  The squaring step doubles
log2 z, which is exact, and recovers log2(1-z) from the smaller side with a
log1p evaluation, so trajectories stay accurate next to both endpoints long
after z itself would underflow binary64.  Since 1 - (2z - z^2) = (1 - z)^2,
the mirror step is the squaring step applied to the swapped pair
(log2(1-z), log2 z); it is written once and called both ways.  Monte Carlo
EXTREMAL paths advance in place, a chunk of 2^15 at a time, with one
workspace of scratch arrays per chunk, and stay equal to the scalar step bit
for bit.  The curves' counts step an EXTREMAL path only while they need
to: once its log2 z is above the bound the exact laws lump to -0.0 by
(_margins), it stays above every later threshold, and once it is below
-53 - (steps left), it only doubles or adds 1.  A LOWER path never reads
log2(1-z): its log2 z is doubled or held from the first step.  As the
kernel works lane by lane, a path's state after s steps depends only on
its first s coins, so while a chunk holds more paths than there are coin
prefixes, every Monte Carlo reader (the curves, q_halfmoment,
bootstrap_diagnostic) steps each prefix once, up to the step it first
reads, and each path then reads its state from its prefix (_prefixes).
Every path reads its coins from raw generator words (_coin_rows), bit for
bit the columns rng.integers(0, 2, size, dtype=np.uint8) would draw.

Exact laws store log2 z only, each atom with the number of branch words
that reach it; the probability is that count times 2^-n.  Their mirror child
of an atom above z = 1/2 squares 1 - z = -expm1(ln2 log2 z), so the upper
tail stays resolved down to 1 - z of about 2^-1074; atoms closer to 1 are
stored at log2 z = -0.0.  Below log2 z = -53, 2 - z rounds to 2 and the
mirror child is taken as log2 z + 1.  A caller that names the thresholds it
will ask (the exact curves) gets laws whose atoms are lumped, level by
level, by the same _margins: into -inf below every threshold still ahead
and into -0.0 above all of them.  The lumped laws answer the asked tails
exactly as the full laws do, at a fraction of the atoms, while the path
counts stay below 2^53.
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


# ---------------------------------------------------------------------------
# log-domain scalar primitives
# ---------------------------------------------------------------------------

# Scalar steps make the numpy calls of the vectorized kernel, so that both
# round identically (libm pow(2, x) and exp2(x) can differ by an ulp).

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
    a2 = 2.0 * a
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
        return cls(tuple(int(b) for b in rng.integers(0, 2, size=n)))


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
# vectorized log-domain kernel (arrays of paths advanced one step at a time)
# ---------------------------------------------------------------------------

# The kernel writes every result into arrays made once per chunk, and blends
# by an exact bit-select on int64 views, y ^ ((x ^ y) & m) with m = 0 or -1
# per lane: np.where on a random coin mask mispredicts its branches, and fresh
# temporaries fault their pages in at every step.
_MINUS_ONE_BITS = np.float64(-1.0).view(np.int64)


def _workspace(size: int):
    """Scratch for _vec_step on `size` lanes: four float64 arrays, two int64
    lane masks and two bool masks."""
    return ([np.empty(size) for _ in range(4)], np.empty(size, np.int64),
            np.empty(size, np.int64), np.empty(size, bool), np.empty(size, bool))


def _select(m, x, y, out):
    # out = where(m, x, y) bit for bit, m holding -1 or 0 per lane; out may be x, not y.
    o, yi = out.view(np.int64), y.view(np.int64)
    np.bitwise_xor(x.view(np.int64), yi, out=o)
    o &= m
    o ^= yi


def _swap(a, c, m, scratch):
    # (a, c) = (where(m, c, a), where(m, a, c)) bit for bit: one xor-and, two xors.
    ai, ci, t = a.view(np.int64), c.view(np.int64), scratch.view(np.int64)
    np.bitwise_xor(ai, ci, out=t)
    t &= m
    ai ^= t
    ci ^= t


def _exp2(x, out, keep, mid):
    """out = np.exp2(x) bit for bit; out may be x.

    np.exp2 takes a slow path on every result below 2^-1022, so it only sees
    arguments clamped to -1021.  Lanes below the clamp are zeroed, as exp2
    rounds every double <= -1075 (and -inf) to +0.0, and the rare lanes in
    (-1075, -1021) are computed apart.
    """
    np.greater_equal(x, -1021.0, out=keep)
    np.greater(x, -1075.0, out=mid)
    np.greater(mid, keep, out=mid)
    rare = np.flatnonzero(mid)
    low = x[rare]
    np.maximum(x, -1021.0, out=out)
    np.exp2(out, out=out)
    out *= keep
    out[rare] = np.exp2(low)
    return out


def _vec_squared(a, c, x, y, work):
    # _squared over arrays, written into (x, y); x may be a and y may be c.
    # Past log2 z = -2^1023 the doubling overflows to -inf, which is z = 0.
    (small, s1, s2, _), m, _, keep, mid = work
    np.less_equal(a, c, out=m)
    m -= 1  # all ones where a > c: 1 - z is the small side
    _exp2(np.minimum(a, c, out=small), small, keep, mid)  # z or 1 - z, as _squared picks
    np.log1p(small, out=s1)
    s1 /= _LN2
    np.log2(np.subtract(2.0, small, out=s2), out=s2)
    _select(m, s2, s1, s2)
    np.add(c, s2, out=y)
    with np.errstate(over="ignore"):
        np.multiply(a, 2.0, out=x)
    np.less_equal(x, y, out=m)
    m -= 1  # all ones where log2(1-z) is not recovered from a2
    # log2(1 - 2^a2) on the recovered lanes; the others see -1, never log1p(-1)
    arg = small.view(np.int64)
    np.bitwise_xor(x.view(np.int64), _MINUS_ONE_BITS, out=arg)
    arg &= m
    arg ^= x.view(np.int64)
    np.negative(_exp2(small, small, keep, mid), out=small)
    with np.errstate(divide="ignore"):  # -inf once 2^a2 rounds to 1
        np.log1p(small, out=small)
    small /= _LN2
    _select(m, y, small, y)


def _vec_step(a: np.ndarray, c: np.ndarray, b: np.ndarray, work=None):
    """One EXTREMAL step over arrays of states, in place: writes the new
    (log2 z, log2(1-z)) into a and c and returns them.

    Squares once, as step() does: the pair swapped where b = 0, then swapped
    back.  work is a _workspace(a.size), made here when not given.
    """
    work = work or _workspace(a.size)
    f, _, hold = work[:3]
    np.subtract(b, 1, out=hold, dtype=np.int64)  # all ones where b = 0
    _swap(a, c, hold, f[3])
    _vec_squared(a, c, a, c, work)
    _swap(a, c, hold, f[3])
    return a, c


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
    """The coin-prefix phase of size EXTREMAL lanes from z0: yields (a, c,
    node) at steps 0..d, d the largest with 2^d <= size/8 and d <= limit;
    lane j's state is (a[node[j]], c[node[j]]).  Each step takes one coin
    column from rows.  Every operation of _vec_step works lane by lane
    (_exp2 gathers its rare lanes and scatters them back in place), so after
    s steps a lane's state is a function of z0 and its first s coins alone:
    the state of node i, i the prefix read as a binary number, first coin
    most significant.  The child of node i on coin b is node 2i + b, so step
    s repeats each node twice and steps the 2^s nodes on the coins 0, 1, 0,
    1, ..., and each lane's node becomes 2 node + coin, in place.
    """
    root = ZState.from_value(z0)
    a, c = np.array([root.log_z]), np.array([root.log_1mz])
    node = np.zeros(size, np.intp)
    depth = min(limit, max(0, (size // 8).bit_length() - 1))
    yield a, c, node
    for _ in range(depth):
        node += node
        node += next(rows)
        a, c = np.repeat(a, 2), np.repeat(c, 2)
        _vec_step(a, c, np.arange(a.size) & 1)
        yield a, c, node


def _paths(z0: float, n: int, rng, size: int, start: int):
    """size EXTREMAL Monte Carlo paths from z0: yields (log2 z, log2(1-z),
    coins) at steps start..n, coins None at step start.  Each step takes one
    coin column from _coin_rows; the first min(start, d) advance coin
    prefixes (_prefixes), then each lane takes its prefix's state and the
    lanes advance in place, with one _vec_step workspace for the chunk:
    every step yields the same two state arrays, so a caller that keeps a
    state past its step keeps a copy.  Callers pass the first step they
    read: q_halfmoment n, bootstrap_diagnostic m, the tests' oracles 0.
    """
    rows = _coin_rows(rng, size, n)
    *_, (depth, (a, c, node)) = enumerate(_prefixes(z0, rows, size, start))
    a, c, work = a[node], c[node], _workspace(size)
    for _ in range(depth, start):
        _vec_step(a, c, next(rows), work)
    yield a, c, None
    for coins in rows:
        _vec_step(a, c, coins, work)
        yield a, c, coins


def _margins(cuts, level: int) -> tuple[float, float]:
    """(min(t - k - 1), max(t / 2^(k + 1))) over the thresholds t cuts asks at
    grid n >= level, k = n - level.  A log2 z below the first at level that
    rises by at most 1 a step, or above the second from level - 1 on that at
    most doubles its magnitude a step, ends on its side of every such t.  The
    second cannot overflow, and a double is above it iff above t / 2^(k + 1)."""
    ahead = [(n - level, t) for n in cuts if n >= level for t in cuts[n]]
    return min(t - k - 1 for k, t in ahead), max(math.ldexp(t, -k - 1) for k, t in ahead)


def _tail_counts(z0: float, cuts, upper: bool, rule: Rule, rng, size: int) -> dict:
    """{(n, t): count} over size paths of the EXTREMAL or LOWER process from
    z0: the paths with log2 Z_n at or below t, or at or above it when upper,
    for every grid n in cuts and threshold t <= -1 in cuts[n].

    Each step takes one coin column from _coin_rows, as _paths does, so the
    EXTREMAL counts are those of _paths(z0, max(cuts), rng, size, 0).  Steps
    1..d advance coin prefixes (_prefixes, up to max(cuts); none under
    LOWER), and a grid n <= d counts np.bincount(node) over the nodes on the
    threshold's side.  At step d each lane takes its (a, c) from its node.

    In the lane loop only the live lanes run through _vec_step: they sit at
    the front of the state arrays and step on views of one workspace.  A low
    lane keeps only a = log2 z, mapped a -> 2a on B = 1 and, on B = 0,
    a -> a + 1 (EXTREMAL) or a (LOWER).  LOWER lanes are low from step 0:
    that rule never reads log2(1 - z), and the map gives its
    log2 Z_n = 2^(L_n) log2 z0 exactly, L_n the ones among the first n coins
    (-inf once past -2^1024).  After step s >= d, with k steps left, a live
    EXTREMAL lane retires high, counted on the upper side of every later
    threshold and the lower side of none, when a > hi of
    _margins(cuts, s + 1), the bound the exact laws lump to -0.0 by; else it
    retires low when a < -53 - k and log2(1 - z) = c >= -2^-k.

    High: a > t / 2^j for every later threshold t, j steps ahead.  B = 1
    doubles a exactly, and B = 0 never takes it below 2a: _vec_step squares
    the swapped pair and adds to a the nonnegative log2(1 + z) or
    log2(2 - z), or, where (1 - z)^2 is the small side, recovers a as
    log2(2z - z^2), which passes 2 log2 z by at least 0.7 |2 log2 z| there.
    So a_n >= 2^j a > t.  Low, with r >= 1 steps to take, a < -53 - r and
    c >= -2^-r: z = exp2(a) < 2^-54, so 2 - z rounds to 2.0 and log2 gives
    exactly 1.0, the edge _children_log2 uses.  B = 1 squares with z the
    small side (a < c): a -> 2a exactly, and as 2a < c the recovery branch
    sets c to log1p(-exp2(2a)) / ln2 > -2^(2a + 1).  B = 0 squares the
    swapped pair (c, a), whose small side is still z: a -> a + 1, and as
    2c >= -1 > a + 1 the recovery branch never fires, so c -> 2c.  Either
    way a < -53 - (r - 1) and c >= -2^-(r - 1) after the step.  The bound on
    c turns no lane away in practice (z near 0 has c near 0); checking it
    lets this half rest on the kernel's arithmetic alone.
    """
    on_side = np.greater_equal if upper else np.less_equal
    top = max(cuts)
    rows = _coin_rows(rng, size, top)
    counts = {}
    for depth, (a, c, node) in enumerate(_prefixes(z0, rows, size, 0 if rule is Rule.LOWER else top)):
        if depth in cuts:
            paths = np.bincount(node, minlength=a.size)
            for t in cuts[depth]:
                counts[depth, t] = int(paths[on_side(a, t)].sum())
    a, c = a[node], c[node]
    lane = np.arange(size)  # the coin column entry of each live lane
    live = 0 if rule is Rule.LOWER else size
    low, low_lane, lows, highs = a.copy(), lane.copy(), size - live, 0
    work, b = _workspace(size), np.empty(size, np.uint8)
    f, *masks = work
    for s in range(depth, top):
        k = top - s
        hi = _margins(cuts, s + 1)[1]
        al, cl = a[:live], c[:live]
        keep = np.less_equal(al, hi, out=masks[2][:live])  # the others retire high
        down = np.flatnonzero(np.less(al, min(-53.0 - k, hi), out=masks[3][:live]))
        down = down[cl[down] >= -(2.0 ** -k)]
        ups = live - int(np.count_nonzero(keep))
        if ups or down.size:
            keep[down] = False
            low[lows:lows + down.size] = al[down]
            low_lane[lows:lows + down.size] = lane[down]
            lows, highs, was, live = lows + down.size, highs + ups, live, live - ups - down.size
            a[:live], c[:live], lane[:live] = al[keep], cl[keep], lane[:was][keep]
        coins = next(rows)
        if live:
            np.take(coins, lane[:live], out=b[:live])
            _vec_step(a[:live], c[:live], b[:live],
                      ([x[:live] for x in f], *(m[:live] for m in masks)))
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
    """A finite law of log2 z, for exact process laws (exact_distribution)
    and synthesized-channel laws (scaling.channel_form) alike: distinct atoms
    log2_values in increasing order, with probabilities probs.

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
        # Below log2 z = -53, 2 - z rounds to 2, so the mirror child is x + 1
        # bit for bit, without exp2's slow path for results below 2^-1022.
        # Above z = 1/2 it squares 1 - z = -expm1(ln2 log2 z); log2(2 - z)
        # would lose it next to z = 1.
        k = int(np.searchsorted(vals, -53.0, side="left"))
        h = int(np.searchsorted(vals, -1.0, side="right"))
        np.add(vals[:k], 1.0, out=out[:k])
        mid, o = vals[k:h], out[k:h]
        np.subtract(2.0, np.exp2(mid, out=o), out=o)
        np.log2(o, out=o)
        o += mid
        o = out[h:m]
        np.expm1(np.multiply(vals[h:], _LN2, out=o), out=o)
        np.negative(np.square(o, out=o), out=o)
        np.log1p(o, out=o)
        o /= _LN2
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

    Raises ResourceCapError before a level would allocate more than cap
    children (raise it with --enum-cap), and ValueError for n > 1023, where
    the counts would overflow a double.
    """
    return _exact_laws(z0, (n,), rule, cap)[n]


def _exact_laws(z0: float, ns, rule: Rule, cap: int, cuts=None) -> dict[int, ZDistribution]:
    """The exact law at every n in ns, snapshotted from one enumeration to max(ns).

    A level whose children (twice the atoms before it) would pass cap raises
    ResourceCapError (flag --enum-cap) before they are allocated, and any n
    past 1023 raises ValueError up front.  cuts, when given, maps each n in
    ns to the thresholds t at which the caller will ask law n's tails, and
    the laws come back lumped: a child below lo of the level's _margins
    becomes -inf, and one above hi becomes -0.0.  A step raises log2 z by at
    most 1 and at most doubles its magnitude, so a lumped atom stays on its
    side of every later threshold, and -inf and -0.0 are fixed points of
    every child map.  The lumped laws answer cdf_at_log2(t) and sf_at_log2(t)
    at the asked t exactly as the full laws do, while the path
    counts stay below 2^53.
    """
    _require_open_unit(z0)
    _require_rule(rule)
    want = set(ns)
    _require_steps(min(want, default=0))
    if max(want, default=0) > 1023:
        raise ValueError(f"exact laws stop at n = 1023, past which path counts overflow a "
                         f"double; got n={max(want)}; curves past it run with --mode mc")
    log2v = np.array([float(np.log2(z0))])
    counts = np.array([1.0])  # branch words per atom, exact below 2^53
    laws = {}
    for level in range(max(want, default=0) + 1):
        if level:
            if 2 * log2v.size > cap:
                raise ResourceCapError(f"exact law level {level} needs {2 * log2v.size} children, "
                                       f"over the atom budget ({cap})", flag="--enum-cap")
            children = _children_log2(log2v, rule)
            if cuts:
                lo, hi = _margins(cuts, level)
                for half in np.split(children, 2):
                    half[:int(np.searchsorted(half, lo, side="left"))] = -math.inf
                    half[int(np.searchsorted(half, hi, side="right")):] = -0.0
            # Each half of children is a sorted run, so a stable sort merges them.
            order = np.argsort(children, kind="stable")
            children = children[order]
            counts = np.take(counts, order, mode="wrap")  # order indexes both halves
            del order
            new = np.r_[True, children[1:] != children[:-1]]
            log2v = children[new]
            del children
            index = new.astype(np.intp)  # np.cumsum(new) casts the mask in a buffered loop
            np.cumsum(index, out=index)
            counts = np.bincount(np.subtract(index, 1, out=index), weights=counts)
        if level in want:
            laws[level] = ZDistribution(log2v, counts * 2.0 ** -level)
    return laws


# ---------------------------------------------------------------------------
# Monte Carlo functionals and closed-form bounds
# ---------------------------------------------------------------------------

def q_halfmoment(z0: float, n: int, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of E[sqrt(Z_n (1 - Z_n))] for the extremal rule.

    Returns (estimate, standard error); deterministic for a given seed.  The
    paths come from _paths, read at step n only, in the fixed 2^15-trial
    chunks of _run_chunks, and each chunk reduces to its moments as it runs.
    """
    _require_open_unit(z0)
    _require_steps(n)

    def run_chunk(rng, size):
        a, c, _ = next(_paths(z0, n, rng, size, n))
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

    Drives LOWER(z0_low), EXTREMAL(z0_low), DOUBLING(z0_low) and
    EXTREMAL(z0_high) with the same coin flips and checks, at every step,
    LOWER <= EXTREMAL(z0_low) <= min(DOUBLING, 1) and
    EXTREMAL(z0_low) <= EXTREMAL(z0_high).
    """
    if not (0.0 < z0_low <= z0_high < 1.0):
        raise ValueError(f"need 0 < z0_low <= z0_high < 1, got ({z0_low}, {z0_high})")
    _require_steps(n)
    word = BranchWord.random(n, seed)
    low = walk(z0_low, word, Rule.LOWER)
    ext = walk(z0_low, word, Rule.EXTREMAL)
    dbl = walk(z0_low, word, Rule.DOUBLING)
    ext_hi = walk(z0_high, word, Rule.EXTREMAL)
    for lo, mid, up, hi in zip(low, ext, dbl, ext_hi):
        if not (lo.log_z <= mid.log_z <= min(up.log_z, 0.0)):
            return False
        if mid.log_z > hi.log_z:
            return False
    return True
