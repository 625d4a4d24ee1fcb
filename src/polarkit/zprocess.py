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
(log2(1-z), log2 z); it is written once and called both ways.

Exact laws store log2 z only.  Their mirror child of an atom above z = 1/2
squares 1 - z = -expm1(ln2 log2 z), so the upper tail stays resolved down to
1 - z of about 2^-1074; atoms closer to 1 are stored at log2 z = -0.0.
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

DEFAULT_ENUM_CAP = 24


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
    states = [ZState.from_value(z0)]
    for b in word:
        states.append(step(states[-1], b, rule))
    return states


def iterate_values(z0: float, word: Iterable[int], rule: Rule) -> list[float]:
    """Plain binary64 trajectory; the reference iteration for cross-checks.

    Underflows on deep squaring runs; use walk() when the tail matters.
    """
    _require_open_unit(z0)
    z = float(z0)
    values = [z]
    for b in word:
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

def _vec_squared(a: np.ndarray, c: np.ndarray):
    # _squared over arrays.  Past log2 z = -2^1023 the doubling overflows to
    # -inf, which is z = 0.
    with np.errstate(over="ignore"):
        a2 = 2.0 * a
    small = np.exp2(np.minimum(a, c))  # z or 1 - z, as _squared picks
    c2 = c + np.where(a <= c, np.log1p(small) / _LN2, np.log2(2.0 - small))
    rec = a2 <= c2
    with np.errstate(divide="ignore"):  # log2(1 - 2^a2) is -inf once 2^a2 rounds to 1
        c2_rec = np.log1p(-np.exp2(np.where(rec, a2, -1.0))) / _LN2
    return a2, np.where(rec, c2_rec, c2)


def _vec_step(a: np.ndarray, c: np.ndarray, b: np.ndarray, rule: Rule):
    """One EXTREMAL or LOWER step over arrays of states; returns the new (log2 z, log2(1-z)).

    Squares once: EXTREMAL squares the pair swapped where b = 0 and swaps
    back, as step() does; LOWER squares (a, c) and holds where b = 0.
    """
    b1 = b.astype(bool)
    if rule is Rule.EXTREMAL:
        x, y = _vec_squared(np.where(b1, a, c), np.where(b1, c, a))
        return np.where(b1, x, y), np.where(b1, y, x)
    if rule is Rule.LOWER:
        x, y = _vec_squared(a, c)
        return np.where(b1, x, a), np.where(b1, y, c)
    raise ValueError(f"unsupported rule {rule}")


def _paths(z0: float, n: int, rule: Rule, rng, size: int):
    """size Monte Carlo paths from z0: yields (log2 z, log2(1-z), coins) at steps 0..n.

    Each step draws one uint8 coin column from rng (coins is None at step 0)
    and makes fresh arrays, so a yielded array can be kept without a copy.
    """
    a = np.full(size, float(np.log2(z0)))
    c = np.full(size, float(np.log1p(-z0)) / _LN2)
    yield a, c, None
    for _ in range(n):
        coins = rng.integers(0, 2, size=size, dtype=np.uint8)
        a, c = _vec_step(a, c, coins, rule)
        yield a, c, coins


_CHUNK_ROWS = 1 << 15


def _run_chunks(
    run_chunk, trials: int, seed: int, threads: int = 1, rows: int = _CHUNK_ROWS
) -> list:
    """run_chunk(rng, size) over chunks of `rows` trials (the last one shorter);
    results in chunk order.  Chunk i's generator is seeded by SeedSequence(seed,
    spawn_key=(i,)), the i-th child of SeedSequence(seed).spawn, so the results
    are identical for any thread count; min(threads, chunks, CPU count) workers
    each run every workers-th chunk.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    chunks = -(-trials // rows)
    workers = min(threads, chunks, os.cpu_count() or 1)

    def stripe(w):
        return [run_chunk(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))),
                          min(rows, trials - i * rows)) for i in range(w, chunks, workers)]

    if workers == 1:
        return stripe(0)
    from concurrent import futures

    with futures.ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(stripe, range(workers)))
    return [parts[i % workers][i // workers] for i in range(chunks)]


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
    """

    log2_values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        lv = np.ascontiguousarray(np.asarray(self.log2_values, dtype=np.float64))
        pr = np.ascontiguousarray(np.asarray(self.probs, dtype=np.float64))
        if lv.shape != pr.shape or lv.ndim != 1 or lv.size == 0:
            raise ValueError("log2_values and probs must be matching 1-D arrays")
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
        return float(self.probs[:i].sum())

    def sf_at_log2(self, t: float) -> float:
        """P(Z_n >= 2^t), boundary atoms included."""
        _require_not_nan(t, "t")
        i = int(np.searchsorted(self.log2_values, t, side="left"))
        return float(self.probs[i:].sum())

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
    squared = 2.0 * vals
    if rule is Rule.EXTREMAL:
        # vals is sorted.  Above z = 1/2 the mirror child squares
        # 1 - z = -expm1(ln2 log2 z); log2(2 - z) would lose it next to z = 1.
        k = int(np.searchsorted(vals, -1.0, side="right"))
        low, high = vals[:k], vals[k:]
        other = np.concatenate((
            low + np.log2(2.0 - np.exp2(low)),
            np.log1p(-np.expm1(high * _LN2) ** 2) / _LN2,
        ))
    elif rule is Rule.LOWER:
        other = vals
    else:
        other = vals + 1.0
    return np.concatenate((other, squared))


def exact_distribution(
    z0: float, n: int, rule: Rule, cap: int = DEFAULT_ENUM_CAP
) -> ZDistribution:
    """Enumerate all 2^n branch words (each with probability 2^-n).

    Equal atoms are merged by exact bit equality; probabilities are dyadic
    rationals and sum to exactly 1 in binary64 for n <= 24.

    Raises ResourceCapError above the enumeration cap (raise it with
    --enum-cap).
    """
    return _exact_laws(z0, (n,), rule, cap)[n]


def _exact_laws(z0: float, ns, rule: Rule, cap: int) -> dict[int, ZDistribution]:
    """The exact law at every n in ns, snapshotted from one enumeration to max(ns)."""
    _require_open_unit(z0)
    want = set(ns)
    _require_steps(min(want, default=0))
    top = max(want, default=0)
    if top > cap:
        raise ResourceCapError(
            f"exact enumeration at n={top} exceeds the enumeration cap ({cap})",
            flag="--enum-cap",
        )
    log2v = np.array([float(np.log2(z0))])
    probs = np.array([1.0])
    laws = {}
    for level in range(top + 1):
        if level:
            children = _children_log2(log2v, rule)
            # Each half of children is a sorted run, so a stable sort merges them.
            order = np.argsort(children, kind="stable")
            children = children[order]
            starts = np.flatnonzero(np.r_[True, children[1:] != children[:-1]])
            log2v = children[starts]
            probs = np.add.reduceat(np.concatenate((probs, probs))[order] * 0.5, starts)
        if level in want:
            laws[level] = ZDistribution(log2v, probs)
    return laws


# ---------------------------------------------------------------------------
# Monte Carlo functionals and closed-form bounds
# ---------------------------------------------------------------------------

def q_halfmoment(z0: float, n: int, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of E[sqrt(Z_n (1 - Z_n))] for the extremal rule.

    Returns (estimate, standard error); deterministic for a given seed.  The
    paths come from _paths in the fixed 2^15-trial chunks of _run_chunks,
    one coin column per step, as every Monte Carlo routine draws them.
    """
    _require_open_unit(z0)
    _require_steps(n)

    def run_chunk(rng, size):
        for a, c, _ in _paths(z0, n, Rule.EXTREMAL, rng, size):
            pass
        return np.exp2(0.5 * (a + c))

    q = np.concatenate(_run_chunks(run_chunk, trials, seed))
    est = float(q.mean())
    err = float(q.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return est, err


def hajek_bound(n: int) -> float:
    """The supermartingale bound E[sqrt(Q_n)] <= (1/2) (3/4)^(n/2)."""
    return 0.5 * 0.75 ** (0.5 * n)


def f_rho(rho: float, n: int) -> float:
    """The smaller root r of r(1-r) = rho^n, or 1 when no root exists.

    Thresholding Z_n at this value is equivalent to thresholding
    Q_n = Z_n (1 - Z_n) at rho^n on the lower branch.
    """
    _require_open_unit(rho, "rho")
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
