"""Polar coding over the binary erasure channel.

Construction is exact for the BEC: the Bhattacharyya parameter of every
synthesized channel follows the closed recursion eps -> 2 eps - eps^2
(degraded step) / eps -> eps^2 (upgraded step).  Synthesized channel i is
identified with the branch word read off the binary expansion of i, most
significant bit first, bit 0 taking the degraded step and bit 1 the upgraded
step -- so larger indices are statistically more reliable and successive
cancellation decodes channels in plain index order.

On bits, a half-split XOR butterfly on one Python int (bit j is position j)
computes u F^(x)n in n shift-and-XOR steps.  The bit-reversal permutation
commutes with F^(x)n (Arikan 2009), so x = u G = (u F^(x)n)[rev] takes one
gather by the permutation each CodeSpec builds once.  On erasure flags
packed one trial a bit, a position-major array butterfly (a | b, a & b) runs
in place, natural order in and bit-reversed order out, and gives the
genie-aided erasure flag of every synthesized channel.

Over the erasure channel the SC decoder never guesses, so whether a block
fails depends on its erasure pattern alone: it fails exactly when the flag
of some information index is set.  The simulator draws its erasures already
packed, 64 trials to a uint64 word in position order, with an exact
Bernoulli sampler on raw generator words, and counts failures from their
flags; it draws no message and runs no encoder or value decoder.  Each
chunk of trials is one such draw from its own generator, so `threads`
splits long blocks too.  The draw takes its raw words a bounded piece at a
time and the butterfly needs no second array, so a chunk's memory is its
words, the sampler's per-word state and the gather of the K information
rows.  The single-block decoder uses no flags: a pruned SC pass decides
failure at its nodes and returns the codeword.  Its exact beliefs are
(known, value) bitsets, two Python ints per node, gathered once by the
bit-reversal permutation, so every node's even/odd split is a low/high
split; the message is the half-split butterfly of the returned int,
u = x[rev] F^(x)n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ResourceCapError
from .zprocess import _CHUNK_ROWS, _require_open_unit, _require_steps, _run_chunks

ERASED = -1  # erasure mark in received words (int8 convention)

DEFAULT_SPECTRUM_CAP = 26

_DRAW_WORDS = 1 << 18  # most erasure words in one simulate_bler chunk while N <= 2^18 (2 MB)

_DRAW_PIECE = 1 << 14  # most raw words one random_raw call returns (128 KB)

_SHORT_RUN = 8  # flag butterfly runs shorter than this many words go column by column

_DENSE_ROUNDS = 6  # sampler rounds over every word: then about one live lane a word


def bec_z_spectrum(eps: float, n: int, cap: int = DEFAULT_SPECTRUM_CAP) -> np.ndarray:
    """Exact erasure probabilities of all 2^n synthesized channels of BEC(eps).

    In-place doubling recursion, O(N) memory.  Raises ResourceCapError beyond
    the stage cap (raise it with --spectrum-cap), and ValueError for a cap
    below 0 or NaN, which would turn the guard off.
    """
    _require_open_unit(eps, "eps")
    _require_steps(n)
    if not cap >= 0:
        raise ValueError(f"spectrum cap must be at least 0, got {cap}")
    if n > cap:
        raise ResourceCapError(
            f"spectrum at n={n} stages exceeds the stage cap ({cap})",
            flag="--spectrum-cap",
        )
    v = np.empty(1 << n)
    v[0] = eps
    size = 1
    for _ in range(n):
        t = v[:size].copy()
        v[0 : 2 * size : 2] = 2.0 * t - t * t
        v[1 : 2 * size : 2] = t * t
        size *= 2
    return v


@dataclass(frozen=True)
class CodeSpec:
    """A constructed polar code: block length 2^n, info set, per-index Z values."""

    n: int
    eps: float
    info_set: np.ndarray
    z_values: np.ndarray
    frozen_value: int = 0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise ValueError(f"CodeSpec.n must be a nonnegative integer, got {self.n!r}")
        big_n = 1 << int(self.n)
        info = np.asarray(self.info_set)
        if not (info.ndim == 1 and (info.size == 0 or info.dtype.kind in "iu"
                and 0 <= info.min() <= info.max() < big_n
                and np.bincount(info.astype(np.int64, copy=False)).max() == 1)):
            raise ValueError(f"CodeSpec.info_set must hold distinct integers in [0, {big_n})")
        if np.shape(self.z_values) != (big_n,):
            raise ValueError(f"CodeSpec.z_values must have shape ({big_n},)")
        if self.frozen_value not in (0, 1):
            raise ValueError(f"CodeSpec.frozen_value must be 0 or 1, got {self.frozen_value!r}")
        info = np.ascontiguousarray(info, dtype=np.int64)
        z = np.ascontiguousarray(np.asarray(self.z_values, dtype=np.float64))
        info.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "info_set", info)
        object.__setattr__(self, "z_values", z)

    @property
    def block_length(self) -> int:
        return 1 << self.n

    @property
    def k(self) -> int:
        return int(self.info_set.size)

    @property
    def rate(self) -> float:
        return self.k / self.block_length

    @property
    def gamma(self) -> float:
        """Largest Z over the information set."""
        if self.k == 0:
            return 0.0
        return float(self.z_values[self.info_set].max())

    @property
    def union_bound(self) -> float:
        """Sum of Z over the information set; an upper bound on block error."""
        return float(self.z_values[self.info_set].sum())

    @cached_property
    def bit_reversal(self) -> np.ndarray:
        """rev, the bit-reversal permutation of 0 .. N-1, built on first use."""
        rev = _bit_reversal(self.n)
        rev.setflags(write=False)
        return rev

    @cached_property
    def info_flag_rows(self) -> np.ndarray:
        """rev(info_set), sorted: the rows of the in-place flag butterfly's
        output that hold the information indices' flags."""
        rows = np.sort(self.bit_reversal[self.info_set])
        rows.setflags(write=False)
        return rows

    @cached_property
    def info_bits(self) -> int:
        """The information set as an int, bit i set when index i carries data."""
        mask = np.zeros(self.block_length, dtype=bool)
        mask[self.info_set] = True
        return _bits_to_int(mask)


def smallest_z_indices(z_values: np.ndarray, k: int) -> np.ndarray:
    """The k indices with the smallest Z, ties broken toward the higher index:
    the moves of the synthesized channels' partial order never raise Z and
    always raise the index, so the set stays an up-set of that order."""
    order = np.argsort(z_values, kind="stable")  # ties in index order
    v = z_values[order[max(k, 1) - 1]]  # the K-th smallest Z
    p = int(np.count_nonzero(z_values < v))
    ties = np.flatnonzero(z_values == v)
    order[p:k] = ties[ties.size - (k - p):]  # the highest indices of the tie at K
    return np.sort(order[:k])


def construct(
    eps: float, n: int, rate: float, cap: int = DEFAULT_SPECTRUM_CAP
) -> CodeSpec:
    """Build the rate-floor(rate*N)/N code with the K most reliable indices.

    rate = 1 is allowed as the full-set limit (every index carries data).
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must lie inside (0, 1], got {rate}")
    z = bec_z_spectrum(eps, n, cap=cap)
    k = int(math.floor(rate * (1 << n)))
    return CodeSpec(n=n, eps=eps, info_set=smallest_z_indices(z, k), z_values=z)


# ---------------------------------------------------------------------------
# the polar butterflies, encoding and the erasure flags
# ---------------------------------------------------------------------------

def _polar_levels(flags: np.ndarray) -> None:
    """The n levels of the erasure-flag butterfly, in place on a C-contiguous
    position-major (N, ...) array.

    Level k = 0, 1, ..., n-1 pairs the rows that differ in bit k: with a the
    row whose bit k is clear and b the row whose bit k is set, (a, b) becomes
    (a | b, a & b) (minus, plus), by three in-place passes over views whose
    contiguous runs are 2^k rows long.  Trailing axes (packed trials) ride
    along.  A run shorter than _SHORT_RUN words would make numpy's inner
    loop that short, so such a level runs column by column instead, each
    column one long strided loop.  Natural order in, bit-reversed order out
    (Cooley & Tukey 1965): afterwards row rev(i) is the genie-aided SC
    erasure flag of synthesized channel i.
    """
    if not flags.flags.c_contiguous:
        raise ValueError("the flag butterfly runs in place on a C-contiguous array")
    big_n = flags.shape[0]
    step = 1
    while step < big_n:
        pairs = flags.reshape(big_n // (2 * step), 2, -1)
        run = pairs.shape[2]
        for p in (pairs,) if run >= _SHORT_RUN else (pairs[:, :, c] for c in range(run)):
            a, b = p[:, 0], p[:, 1]
            b ^= a  # a ^ b
            a |= b  # a | b
            b ^= a  # (a ^ b) ^ (a | b) = a & b
        step *= 2


def _butterfly(v: int, size: int) -> int:
    """v F^(x)n on the bits of v (bit j is position j), its own inverse: level
    s = size/2, ..., 1 XORs the high half of each 2s-block into the low half m."""
    s = size >> 1
    m = (1 << s) - 1
    while s:
        v ^= (v >> s) & m
        s >>= 1
        m ^= m << s
    return v


def encode(spec: CodeSpec, message) -> np.ndarray:
    """Encode K information bits into an N-bit codeword: x = (u F^(x)n)[rev]."""
    msg = np.asarray(message)
    if msg.shape != (spec.k,):
        raise ValueError(f"message must have length {spec.k}, got shape {msg.shape}")
    if not np.all((msg == 0) | (msg == 1)):
        raise ValueError("message bits must be 0 or 1")
    u = np.full(spec.block_length, spec.frozen_value, dtype=np.uint8)
    u[spec.info_set] = msg
    return _int_to_bits(_butterfly(_bits_to_int(u), u.size), u.size)[spec.bit_reversal]


def _failed(spec: CodeSpec, flags: np.ndarray, trials: int) -> np.ndarray:
    """Per-trial SC failure of position-major (N, W) packed erasure flags.

    flags holds unsigned words of any width, B bits each, in natural
    position order; bit j of word w (on a little-endian host) is trial
    w B + j.  Lanes past `trials` are padding and never counted.  A trial
    fails iff some information index is erased: on the BEC the SC decoder
    never guesses, so every decision before the first erased information
    index is correct and failure depends on the erasure pattern alone
    (Arikan 2009, the BEC case).  The flags run through the in-place flag
    butterfly one trial a bit, so C-contiguous flags are overwritten (any
    other layout is copied first): row rev(i) then holds channel i's flag,
    and the K rows rev(info_set) are ORed.
    """
    flags = np.ascontiguousarray(flags)
    _polar_levels(flags)
    any_info = np.bitwise_or.reduce(flags[spec.info_flag_rows], axis=0)
    lanes = np.unpackbits(any_info.view(np.uint8), count=trials, bitorder="little")
    return lanes.view(bool)


def _erasure_words(bitgen, eps: float, shape) -> np.ndarray:
    """uint64 words of i.i.d. lanes, each set with the law of rng.random() < eps.

    rng.random() is k 2^-53 with k uniform on [0, 2^53), so a lane is erased
    iff k < m = ceil(eps 2^53) (eps 2^53 is exact in binary64).  The bits of
    every lane's k are drawn most significant first, 64 lanes to a raw word
    of bitgen.random_raw, and compared with the bits of m; a lane stays live
    while its bits so far equal m's.  Round r (bit 52 - r) draws one word for
    each word still in play, in flat order: every word in the first
    _DENSE_ROUNDS rounds, then only the words with a live lane, compacted
    after each round.  A live lane whose bit is 0 where m has a 1 is erased;
    one whose bit is 1 where m has a 0 is not.  The rounds stop when no lane
    is live or the remaining bits of m are 0, after 53 at most; a lane still
    live then has k >= m and is not erased.

    `out`, `live` and the positions `pos` are allocated once.  Each round
    takes its words at most _DRAW_PIECE at a time, in order, and compacts
    `live` in place piece by piece; consecutive random_raw calls continue
    one stream, so the words are those of one draw per round.
    """
    m = math.ceil(eps * 2.0**53)
    out = np.zeros(math.prod(shape), dtype=np.uint64)
    live = np.full(out.size, np.uint64(2**64 - 1))
    pos = np.empty(out.size, dtype=np.intp)  # once compacted, live[j] sits at out[pos[j]]
    size = out.size  # the words in play are live[:size]
    for r in range(53):
        if not (m & ((1 << (53 - r)) - 1) and size):
            break
        compact = r >= _DENSE_ROUNDS - 1
        kept = 0
        for s in range(0, size, _DRAW_PIECE):
            piece = slice(s, min(s + _DRAW_PIECE, size))
            lv = live[piece]
            at = piece if r < _DENSE_ROUNDS else pos[piece]
            w = bitgen.random_raw(lv.size)
            w &= lv  # live lanes whose bit is 1
            lv ^= w  # live lanes whose bit is 0
            if m >> (52 - r) & 1:
                out[at] |= lv
                lv[...] = w
            if compact:
                keep = np.flatnonzero(lv != 0)
                pos[kept : kept + keep.size] = keep + s if r < _DENSE_ROUNDS else at[keep]
                live[kept : kept + keep.size] = lv[keep]
                kept += keep.size
        if compact:
            size = kept
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# successive cancellation decoding over the erasure channel
# ---------------------------------------------------------------------------

def sc_decode_bec(spec: CodeSpec, received) -> np.ndarray | None:
    """Successive cancellation over the BEC; None signals a decode failure.

    received holds N symbols in {0, 1, ERASED}.  Failure is a result, not a
    fault: some information bit could not be resolved (the decoder never
    guesses).  Beliefs are two ints: bit j of `known` is set when belief j
    is not erased, and bit j of `val` is then its value.  They are gathered
    once by the bit-reversal permutation, so a node's even and odd beliefs
    are its low and high halves.  Reversed, the word that encodes the frozen
    pattern f is the butterfly of f; XORed into `val` (no node reads its
    bits outside `known`), it makes every frozen bit 0.  A pruned SC pass
    returns each subtree's codeword, or None when it fails; the root's comes
    back reversed, so the message is read off u = x G = x[rev] F^(x)n by
    one butterfly, with no gather:

    - a node with no information leaf returns zeros;
    - a node with no erased belief returns its beliefs;
    - a rate-1 node (every leaf carries data) with an erased belief fails;
    - every other node splits into its minus and plus halves.

    Each rule fails exactly when the genie-aided erasure flag of one of the
    node's information leaves is set.  The rate-0 and rate-1 rules are
    those of Alamdar-Yazdi & Kschischang (2011).
    """
    rec = np.asarray(received)
    if rec.shape != (spec.block_length,):
        raise ValueError(f"received word must have length {spec.block_length}")
    bad = np.flatnonzero(~((rec == 0) | (rec == 1) | (rec == ERASED)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"received symbol at position {i} is {rec[i].item()!r}; "
            f"symbols must be 0, 1 or ERASED ({ERASED})"
        )
    size = spec.block_length
    y = rec[spec.bit_reversal]
    known, val, info = _bits_to_int(y >= 0), _bits_to_int(y == 1), spec.info_bits
    if spec.frozen_value:
        val ^= _butterfly(((1 << size) - 1) ^ info, size)
    x = _bec_node(known, val, info, size)
    if x is None:
        return None
    return _int_to_bits(_butterfly(x, size), size)[spec.info_set]


def _bit_reversal(n: int) -> np.ndarray:
    """The bit-reversal permutation of 0 .. 2^n - 1 (its own inverse), by doubling."""
    r = np.zeros(1 << n, dtype=np.int64)
    for s in range(n):
        r[1 << s : 2 << s] = r[: 1 << s] + (1 << (n - 1 - s))
    return r


def _bits_to_int(bits: np.ndarray) -> int:
    """The int whose bit j is bits[j]."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _int_to_bits(v: int, size: int) -> np.ndarray:
    """The first `size` bits of v as uint8 0/1 values, bit j at index j."""
    v = np.frombuffer(v.to_bytes(-(-size // 8), "little"), np.uint8)
    return np.unpackbits(v, count=size, bitorder="little")


def _bec_node(known: int, val: int, info: int, size: int) -> int | None:
    """Codeword of the SC subtree with `size` beliefs, or None if it fails.

    Bit i of `info` is set when leaf i carries data; leaves stay in index
    order.  No information leaf: zero; all beliefs known: the beliefs;
    rate-1 (a lone information leaf too): fails; else split in halves."""
    if info == 0:
        return 0
    full = (1 << size) - 1
    if known == full:
        return val
    if info == full:
        return None
    h = size // 2
    low = (1 << h) - 1
    k1, k2, v1, v2 = known & low, known >> h, val & low, val >> h
    a = _bec_node(k1 & k2, v1 ^ v2, info & low, h)
    if a is None:
        return None
    b = _bec_node(k1 | k2, v2 & k2 | (v1 ^ a) & ~k2, info >> h, h)
    if b is None:
        return None
    return (a ^ b) | (b << h)


# ---------------------------------------------------------------------------
# block error rate simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlerResult:
    """Outcome of a block error Monte Carlo run with its Wilson 95% interval."""

    trials: int
    failures: int
    bler: float
    ci_low: float
    ci_high: float


def wilson_interval(failures: int, trials: int):
    """Wilson 95% score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= failures <= trials:
        raise ValueError(f"failures must lie in [0, trials], got {failures} of {trials}")
    z = 1.959963984540054  # two-sided 95%
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


def simulate_bler(
    spec: CodeSpec, eps: float, trials: int, seed: int, threads: int = 1
) -> BlerResult:
    """Monte Carlo block error rate under i.i.d. erasures.

    A trial fails iff SC decoding fails, which on the BEC depends on the
    erasure pattern alone: the count comes from the erasure flags, with no
    message, no encoder and no value decoder.  The trials run as _run_chunks
    chunks of rows = min(2^15, 64 max(1, 2^18 // N)), at most 2^18 words
    when N <= 2^18; chunk i draws from child i of SeedSequence(seed), and a
    chunk of t trials is one position-major (N, ceil(t / 64)) array of
    uint64 words from _erasure_words on its bit generator: bit j of word w
    at position i erases position i in trial 64 w + j, and the lanes past t
    are padding.  That chunk width and the sampler's rounds define the
    stream (how many raw words each random_raw call returns does not); the
    counts are summed, so the result depends on the seed and not on
    `threads` (at most one worker per CPU runs).  _failed then overwrites
    the words in place with their flags.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"erasure probability must lie in [0, 1), got {eps}")

    def run_chunk(rng, t) -> int:
        words = _erasure_words(rng.bit_generator, eps, (spec.block_length, -(-t // 64)))
        return int(np.count_nonzero(_failed(spec, words, t)))

    rows = min(_CHUNK_ROWS, 64 * max(1, _DRAW_WORDS // spec.block_length))
    failures = sum(_run_chunks(run_chunk, trials, seed, threads, rows))
    lo, hi = wilson_interval(failures, trials)
    return BlerResult(trials, failures, failures / trials, lo, hi)
