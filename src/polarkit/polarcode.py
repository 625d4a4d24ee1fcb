"""Polar coding over the binary erasure channel.

Construction is exact for the BEC: the Bhattacharyya parameter of every
synthesized channel follows the closed recursion eps -> 2 eps - eps^2
(degraded step) / eps -> eps^2 (upgraded step).  Synthesized channel i is
identified with the branch word read off the binary expansion of i, most
significant bit first, bit 0 taking the degraded step and bit 1 the upgraded
step -- so larger indices are statistically more reliable and successive
cancellation decodes channels in plain index order.

The encoder applies the recursive butterfly x = u G: one stage maps each
pair (a, b) to (a xor b, b), Theta(N log N) total work.

Over the erasure channel the SC decoder never guesses, so whether a block
fails depends on its erasure pattern alone: it fails exactly when the
genie-aided erasure flag of some information index is set.  One flag
butterfly (minus half e1 | e2, plus half e1 & e2, 8 trials a byte) computes
the flags of all synthesized channels; the simulator counts failures from
them with no encoder and no value decoder.  The single-block decoder checks
its flags first and returns None on failure; otherwise a pruned SC pass over
exact three-valued beliefs (0 / 1 / erased) recovers the message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bdmc import Channel
from .errors import ResourceCapError
from .zprocess import _run_chunks

ERASED = -1  # erasure mark in received words (int8 convention)

DEFAULT_SPECTRUM_CAP = 26

_WILSON_Z = 1.959963984540054  # two-sided 95%

_DRAW_DOUBLES = 1 << 20  # values simulate_bler draws at once (8 MB of uniforms)


def bec_z_spectrum(eps: float, n: int, cap: int = DEFAULT_SPECTRUM_CAP) -> np.ndarray:
    """Exact erasure probabilities of all 2^n synthesized channels of BEC(eps).

    In-place doubling recursion, O(N) memory.  Raises ResourceCapError beyond
    the stage cap (raise it with --spectrum-cap).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"erasure probability must lie inside (0, 1), got {eps}")
    if n < 0:
        raise ValueError(f"stage count must be nonnegative, got {n}")
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
        info = np.ascontiguousarray(np.asarray(self.info_set, dtype=np.int64))
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

    @property
    def info_mask(self) -> np.ndarray:
        mask = np.zeros(self.block_length, dtype=bool)
        mask[self.info_set] = True
        return mask


def smallest_z_indices(z_values: np.ndarray, k: int) -> np.ndarray:
    """The k indices with the smallest Z, ties broken toward the lower index."""
    order = np.argsort(z_values, kind="stable")
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


def to_json_dict(spec: CodeSpec) -> dict:
    return {
        "n": spec.n,
        "eps": spec.eps,
        "rate": spec.rate,
        "info_set": [int(i) for i in spec.info_set],
        "gamma": spec.gamma,
        "union_bound": spec.union_bound,
    }


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def _butterfly_rows(u: np.ndarray) -> np.ndarray:
    """x = u G applied to each row of a (T, N) array, N a power of two."""
    x = np.ascontiguousarray(u, dtype=np.uint8)
    rows, big_n = x.shape
    bs = 2
    while bs <= big_n:
        h = bs // 2
        blk = x.reshape(-1, bs)
        out = np.empty_like(blk)
        out[:, 0::2] = blk[:, :h] ^ blk[:, h:]
        out[:, 1::2] = blk[:, h:]
        x = out.reshape(rows, big_n)
        bs *= 2
    return x


def _embed_messages(spec: CodeSpec, messages: np.ndarray) -> np.ndarray:
    u = np.zeros((messages.shape[0], spec.block_length), dtype=np.uint8)
    u += np.uint8(spec.frozen_value)
    u[:, spec.info_set] = messages
    return u


def encode(spec: CodeSpec, message) -> np.ndarray:
    """Encode K information bits into an N-bit codeword."""
    msg = np.asarray(message, dtype=np.uint8)
    if msg.shape != (spec.k,):
        raise ValueError(f"message must have length {spec.k}, got shape {msg.shape}")
    if msg.size and msg.max() > 1:
        raise ValueError("message bits must be 0 or 1")
    return _butterfly_rows(_embed_messages(spec, msg[None, :]))[0]


# ---------------------------------------------------------------------------
# successive cancellation decoding over the erasure channel
# ---------------------------------------------------------------------------

def _leaf_erasures(erased: np.ndarray) -> np.ndarray:
    """Genie-aided SC erasure flag of every synthesized channel, 8 trials a byte.

    erased is a (T, N) bool array of channel erasures.  Returns an
    (N, ceil(T/8)) uint8 array: row i holds the flags of synthesized channel i,
    trials packed along the row as np.packbits(erased, axis=0) packs them (pad
    bits are 0).  One level step splits each block of positions into e1 (even)
    and e2 (odd) and puts the minus block e1 | e2 before the plus block
    e1 & e2, so after n steps row i is channel i.
    """
    # Packing the transposed copy along its contiguous axis gives the same
    # bytes as packbits(axis=0) at a fraction of the cost.
    flags = np.packbits(np.ascontiguousarray(erased.T), axis=1)
    big_n, width = flags.shape
    rows = 1
    while rows < big_n:
        blk = flags.reshape(rows, big_n // rows, width)
        e1, e2 = blk[:, 0::2], blk[:, 1::2]
        out = np.empty((rows, 2, big_n // rows // 2, width), dtype=np.uint8)
        np.bitwise_or(e1, e2, out=out[:, 0])
        np.bitwise_and(e1, e2, out=out[:, 1])
        flags = out.reshape(big_n, width)
        rows *= 2
    return flags


def _failed(spec: CodeSpec, erased: np.ndarray) -> np.ndarray:
    """Per-trial SC failure of a (T, N) erasure array: some info index is erased.

    On the BEC the SC decoder never guesses, so every decision before the
    first erased information index is correct and failure depends on the
    erasure pattern alone (Arikan 2009, the BEC case).
    """
    any_info = np.bitwise_or.reduce(_leaf_erasures(erased)[spec.info_set], axis=0)
    return np.unpackbits(any_info, count=erased.shape[0]).astype(bool)


def sc_decode_bec(spec: CodeSpec, received) -> np.ndarray | None:
    """Successive cancellation over the BEC; None signals a decode failure.

    received holds N symbols in {0, 1, ERASED}.  Failure is a result, not a
    fault: it means some information bit could not be resolved (the decoder
    never guesses).  The erasure flags decide failure first; only a word that
    will decode runs the value pass, which prunes the SC tree:

    - the word that encodes the frozen pattern is XORed into the unerased
      symbols, so every frozen bit is 0 from then on;
    - a node with no information leaf returns zeros;
    - a node with no erased belief returns x = beliefs and u = x G (G is its
      own inverse); on a word that decodes this covers every rate-1 node;
    - a repetition node (only its last leaf carries data) takes the bit from
      any unerased belief;
    - a single-parity-check node (only its first leaf is frozen) has exactly
      one erasure, filled with the parity of the others;
    - every other node splits into its minus and plus halves.

    Rules after Alamdar-Yazdi & Kschischang (2011) and Sarkis et al. (2014).
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
    erased = rec == ERASED
    if _failed(spec, erased[None, :])[0]:
        return None
    info_mask = spec.info_mask
    info_below = np.concatenate(([0], np.cumsum(info_mask)))  # info leaves before each index
    y = rec.astype(np.int8)
    if spec.frozen_value:
        frozen_word = _butterfly_rows(~info_mask[None, :])[0].astype(np.int8)
        y = np.where(erased, y, y ^ frozen_word)
    u = np.zeros(spec.block_length, dtype=np.uint8)

    def node(beliefs: np.ndarray, lo: int) -> np.ndarray:
        size = beliefs.size
        info = info_below[lo + size] - info_below[lo]
        if info == 0:
            return np.zeros(size, dtype=np.int8)
        if beliefs.min() >= 0:
            u[lo : lo + size] = _butterfly_rows(beliefs[None, :])[0]
            return beliefs
        if info == 1 and info_mask[lo + size - 1]:
            bit = beliefs.max()
            u[lo + size - 1] = bit
            return np.full(size, bit, dtype=np.int8)
        if info == size - 1 and not info_mask[lo]:
            hole = beliefs < 0
            x = np.where(hole, np.bitwise_xor.reduce(beliefs[~hole]), beliefs)
            u[lo : lo + size] = _butterfly_rows(x[None, :])[0]
            return x
        y1 = beliefs[0::2]
        y2 = beliefs[1::2]
        minus = np.where((y1 >= 0) & (y2 >= 0), y1 ^ y2, np.int8(ERASED))
        a = node(minus, lo)
        plus = np.where(y2 >= 0, y2, np.where(y1 >= 0, y1 ^ a, np.int8(ERASED)))
        b = node(plus, lo + size // 2)
        x = np.empty_like(beliefs)
        x[0::2] = a ^ b
        x[1::2] = b
        return x

    node(y, 0)
    del node  # the closure refers to itself; break the cycle that holds u
    return u[spec.info_set]


# ---------------------------------------------------------------------------
# likelihood-domain SC over a general small DMC (cross-checking tool)
# ---------------------------------------------------------------------------

def sc_decode_dmc(
    channel: Channel, info_set, received_symbols, n: int, frozen_value: int = 0
) -> np.ndarray:
    """SC decoding over an arbitrary B-DMC in the likelihood domain, n <= 4.

    received_symbols are indices into the channel's output alphabet, one per
    use.  Ties at an information bit are resolved toward 0 (unlike the
    erasure decoder, which refuses); this routine exists to cross-check the
    production BEC decoder on small blocks.
    """
    if n > 4:
        raise ValueError("likelihood-domain SC is a cross-check tool, capped at n=4")
    big_n = 1 << n
    symbols = np.asarray(received_symbols, dtype=np.int64)
    if symbols.shape != (big_n,):
        raise ValueError(f"need {big_n} received symbols, got shape {symbols.shape}")
    info_mask = np.zeros(big_n, dtype=bool)
    info_mask[np.asarray(info_set, dtype=np.int64)] = True
    beliefs = channel.probs[symbols]  # (N, 2) likelihood pairs
    u = np.empty(big_n, dtype=np.uint8)

    def node(bel: np.ndarray, lo: int) -> np.ndarray:
        size = bel.shape[0]
        if size == 1:
            if info_mask[lo]:
                bit = 0 if bel[0, 0] >= bel[0, 1] else 1
            else:
                bit = frozen_value
            u[lo] = bit
            return np.array([bit], dtype=np.uint8)
        y1 = bel[0::2]
        y2 = bel[1::2]
        minus = np.empty((size // 2, 2))
        minus[:, 0] = y1[:, 0] * y2[:, 0] + y1[:, 1] * y2[:, 1]
        minus[:, 1] = y1[:, 1] * y2[:, 0] + y1[:, 0] * y2[:, 1]
        a = node(_norm_rows(minus), lo)
        idx = np.arange(size // 2)
        plus = np.empty((size // 2, 2))
        plus[:, 0] = y1[idx, a] * y2[:, 0]
        plus[:, 1] = y1[idx, 1 - a] * y2[:, 1]
        b = node(_norm_rows(plus), lo + size // 2)
        x = np.empty(size, dtype=np.uint8)
        x[0::2] = a ^ b
        x[1::2] = b
        return x

    node(beliefs, 0)
    del node  # break the closure's self-reference cycle
    return u[np.asarray(info_set, dtype=np.int64)]


def _norm_rows(pairs: np.ndarray) -> np.ndarray:
    s = pairs.sum(axis=1, keepdims=True)
    return np.divide(pairs, s, out=pairs, where=s > 0)


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

    def to_csv(self, fp) -> None:
        fp.write("trial_count,failures,bler,ci_low,ci_high\n")
        fp.write(
            f"{self.trials},{self.failures},{self.bler!r},"
            f"{self.ci_low!r},{self.ci_high!r}\n"
        )


def wilson_interval(failures: int, trials: int, z: float = _WILSON_Z):
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
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
    encoder and no value decoder.  Deterministic for a given seed,
    independently of `threads` (work is split into fixed chunks with derived
    seeds and the failure counts are summed in chunk order).
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"erasure probability must lie in [0, 1), got {eps}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rows = max(1, _DRAW_DOUBLES // spec.block_length)
    msg_rows = 4 * max(1, _DRAW_DOUBLES // (4 * max(1, spec.k)))

    def run_chunk(rng, size) -> int:
        # The messages are unused; drawing them keeps every seed's stream.
        # Each value takes one byte of a 32-bit draw, so blocks of a multiple
        # of 4 values give the stream of one (size, K) draw.
        for start in range(0, size, msg_rows):
            rng.integers(0, 2, size=(min(msg_rows, size - start), spec.k), dtype=np.uint8)
        failures = 0
        for start in range(0, size, rows):
            # Row blocks of rng.random give the doubles of one (size, N) draw.
            erased = rng.random((min(rows, size - start), spec.block_length)) < eps
            failures += int(np.count_nonzero(_failed(spec, erased)))
        return failures

    failures = sum(_run_chunks(run_chunk, trials, seed, threads))
    lo, hi = wilson_interval(failures, trials)
    return BlerResult(trials, failures, failures / trials, lo, hi)
