"""Finite binary-input discrete memoryless channels and the polarizing transform.

A channel is a dense table of likelihood pairs (W(y|0), W(y|1)), one row per
output symbol; symbols are anonymous positions.  Channels are immutable
values and every operation here is a pure function, so they are safe to
share across threads.

The single-step transform splits a channel W into a degraded half W- and an
upgraded half W+.  It conserves symmetric capacity, I(W-) + I(W+) = 2 I(W),
squares the Bhattacharyya parameter on the upgraded half, Z(W+) = Z(W)^2,
and satisfies Z(W) <= Z(W-) <= 2 Z(W) - Z(W)^2 on the degraded half (with
equality on the right for erasure channels).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceCapError

DEFAULT_ALPHABET_CAP = 1 << 20


@dataclass(frozen=True)
class Channel:
    """A binary-input DMC as an (M, 2) table: probs[y] = (W(y|0), W(y|1))."""

    probs: np.ndarray

    def __post_init__(self):
        try:
            p = np.ascontiguousarray(np.asarray(self.probs, dtype=np.float64))
        except (TypeError, ValueError):
            raise ValueError(f"channel outputs must be an (M, 2) table of numbers, "
                             f"got {self.probs!r:.60}") from None
        if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] == 0:
            raise ValueError(
                f"channel needs a non-empty (M, 2) likelihood table, got shape {p.shape}"
            )
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def __len__(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True)
class TransformPair:
    """The two children of one polarization step: degraded minus, upgraded plus."""

    minus: Channel
    plus: Channel


def bec(eps: float) -> Channel:
    """Binary erasure channel with erasure probability eps."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"erasure probability must be in [0, 1], got {eps}")
    return Channel([(1.0 - eps, 0.0), (0.0, 1.0 - eps), (eps, eps)])


def bsc(p: float) -> Channel:
    """Binary symmetric channel with crossover probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"crossover probability must be in [0, 1], got {p}")
    return Channel([(1.0 - p, p), (p, 1.0 - p)])


def validate(channel: Channel) -> None:
    """Check that both likelihood columns are distributions summing to 1 within 1e-12.

    Raises ValueError naming the offending probability or column; NaN and
    infinite likelihoods are rejected by output and input.
    """
    p = channel.probs
    bad = np.argwhere(~((p >= 0.0) & (p <= 1.0)))  # NaN fails both comparisons
    if bad.size:
        y, x = (int(v) for v in bad[0])
        v = float(p[y, x])
        what = "is outside [0, 1]" if np.isfinite(v) else "is not a finite number"
        raise ValueError(f"output {y}: W(y|{x}) = {v!r} {what}")
    for x in (0, 1):
        s = float(p[:, x].sum())
        if abs(s - 1.0) > 1e-12:
            raise ValueError(f"input {x}: column sums to {s!r}, expected 1 within 1e-12")


def symmetric_capacity(channel: Channel) -> float:
    """I(W) in bits: mutual information under the uniform input distribution.

    Uses the convention 0 * log(0) = 0, so degenerate channels are fine.
    """
    p = channel.probs
    s = p[:, 0] + p[:, 1]  # 2 P(y); halving it could underflow to 0
    total = 0.0
    for x in (0, 1):
        px = p[:, x]
        m = px > 0.0
        total += 0.5 * float(np.sum(px[m] * np.log2(2.0 * px[m] / s[m])))
    return total


def bhattacharyya(channel: Channel) -> float:
    """Z(W) = sum_y sqrt(W(y|0) W(y|1)), in [0, 1]."""
    p = channel.probs
    return float(np.sum(np.sqrt(p[:, 0] * p[:, 1])))


def polar_transform(
    channel: Channel, alphabet_cap: int = DEFAULT_ALPHABET_CAP
) -> TransformPair:
    """One polarization step W -> (W-, W+).

    W- observes a pair of channel uses carrying (x1 xor x2, x2) and decides
    x1 without knowing x2; W+ additionally conditions on x1.  The minus
    output alphabet is Y^2, the plus alphabet Y^2 x {0,1}.

    Raises ResourceCapError when the plus alphabet would exceed alphabet_cap
    symbols (raise it with --alphabet-cap).
    """
    m = len(channel)
    if 2 * m * m > alphabet_cap:
        raise ResourceCapError(
            f"transform of a {m}-output channel needs {2 * m * m} output symbols, "
            f"over the alphabet cap ({alphabet_cap})",
            flag="--alphabet-cap",
        )
    p0 = channel.probs[:, 0]
    p1 = channel.probs[:, 1]

    minus = np.empty((m * m, 2))
    minus[:, 0] = 0.5 * (np.outer(p0, p0) + np.outer(p1, p1)).ravel()
    minus[:, 1] = 0.5 * (np.outer(p1, p0) + np.outer(p0, p1)).ravel()

    # Plus outputs are ordered (x1 = 0 block, x1 = 1 block), each block y1 x y2.
    plus = np.empty((2 * m * m, 2))
    plus[: m * m, 0] = 0.5 * np.outer(p0, p0).ravel()
    plus[: m * m, 1] = 0.5 * np.outer(p1, p1).ravel()
    plus[m * m :, 0] = 0.5 * np.outer(p1, p0).ravel()
    plus[m * m :, 1] = 0.5 * np.outer(p0, p1).ravel()

    return TransformPair(minus=Channel(minus), plus=Channel(plus))


def merge_equivalent_outputs(channel: Channel, tol: float = 1e-12) -> Channel:
    """Collapse output symbols that carry the same likelihood ratio.

    Neighbouring symbols whose posteriors r = p1/(p0+p1) and 1 - r =
    p0/(p0+p1) both agree to a relative tol (log-likelihood ratios within
    about tol) are summed into one symbol; symbols with p0 = p1 = 0 are
    dropped.  The likelihood ratio is a sufficient statistic for a binary
    input, so I(W) and Z(W) are preserved.  The test is relative because an
    absolute one merges distinct ratios near r = 0 and r = 1: posteriors 0
    and 8e-13 of mass 1/2 each would move Z by 1.9e-7.  Output symbols come
    back sorted by posterior, which keeps repeated transform+merge passes
    deterministic.
    """
    if not tol >= 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    p = channel.probs
    total = p[:, 0] + p[:, 1]
    keep = total > 0.0
    p0, p1, total = p[keep, 0], p[keep, 1], total[keep]
    if p0.size == 0:
        raise ValueError("channel has no outputs with positive probability")

    r, q = p1 / total, p0 / total
    order = np.lexsort((-q, r))
    r, q = r[order], q[order]
    same = (np.diff(r) <= tol * np.minimum(r[:-1], r[1:])) & (
        np.abs(np.diff(q)) <= tol * np.minimum(q[:-1], q[1:])
    )
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    merged = np.column_stack(
        (np.add.reduceat(p0[order], starts), np.add.reduceat(p1[order], starts))
    )
    return Channel(merged)


def as_bec_eps(channel: Channel) -> float | None:
    """Return eps if the channel is (equivalent to) an erasure channel, else None.

    A channel is erasure-like when every merged output either reveals the
    input (p0 * p1 = 0) or is uninformative (p0 = p1), each within a relative
    1e-9, and both inputs see the same erasure mass within 1e-9.  That mass
    is then the Bhattacharyya parameter.
    """
    tol = 1e-9
    merged = merge_equivalent_outputs(channel)
    p0 = merged.probs[:, 0]
    p1 = merged.probs[:, 1]
    scale = np.maximum(p0, p1)
    reveal = np.minimum(p0, p1) <= tol * scale
    erase = np.abs(p0 - p1) <= tol * scale
    if not np.all(reveal | erase):
        return None
    e0 = float(p0[erase & ~reveal].sum())
    e1 = float(p1[erase & ~reveal].sum())
    if abs(e0 - e1) > tol:
        return None
    return 0.5 * (e0 + e1)


def from_json_dict(data: dict) -> Channel:
    """Read and validate a channel file, {"outputs": [[p0, p1], ...]}; other keys are ignored."""
    if not isinstance(data, dict) or "outputs" not in data:
        raise ValueError(f'channel JSON must be an object with an "outputs" key, got {data!r:.60}')
    ch = Channel(data["outputs"])
    validate(ch)
    return ch
