"""Finite-n experiment drivers for the polarization speed statements.

Three curve families share one row schema (n, beta, threshold_log2,
probability, bound, stderr) and one row builder.  Each row is one tail
query at its threshold, on the side chosen once for the curve, and the
whole n grid is computed at once from the grid's thresholds.  Exact and
Monte Carlo curves both keep one count per grid n and threshold: of branch
words, which a row divides by 2^n (stderr 0), or of sampled paths, which it
divides by the trial count.  A Monte Carlo chunk gives each of its 2^d
first-d-coin prefixes the same number of paths instead of drawing those
coins, so its rows at n <= d are the exact rows.  Exact counts run to
n = 1023, as far as their atoms allow: a level whose children would pass the atom budget (enum_cap,
--enum-cap) is refused before they are allocated.  They are enumerated
by one loop with the thresholds in hand: each level's children that no
threshold still ahead can separate leave for a tally, the grid thresholds
are counted over the rest and the tally, and the rest are kept.  An
EXTREMAL grid whose 2^n branch words all fit the budget keeps the words,
with no sort or merge, and is never refused; a deeper one keeps atoms and
merges them each level below the top, as every LOWER grid does (its n + 1
atoms are shared by nearly all of its words).  The rows are those of the
full laws, bit for bit, while the path counts stay below 2^53 (n <= 53),
and past that they may move in the last bits.
Channel curves count too, over the synthesized channels.  The families
differ only in the side and the bound column:

* direct curves track P(Z_n <= 2^(-2^(beta n))); the bound column carries the
  limiting mass P(Z_inf = 0) of the chosen rule as a reference line.
* converse curves track P(Z_n >= 2^(-2^(beta n))); the bound column carries
  the exact binomial lower bound obtained from the hold-on-zero process.
* channel curves track P(Z_n <= 2^(-N^beta)) for the process induced by an
  actual channel; the bound column carries I(W).  The process of BEC(eps) is
  the EXTREMAL process from z0 = eps and N^beta = 2^(beta n), so an erasure
  channel's curve asks the exact EXTREMAL law from z0 = eps, within the
  default budget; beyond it run `scaling-direct --z0 eps --mode mc`.  Other
  channels are synthesized by explicit transforms, limited to n <= 4 and to
  merged alphabets under the transform's alphabet cap, and a row counts the
  synthesized channels with log2 Z at or below its threshold, over 2^n.

Every routine reports finite-n trend tables only; no extrapolation to the
limit is claimed.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import bdmc
from .bdmc import Channel
from .errors import ResourceCapError
from .zprocess import (
    DEFAULT_ENUM_CAP,
    Rule,
    _exact_tail_counts,
    _paths,
    _require_cap,
    _require_open_unit,
    _require_steps,
    _run_chunks,
    _tail_counts,
    converse_binomial,
)


class Mode(enum.Enum):
    EXACT = "exact"
    MONTE_CARLO = "mc"


@dataclass(frozen=True)
class CurveRow:
    n: int
    beta: float
    threshold_log2: float
    probability: float
    bound: float
    stderr: float


@dataclass(frozen=True)
class ScalingConfig:
    """Grid description for the direct/converse curves."""

    z0: float
    beta_grid: tuple[float, ...]
    n_grid: tuple[int, ...]
    mode: Mode = Mode.EXACT
    trials: int = 100_000
    seed: int = 0
    rule: Rule = Rule.EXTREMAL
    enum_cap: int = DEFAULT_ENUM_CAP
    threads: int = 1

    def __post_init__(self):
        betas, ns = _check_grid(self.beta_grid, self.n_grid)
        object.__setattr__(self, "beta_grid", betas)
        object.__setattr__(self, "n_grid", ns)
        _require_open_unit(self.z0)
        if self.rule not in (Rule.EXTREMAL, Rule.LOWER):
            raise ValueError(f"curves are defined for the EXTREMAL and LOWER rules, got {self.rule!r}")
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        _require_cap(self.enum_cap)


def _check_grid(betas, ns) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """The grid as (floats, ints).  Rejects an empty grid, a negative or
    non-integral n, and a beta that is not finite and positive or whose
    threshold exponent 2^(beta n) at the grid's largest n overflows a double."""
    if not betas:
        raise ValueError("beta grid must be non-empty")
    if not ns or any(n < 0 for n in ns):
        raise ValueError("n grid must be non-empty with nonnegative entries")
    for n in ns:
        if n % 1:  # also NaN and inf
            raise ValueError(f"n grid entries must be integers, got {n!r}")
    betas, ns = tuple(float(b) for b in betas), tuple(int(n) for n in ns)
    n = max(ns)
    for beta in betas:
        if not 0.0 < beta < math.inf:
            raise ValueError(f"beta must be finite and positive, got {beta!r}")
        if beta * n >= 1024:
            raise ValueError(
                f"threshold 2^(-2^(beta n)) is out of double range at beta={beta!r}, "
                f"n={n}: beta * n must stay below 1024"
            )
    return betas, ns


def _tail(cfg: ScalingConfig, upper: bool):
    """(tail, trials): tail(n, t) is the mass of log2 Z_n at or below t, or
    at or above it when upper, at grid n and threshold t = -2^(beta n): a
    count divided by 2^n (EXACT, trials 0) or by the trials, clamped to at
    most 1 (exact counts past 2^53 round, and can sum a few ulps past 2^n).

    EXACT counts branch words in one loop (zprocess._exact_tail_counts),
    whose levels drop what these thresholds cannot separate into a tally.
    It keeps the branch words unmerged when the rule is EXTREMAL and all
    2^max(n) of them fit enum_cap; otherwise it keeps atoms and merges the
    equal ones each level below the top (LOWER always: its n + 1 atoms are
    shared by nearly all of its words).  MONTE_CARLO draws its paths in chunks
    with derived seeds, identical for any thread count, and each chunk
    (zprocess._tail_counts) keeps one count per grid n and threshold: memory
    per chunk, not per trial.  An EXTREMAL chunk of size paths steps each of
    its 2^d coin prefixes once, not its paths (zprocess._prefixes, as
    q_halfmoment and bootstrap_diagnostic do; 2^d divides size and is at
    most size/8), and path j takes prefix j // (size >> d): its counts at
    n <= d are size times the exact fractions.  Past d the paths step on
    the exact laws' child map of log2 z, and a path leaves the loop once its
    log2 z is above the bound past which EXACT drops a child, or below
    -53 - (steps left), where the map only doubles or adds 1 (LOWER paths
    double or hold from the start); the counts are those of the full paths,
    bit for bit.
    """
    cuts = {n: [-(2.0 ** (beta * n)) for beta in cfg.beta_grid] for n in set(cfg.n_grid)}
    if cfg.mode is Mode.EXACT:
        counts, trials = _exact_tail_counts(cfg.z0, cuts, upper, cfg.rule, cfg.enum_cap), 0
    else:
        def run_chunk(rng, size):
            return _tail_counts(cfg.z0, cuts, upper, cfg.rule, rng, size)

        parts = _run_chunks(run_chunk, cfg.trials, cfg.seed, cfg.threads)
        counts, trials = {key: sum(p[key] for p in parts) for key in parts[0]}, cfg.trials
    return lambda n, t: min(1.0, counts[n, t] / (trials or 2.0 ** n)), trials


def _curve_rows(tail, trials: int, n_grid, beta_grid, bound) -> list[CurveRow]:
    """One row per (n, beta): probability tail(n, t) at t = -2^(beta n), the
    stderr of trials iid samples, sqrt(p (1 - p) / trials) (0 for a law,
    trials = 0), and bound(n, beta).  Monte Carlo chunks allot their coin
    prefixes in proportion (_tail), so this stderr is an upper bound on the
    estimate's: proportional stratification never raises the variance."""
    rows = []
    for n in n_grid:
        for beta in beta_grid:
            t = -(2.0 ** (beta * n))
            p = tail(n, t)
            stderr = math.sqrt(p * (1.0 - p) / trials) if trials else 0.0
            rows.append(CurveRow(n, beta, t, p, bound(n, beta), stderr))
    return rows


def direct_curve(cfg: ScalingConfig) -> list[CurveRow]:
    """Rows of P(Z_n <= 2^(-2^(beta n))) over the full (n, beta) grid."""
    # P(Z_inf = 0): 1 - z0 for the martingale rule, 1 for the hold rule.
    limit = 1.0 - cfg.z0 if cfg.rule is Rule.EXTREMAL else 1.0
    return _curve_rows(*_tail(cfg, upper=False), cfg.n_grid, cfg.beta_grid,
                       bound=lambda n, beta: limit)


def converse_curve(cfg: ScalingConfig) -> list[CurveRow]:
    """Rows of P(Z_n >= 2^(-2^(beta n))) with the exact binomial lower bound."""
    tail, trials = _tail(cfg, upper=True)
    small = [b for b in cfg.beta_grid if b <= 0.5]
    if small:
        warnings.warn(
            f"converse thresholds are informative for beta > 1/2; grid includes {small}",
            stacklevel=2,
        )
    return _curve_rows(tail, trials, cfg.n_grid, cfg.beta_grid,
                       bound=lambda n, beta: converse_binomial(cfg.z0, n, beta))


# ---------------------------------------------------------------------------
# channel-form curve (thresholds 2^(-N^beta), reference line I(W))
# ---------------------------------------------------------------------------

def synthesized_channels(channel: Channel, n: int) -> list[Channel]:
    """All 2^n synthesized channels of n explicit transform levels, in index order.

    Each level applies the transform and merges equivalent outputs at the
    default tolerance, which preserves I and Z while keeping alphabets
    bounded.  Raises ValueError naming the level when a merged alphabet is
    too large to transform under the transform's default alphabet cap.
    """
    _require_steps(n)
    chans = [bdmc.merge_equivalent_outputs(channel)]
    for level in range(1, n + 1):
        nxt = []
        for ch in chans:
            try:
                pair = bdmc.polar_transform(ch)
            except ResourceCapError as exc:
                raise ValueError(f"explicit synthesis stops at level {level}: {exc}") from None
            nxt += map(bdmc.merge_equivalent_outputs, (pair.minus, pair.plus))
        chans = nxt
    return chans


def channel_form(channel: Channel, beta: float, n_grid) -> list[CurveRow]:
    """Rows of P(Z_n <= 2^(-N^beta)) for the process induced by a channel.

    The process of BEC(eps) is the EXTREMAL process from z0 = eps, and
    2^(-N^beta) = 2^(-2^(beta n)), so an erasure channel's rows are those of
    the exact direct curve at z0 = eps, with I(W) in the bound column.  A
    level whose children pass the default atom budget raises ResourceCapError
    (flag --enum-cap); the Monte Carlo curve is `scaling-direct --z0 eps
    --mode mc`.  For eps in {0, 1} Z_n stays at eps, so the rows are exact at
    any n.  Any other channel is synthesized by explicit transforms: n <= 4,
    and only while the merged alphabet stays under the transform's alphabet
    cap (ValueError naming the level otherwise).  A grid with beta * n >= 1024
    raises ValueError: its threshold 2^(-N^beta) is out of double range, and
    so does a channel that bdmc.validate refuses.
    """
    bdmc.validate(channel)
    (beta,), n_grid = _check_grid((beta,), n_grid)
    iw = bdmc.symmetric_capacity(channel)
    eps = bdmc.as_bec_eps(channel)
    if eps in (0.0, 1.0):  # log2 Z_n stays at -inf or at 0, below or above every t
        tail = lambda n, t: 1.0 - eps
    elif eps is not None:
        cfg = ScalingConfig(z0=eps, beta_grid=(beta,), n_grid=n_grid, enum_cap=DEFAULT_ENUM_CAP)
        tail = _tail(cfg, upper=False)[0]
    elif max(n_grid) > 4:
        raise ValueError("non-erasure channels are synthesized by explicit transforms and "
                         f"capped at n=4, grid reaches {max(n_grid)}")
    else:
        with np.errstate(divide="ignore"):  # a Z that underflows to 0 is log2 Z = -inf
            log2_z = {n: np.log2([bdmc.bhattacharyya(ch) for ch in synthesized_channels(channel, n)])
                      for n in set(n_grid)}
        tail = lambda n, t: int(np.count_nonzero(log2_z[n] <= t)) / 2.0 ** n
    return _curve_rows(tail, 0, n_grid, (beta,), bound=lambda n, b: iw)


# ---------------------------------------------------------------------------
# bootstrap diagnostics (interval coin counts and the telescoped log bound)
# ---------------------------------------------------------------------------

def binary_entropy(beta: float) -> float:
    """H(beta) in bits, with H(0) = H(1) = 0."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"entropy argument must lie in [0, 1], got {beta}")
    if beta in (0.0, 1.0):
        return 0.0
    return -beta * math.log2(beta) - (1.0 - beta) * math.log2(1.0 - beta)


@dataclass(frozen=True)
class BootstrapConfig:
    """Interval layout for the squaring/doubling bootstrap diagnostic.

    The tail segment {m + k a_n, ..., n-1}, when non-empty, is shorter than
    a_n and excluded from the per-interval bound checks.
    """

    n: int
    beta: float
    z0: float = 0.5
    rho: float = 7.0 / 8.0
    m: int = field(init=False)
    a_n: int = field(init=False)
    k: int = field(init=False)

    def __post_init__(self):
        if self.n < 16:
            raise ValueError(f"diagnostic needs n >= 16, got {self.n}")
        for name in ("beta", "z0", "rho"):
            _require_open_unit(getattr(self, name), name)
        object.__setattr__(self, "m", math.ceil(self.n ** 0.75))
        object.__setattr__(self, "a_n", math.ceil(math.sqrt(self.n)))
        object.__setattr__(self, "k", (self.n - self.m) // self.a_n)
        if (self.n - self.m) * self.beta >= 1024:
            raise ValueError(f"bound exponent 2^((n - m) beta) is out of double range at beta="
                             f"{self.beta!r}, n={self.n}, m={self.m}: (n - m) * beta must stay below 1024")

    @property
    def tail_size(self) -> int:
        return (self.n - self.m) - self.k * self.a_n

    @property
    def telescope_end(self) -> int:
        """Last step covered by full intervals, m + k a_n (= n iff no tail)."""
        return self.m + self.k * self.a_n

    @property
    def entropy_bound(self) -> float:
        """Per-interval bound 2^(-a_n (1 - H(beta))) on a low-count block."""
        return 2.0 ** (-self.a_n * (1.0 - binary_entropy(self.beta)))

    @property
    def telescope_sound(self) -> bool:
        """Whether the geometric-sum slack is absorbed, 2^(-a_n beta) <= beta.

        When this holds, the telescoped bound at telescope_end is a samplewise
        theorem on the no-bad-interval event, not just an asymptotic statement.
        """
        return 2.0 ** (-self.a_n * self.beta) <= self.beta


@dataclass(frozen=True)
class BootstrapReport:
    config: BootstrapConfig
    trials: int
    seed: int
    interval_freqs: tuple[float, ...]
    g_freq: float
    g_lower_bound: float
    qualifying_fraction: float
    log_bound_checked: int
    log_bound_violations: int
    log_bound_vacuous: bool
    asymptotic_violations: int
    domination_violations: int

    def to_json_dict(self) -> dict:
        cfg = self.config
        return {
            **asdict(cfg),
            "tail_size": cfg.tail_size,
            "telescope_end": cfg.telescope_end,
            "telescope_sound": cfg.telescope_sound,
            "trials": self.trials,
            "seed": self.seed,
            "entropy_bound": cfg.entropy_bound,
            "entropy_bound_vacuous": cfg.entropy_bound >= 1.0,
            **{f.name: getattr(self, f.name) for f in fields(self)[3:]},  # past config, trials, seed
        }


def bootstrap_diagnostic(cfg: BootstrapConfig, trials: int, seed: int) -> BootstrapReport:
    """Monte Carlo check of the interval counting argument.

    Per sampled path: E_j is the event that fewer than a_n * beta of the
    coins driving the steps in interval J_j are squarings.  The report
    carries each empirical P(E_j) (to compare against the entropy bound),
    the frequency of G = no interval fails, and samplewise checks on the
    qualifying paths (in G with Z_m <= rho^m):

    * the telescoped bound over the k full intervals,
      log2 Z_e <= 2^((e-m) beta) (log2 Z_m + a_n) at e = telescope_end,
      which is a finite-n theorem whenever cfg.telescope_sound holds
      (log_bound_violations; expected zero);
    * the same bound pushed to the final step with exponent (n-m) beta,
      exactly the asymptotic form -- the uncovered tail block can break it
      on rare paths, so this count is informational
      (asymptotic_violations);
    * domination of the extremal path by its squaring-or-doubling shadow
      started at step m (domination_violations; expected zero).

    The paths come from _paths as log2 z, read from step m on (the chunk's
    coin prefixes are enumerated up to at most m), in the fixed 2^15-trial
    chunks of _run_chunks, and each chunk is reduced to integer tallies as
    it runs: memory stays per chunk.
    """
    m, a_n, end = cfg.m, cfg.a_n, cfg.telescope_end
    log2_rho_m = m * math.log2(cfg.rho)
    tel = 2.0 ** ((end - m) * cfg.beta)
    asy = 2.0 ** ((cfg.n - m) * cfg.beta)

    def run_chunk(rng, size):
        # Integer tallies: the k E_j counts, then G, qualifying, telescoped,
        # asymptotic and domination violations.
        e_counts = np.zeros(cfg.k, dtype=np.int64)
        failed = np.zeros(size, dtype=bool)  # some E_j occurred
        squarings = np.zeros(size, dtype=np.int64)  # in the current interval
        dom = 0
        paths = _paths(cfg.z0, cfg.n, rng, size, m)
        a_m = shadow = next(paths)[0].copy()
        for t, (a, coins) in enumerate(paths, m + 1):
            if t == end:
                a_end = a.copy()
            with np.errstate(over="ignore"):  # a shadow past double range is ±inf
                shadow = np.where(coins.astype(bool), 2.0 * shadow, shadow + 1.0)
            dom += int(np.count_nonzero(a > shadow))
            if t <= end:
                squarings += coins
                if (t - m) % a_n == 0:  # interval J_j ends with this coin
                    e = squarings < a_n * cfg.beta
                    e_counts[(t - m) // a_n - 1] += np.count_nonzero(e)
                    failed |= e
                    squarings[:] = 0
        qual = ~failed & (a_m <= log2_rho_m)
        cushion = a_m + a_n
        with np.errstate(over="ignore"):  # a bound past double range is -inf where counted
            return np.array([*e_counts, size - np.count_nonzero(failed), np.count_nonzero(qual),
                             np.count_nonzero(qual & (a_end > tel * cushion)),
                             np.count_nonzero(qual & (a > asy * cushion)), dom])

    tallies = [int(x) for x in sum(_run_chunks(run_chunk, trials, seed))]
    g, qualifying, violations, asymptotic, dom_violations = tallies[cfg.k:]
    return BootstrapReport(
        config=cfg,
        trials=trials,
        seed=seed,
        interval_freqs=tuple(e / trials for e in tallies[:cfg.k]),
        g_freq=g / trials,
        g_lower_bound=1.0 - cfg.k * cfg.entropy_bound,
        qualifying_fraction=qualifying / trials,
        log_bound_checked=qualifying,
        log_bound_violations=violations,
        log_bound_vacuous=log2_rho_m + a_n >= 0.0,
        asymptotic_violations=asymptotic,
        domination_violations=dom_violations,
    )
