"""Finite-n experiment drivers for the polarization speed statements.

Three curve families share one row schema (n, beta, threshold_log2,
probability, bound, stderr) and one row builder.  The builder takes, per
grid n, log2 values with weights and a trial count: exact laws give atoms
and probabilities (trial count 0, stderr 0), Monte Carlo gives sampled paths
with unit weights, each law computed once for the whole n grid.  The
families differ only in the tail they sum and the bound column:

* direct curves track P(Z_n <= 2^(-2^(beta n))); the bound column carries the
  limiting mass P(Z_inf = 0) of the chosen rule as a reference line.
* converse curves track P(Z_n >= 2^(-2^(beta n))); the bound column carries
  the exact binomial lower bound obtained from the hold-on-zero process.
* channel curves track P(Z_n <= 2^(-N^beta)) for the process induced by an
  actual channel; the bound column carries I(W).  The process of BEC(eps) is
  the EXTREMAL process from z0 = eps and N^beta = 2^(beta n), so an erasure
  channel's curve is the EXTREMAL direct curve at z0 = eps, exact up to the
  enumeration cap; beyond it run `scaling-direct --z0 eps --mode mc`.  Other
  channels are synthesized by explicit transforms and are limited to n <= 4.

Every routine reports finite-n trend tables only; no extrapolation to the
limit is claimed.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import bdmc
from .bdmc import Channel
from .errors import ResourceCapError
from .zprocess import (
    DEFAULT_ENUM_CAP,
    Rule,
    _exact_laws,
    _run_chunks,
    _vec_start,
    _vec_step,
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
        object.__setattr__(self, "beta_grid", tuple(float(b) for b in self.beta_grid))
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if not 0.0 < self.z0 < 1.0:
            raise ValueError(f"z0 must lie inside (0, 1), got {self.z0}")
        if not self.beta_grid or any(b <= 0.0 for b in self.beta_grid):
            raise ValueError("beta grid must be non-empty with positive entries")
        if not self.n_grid or any(n < 0 for n in self.n_grid):
            raise ValueError("n grid must be non-empty with nonnegative entries")
        if self.rule is Rule.DOUBLING:
            raise ValueError("curves are defined for the EXTREMAL and LOWER rules")
        if self.mode is Mode.EXACT and max(self.n_grid) > self.enum_cap:
            raise ResourceCapError(
                f"EXACT mode needs n <= {self.enum_cap}, grid reaches {max(self.n_grid)}",
                flag="--enum-cap",
            )
        if self.mode is Mode.MONTE_CARLO and self.trials < 1:
            raise ValueError("Monte Carlo mode needs at least one trial")


def _laws(cfg: ScalingConfig) -> dict:
    """Per grid n: (log2 values, weights, trials), computed once for the grid.

    EXACT gives atoms and probabilities with trial count 0; MONTE_CARLO gives
    sampled paths with unit weights, chunked with derived seeds so that the
    samples are identical for any thread count.
    """
    if cfg.mode is Mode.EXACT:
        laws = _exact_laws(cfg.z0, cfg.n_grid, cfg.rule, cfg.enum_cap)
        return {n: (d.log2_values, d.probs, 0) for n, d in laws.items()}
    snaps_at = sorted(set(cfg.n_grid))

    def run_chunk(rng, size):
        a, c = _vec_start(cfg.z0, size)
        out = {}
        if snaps_at[0] == 0:
            out[0] = a.copy()
        for step_i in range(1, snaps_at[-1] + 1):
            bits = rng.integers(0, 2, size=size, dtype=np.uint8)
            a, c = _vec_step(a, c, bits, cfg.rule)
            if step_i in snaps_at:
                out[step_i] = a.copy()
        return out

    parts = _run_chunks(run_chunk, cfg.trials, cfg.seed, cfg.threads)
    ones = np.ones(cfg.trials)
    return {n: (np.concatenate([p[n] for p in parts]), ones, cfg.trials) for n in snaps_at}


def _curve_rows(laws: dict, n_grid, beta_grid, upper: bool, bound) -> list[CurveRow]:
    """One row per (n, beta): the mass of laws[n] = (log2 values, weights,
    trials) at or below the threshold -2^(beta n), or at or above it when
    upper; bound(n, beta) fills the bound column.
    """
    rows = []
    for n in n_grid:
        values, weights, trials = laws[n]
        for beta in beta_grid:
            t = -(2.0 ** (beta * n))
            mask = values >= t if upper else values <= t
            p = float(weights[mask].sum()) / (trials or 1)
            stderr = math.sqrt(p * (1.0 - p) / trials) if trials else 0.0
            rows.append(CurveRow(n, beta, t, p, bound(n, beta), stderr))
    return rows


def direct_curve(cfg: ScalingConfig) -> list[CurveRow]:
    """Rows of P(Z_n <= 2^(-2^(beta n))) over the full (n, beta) grid."""
    # P(Z_inf = 0): 1 - z0 for the martingale rule, 1 for the hold rule.
    limit = 1.0 - cfg.z0 if cfg.rule is Rule.EXTREMAL else 1.0
    return _curve_rows(
        _laws(cfg), cfg.n_grid, cfg.beta_grid, upper=False, bound=lambda n, beta: limit
    )


def converse_curve(cfg: ScalingConfig) -> list[CurveRow]:
    """Rows of P(Z_n >= 2^(-2^(beta n))) with the exact binomial lower bound."""
    small = [b for b in cfg.beta_grid if b <= 0.5]
    if small:
        warnings.warn(
            f"converse thresholds are informative for beta > 1/2; grid includes {small}",
            stacklevel=2,
        )
    return _curve_rows(
        _laws(cfg), cfg.n_grid, cfg.beta_grid, upper=True,
        bound=lambda n, beta: converse_binomial(cfg.z0, n, beta),
    )


# ---------------------------------------------------------------------------
# channel-form curve (thresholds 2^(-N^beta), reference line I(W))
# ---------------------------------------------------------------------------

def synthesized_channels(
    channel: Channel, n: int, merge_tol: float = 1e-12
) -> list[Channel]:
    """All 2^n synthesized channels of n explicit transform levels, in index order.

    Each level applies the transform and merges equivalent outputs, which
    preserves I and Z while keeping alphabets bounded.
    """
    chans = [bdmc.merge_equivalent_outputs(channel, merge_tol)]
    for _ in range(n):
        nxt = []
        for ch in chans:
            pair = bdmc.polar_transform(ch)
            nxt.append(bdmc.merge_equivalent_outputs(pair.minus, merge_tol))
            nxt.append(bdmc.merge_equivalent_outputs(pair.plus, merge_tol))
        chans = nxt
    return chans


def channel_form(channel: Channel, beta: float, n_grid) -> list[CurveRow]:
    """Rows of P(Z_n <= 2^(-N^beta)) for the process induced by a channel.

    The process of BEC(eps) is the EXTREMAL process from z0 = eps, and
    2^(-N^beta) = 2^(-2^(beta n)), so an erasure channel's rows are those of
    the exact direct curve at z0 = eps, with I(W) in the bound column.  Past
    the enumeration cap that raises ResourceCapError (flag --enum-cap); the
    Monte Carlo curve is `scaling-direct --z0 eps --mode mc`.  For eps in
    {0, 1} Z_n stays at eps, so the rows are exact at any n.  Any other
    channel is synthesized by explicit transforms and rejected beyond n = 4.
    """
    n_grid = tuple(int(n) for n in n_grid)
    if not n_grid or any(n < 0 for n in n_grid):
        raise ValueError("n grid must be non-empty with nonnegative entries")
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    iw = bdmc.symmetric_capacity(channel)
    eps = bdmc.as_bec_eps(channel)
    if eps in (0.0, 1.0):  # Z_n stays at eps
        log2_z = np.array([-math.inf if eps == 0.0 else 0.0])
        laws = dict.fromkeys(n_grid, (log2_z, np.ones(1), 0))
    elif eps is not None:
        laws = _laws(ScalingConfig(z0=eps, beta_grid=(beta,), n_grid=n_grid))
    elif max(n_grid) > 4:
        raise ValueError(
            "non-erasure channels are synthesized by explicit transforms and "
            f"capped at n=4, grid reaches {max(n_grid)}"
        )
    else:
        laws = {}
        for n in set(n_grid):
            zs = np.array([bdmc.bhattacharyya(ch) for ch in synthesized_channels(channel, n)])
            laws[n] = (np.log2(zs), np.full(zs.size, 2.0**-n), 0)
    return _curve_rows(laws, n_grid, (beta,), upper=False, bound=lambda n, b: iw)


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
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie inside (0, 1), got {self.beta}")
        if not 0.0 < self.z0 < 1.0:
            raise ValueError(f"z0 must lie inside (0, 1), got {self.z0}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie inside (0, 1), got {self.rho}")
        object.__setattr__(self, "m", math.ceil(self.n ** 0.75))
        object.__setattr__(self, "a_n", math.ceil(math.sqrt(self.n)))
        object.__setattr__(self, "k", (self.n - self.m) // self.a_n)
        if self.k < 1:
            raise ValueError(
                f"interval partition is empty: n={self.n} gives m={self.m}, "
                f"a_n={self.a_n}"
            )

    @property
    def tail_size(self) -> int:
        return (self.n - self.m) - self.k * self.a_n

    @property
    def telescope_end(self) -> int:
        """Last step covered by full intervals, m + k a_n (= n iff no tail)."""
        return self.m + self.k * self.a_n

    def intervals(self) -> list[range]:
        """The k full blocks of a_n step indices starting at m."""
        return [
            range(self.m + j * self.a_n, self.m + (j + 1) * self.a_n)
            for j in range(self.k)
        ]

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
            "n": cfg.n,
            "beta": cfg.beta,
            "z0": cfg.z0,
            "rho": cfg.rho,
            "m": cfg.m,
            "a_n": cfg.a_n,
            "k": cfg.k,
            "tail_size": cfg.tail_size,
            "telescope_end": cfg.telescope_end,
            "telescope_sound": cfg.telescope_sound,
            "trials": self.trials,
            "seed": self.seed,
            "entropy_bound": cfg.entropy_bound,
            "entropy_bound_vacuous": cfg.entropy_bound >= 1.0,
            "interval_freqs": list(self.interval_freqs),
            "g_freq": self.g_freq,
            "g_lower_bound": self.g_lower_bound,
            "qualifying_fraction": self.qualifying_fraction,
            "log_bound_checked": self.log_bound_checked,
            "log_bound_violations": self.log_bound_violations,
            "log_bound_vacuous": self.log_bound_vacuous,
            "asymptotic_violations": self.asymptotic_violations,
            "domination_violations": self.domination_violations,
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
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(trials, cfg.n), dtype=np.uint8)

    a, c = _vec_start(cfg.z0, trials)
    shadow = None
    dom_violations = 0
    a_at_m = None
    a_at_end = None
    for i in range(cfg.n):
        if i == cfg.m:
            a_at_m = a.copy()
            shadow = a.copy()
        if i == cfg.telescope_end:
            a_at_end = a.copy()
        col = bits[:, i]
        a, c = _vec_step(a, c, col, Rule.EXTREMAL)
        if shadow is not None:
            shadow = np.where(col.astype(bool), 2.0 * shadow, shadow + 1.0)
            dom_violations += int(np.sum(a > shadow))
    if a_at_end is None:  # telescope_end == n, no tail block
        a_at_end = a

    # Interval squaring counts and the low-count events E_j.
    blocks = bits[:, cfg.m : cfg.telescope_end].reshape(trials, cfg.k, cfg.a_n)
    counts = blocks.sum(axis=2)
    e_events = counts < cfg.a_n * cfg.beta
    interval_freqs = tuple(float(f) for f in e_events.mean(axis=0))
    g = ~e_events.any(axis=1)
    g_freq = float(g.mean())
    g_lower = 1.0 - cfg.k * cfg.entropy_bound

    # Conditional samplewise log bounds.
    qual = g & (a_at_m <= cfg.m * math.log2(cfg.rho))
    cushion = a_at_m + cfg.a_n
    rhs_tel = (2.0 ** ((cfg.telescope_end - cfg.m) * cfg.beta)) * cushion
    rhs_asy = (2.0 ** ((cfg.n - cfg.m) * cfg.beta)) * cushion
    violations = int(np.sum(qual & (a_at_end > rhs_tel)))
    asymptotic = int(np.sum(qual & (a > rhs_asy)))
    vacuous = cfg.m * math.log2(cfg.rho) + cfg.a_n >= 0.0

    return BootstrapReport(
        config=cfg,
        trials=trials,
        seed=seed,
        interval_freqs=interval_freqs,
        g_freq=g_freq,
        g_lower_bound=g_lower,
        qualifying_fraction=float(qual.mean()),
        log_bound_checked=int(qual.sum()),
        log_bound_violations=violations,
        log_bound_vacuous=bool(vacuous),
        asymptotic_violations=asymptotic,
        domination_violations=dom_violations,
    )


# ---------------------------------------------------------------------------
# CSV / gnuplot emission
# ---------------------------------------------------------------------------

def rows_to_csv(rows, fp, comment: str | None = None) -> None:
    """One curve per file: n,beta,threshold_log2,probability,bound,stderr."""
    if comment:
        fp.write(f"# {comment}\n")
    fp.write("n,beta,threshold_log2,probability,bound,stderr\n")
    for r in rows:
        fp.write(
            f"{r.n},{r.beta!r},{r.threshold_log2!r},{r.probability!r},"
            f"{r.bound!r},{r.stderr!r}\n"
        )


def gnuplot_script(csv_path: str, title: str = "polarization curve") -> str:
    """A plot script for a curve CSV written by rows_to_csv."""
    return (
        'set datafile separator ","\n'
        'set datafile commentschars "#"\n'
        f'set title "{title}"\n'
        'set xlabel "n"\n'
        'set ylabel "probability"\n'
        "set yrange [0:1]\n"
        "set key left top\n"
        f'plot "{csv_path}" every ::1 using 1:4 with linespoints title "probability", \\\n'
        f'     "{csv_path}" every ::1 using 1:5 with lines title "bound"\n'
    )
