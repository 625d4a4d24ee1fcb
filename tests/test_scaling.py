import itertools
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polarkit import scaling, zprocess
from polarkit.bdmc import (
    Channel,
    as_bec_eps,
    bec,
    bhattacharyya,
    bsc,
    merge_equivalent_outputs,
    polar_transform,
    symmetric_capacity,
)
from polarkit.errors import ResourceCapError
from polarkit.polarcode import bec_z_spectrum
from polarkit.scaling import (
    BootstrapConfig,
    Mode,
    ScalingConfig,
    binary_entropy,
    bootstrap_diagnostic,
    channel_form,
    converse_curve,
    direct_curve,
    synthesized_channels,
)
from polarkit.zprocess import (
    Rule,
    _paths,
    _run_chunks,
    _step,
    converse_binomial,
    exact_distribution,
    f_rho,
)

from conftest import order_violations, random_channel


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_grids():
    with pytest.raises(ValueError):
        ScalingConfig(z0=0.5, beta_grid=(), n_grid=(4,))
    for ns in ((), (-1,)):
        with pytest.raises(ValueError, match="^n grid must be non-empty with nonnegative entries$"):
            ScalingConfig(z0=0.5, beta_grid=(0.4,), n_grid=ns)
    with pytest.raises(ValueError):
        ScalingConfig(z0=0.5, beta_grid=(-0.1,), n_grid=(4,))
    with pytest.raises(ValueError):
        ScalingConfig(z0=1.5, beta_grid=(0.4,), n_grid=(4,))
    with pytest.raises(ValueError):
        ScalingConfig(z0=0.5, beta_grid=(0.4,), n_grid=(4,), rule=Rule.DOUBLING)


def test_grids_reject_non_integral_n():
    # 4.7 is refused, not truncated to 4; NaN and inf are not integers either.
    for bad in (4.7, 8.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^n grid entries must be integers, got {bad!r}$"):
            ScalingConfig(z0=0.5, beta_grid=(0.3,), n_grid=(0, bad))
        with pytest.raises(ValueError, match=f"^n grid entries must be integers, got {bad!r}$"):
            channel_form(bec(0.3), 0.3, (bad,))
    cfg = ScalingConfig(z0=0.5, beta_grid=(1, 0.5), n_grid=(8.0, np.int64(4)))
    assert cfg.n_grid == (8, 4) and all(type(n) is int for n in cfg.n_grid)
    assert cfg.beta_grid == (1.0, 0.5) and all(type(b) is float for b in cfg.beta_grid)
    assert [r.n for r in channel_form(bec(0.3), 0.3, (8.0, 4))] == [8, 4]


@pytest.mark.parametrize("rule", [Rule.DOUBLING, "extremal", "lower"])
def test_config_rejects_rules_without_curves(rule):
    # A rule given by name made a DOUBLING curve whose bound column read 1.0.
    message = f"curves are defined for the EXTREMAL and LOWER rules, got {rule!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ScalingConfig(z0=0.5, beta_grid=(0.4,), n_grid=(4,), rule=rule)


@pytest.mark.parametrize("bad", [0.0, 1.0, math.nan])
@pytest.mark.parametrize(
    "name, make",
    [
        ("z0", lambda x: ScalingConfig(z0=x, beta_grid=(0.4,), n_grid=(4,))),
        ("beta", lambda x: BootstrapConfig(n=16, beta=x)),
        ("z0", lambda x: BootstrapConfig(n=16, beta=0.4, z0=x)),
        ("rho", lambda x: BootstrapConfig(n=16, beta=0.4, rho=x)),
        ("rho", lambda x: f_rho(x, 4)),
        ("eps", lambda x: bec_z_spectrum(x, 4)),
    ],
    ids=["scaling-z0", "bootstrap-beta", "bootstrap-z0", "bootstrap-rho", "f_rho", "spectrum-eps"],
)
def test_open_interval_checks_share_one_message(name, make, bad):
    with pytest.raises(ValueError, match=rf"^{name} must lie strictly inside \(0, 1\), got {bad}$"):
        make(bad)


def test_config_exact_mode_respects_enum_cap():
    cfg = ScalingConfig(z0=0.5, beta_grid=(0.4,), n_grid=(30,), mode=Mode.EXACT, enum_cap=1000)
    for curve in (direct_curve, converse_curve):
        with pytest.raises(ResourceCapError) as info:
            curve(cfg)
        assert info.value.flag == "--enum-cap"
    ScalingConfig(z0=0.5, beta_grid=(0.4,), n_grid=(30,), mode=Mode.MONTE_CARLO)


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.MONTE_CARLO])
@pytest.mark.parametrize("cap", [0, -5, math.nan])
def test_config_refuses_an_enum_cap_below_one(mode, cap):
    with pytest.raises(ValueError, match=f"^enum cap must be at least 1, got {cap}$"):
        ScalingConfig(z0=0.5, beta_grid=(0.4,), n_grid=(8,), mode=mode, enum_cap=cap)


# ---------------------------------------------------------------------------
# direct curve
# ---------------------------------------------------------------------------

def test_direct_curve_boundary_at_n0():
    cfg = ScalingConfig(z0=0.5, beta_grid=(0.45,), n_grid=(0,))
    row = direct_curve(cfg)[0]
    # Threshold 2^(-1) = 0.5 and Z_0 = 0.5: the closed event counts it.
    assert row.threshold_log2 == -1.0
    assert row.probability == 1.0


def test_direct_curve_matches_distribution():
    cfg = ScalingConfig(z0=0.5, beta_grid=(0.3, 0.45), n_grid=(4, 8))
    rows = direct_curve(cfg)
    assert len(rows) == 4
    for r in rows:
        dist = exact_distribution(0.5, r.n, Rule.EXTREMAL)
        assert r.probability == dist.cdf_at_log2(-(2.0 ** (r.beta * r.n)))
        assert r.bound == 0.5  # limiting mass 1 - z0
        assert r.stderr == 0.0


def test_exact_curves_enumerate_once_per_call(monkeypatch):
    # One enumeration to max(n_grid) serves every grid n of a curve, in
    # either mode: each level is made once per curve call, as word lanes
    # while all 2^12 words fit the cap, and otherwise, and for LOWER, merged
    # at every level below the top.
    calls = []

    def counts(z0, cuts, upper, rule, cap):
        calls.append((sorted(cuts), []))
        return real_counts(z0, cuts, upper, rule, cap)

    def budget(level, children, cap):
        calls[-1][1].append(level)
        return real_budget(level, children, cap)

    real_counts, real_budget, real_merge = (scaling._exact_tail_counts, zprocess._require_budget,
                                            zprocess._merge)
    monkeypatch.setattr(scaling, "_exact_tail_counts", counts)
    monkeypatch.setattr(zprocess, "_require_budget", budget)
    monkeypatch.setattr(zprocess, "_merge", lambda law: calls[-1][1].append("merge") or real_merge(law))
    cfg = ScalingConfig(z0=0.5, beta_grid=(0.55, 0.7), n_grid=(12, 4, 8, 4))
    for cap in (2**12, 2**12 - 1):
        capped = replace(cfg, enum_cap=cap)
        assert [r.n for r in direct_curve(capped)] == [12, 12, 4, 4, 8, 8, 4, 4]
        converse_curve(capped)
    converse_curve(replace(cfg, rule=Rule.LOWER))
    channel_form(bec(0.3), 0.45, (2, 6, 10))
    grid, words = [4, 8, 12], list(range(1, 13))
    merged = [step for level in range(1, 12) for step in (level, "merge")] + [12]
    assert calls == [(grid, words), (grid, words), (grid, merged), (grid, merged), (grid, merged),
                     ([2, 6, 10], list(range(1, 11)))]


def test_exact_curves_sort_few_children_on_the_bench_grid(monkeypatch):
    # The benchmark's exact pair steps its 2^22 branch words unmerged, so it
    # sorts nothing.  Merging lumped atoms below the top level sorted
    # 1,642,124 children, and merging the top level too 3,052,740.
    sorted_children = []

    def counting(a, *args, **kwargs):
        sorted_children.append(a.size)
        return argsort(a, *args, **kwargs)

    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", counting)
    ns = (8, 12, 16, 20, 22)
    direct_curve(ScalingConfig(z0=0.5, beta_grid=(0.3, 0.45), n_grid=ns))
    converse_curve(ScalingConfig(z0=0.5, beta_grid=(0.55, 0.6), n_grid=ns))
    assert sum(sorted_children) == 0


def test_direct_curve_monotone_in_beta():
    cfg = ScalingConfig(z0=0.4, beta_grid=(0.2, 0.3, 0.4, 0.5), n_grid=(6, 10))
    rows = direct_curve(cfg)
    for n in (6, 10):
        ps = [r.probability for r in rows if r.n == n]
        assert all(b <= a + 1e-15 for a, b in zip(ps, ps[1:]))


def test_direct_curve_mc_agrees_with_exact():
    exact_cfg = ScalingConfig(z0=0.5, beta_grid=(0.45,), n_grid=(16,))
    mc_cfg = ScalingConfig(
        z0=0.5, beta_grid=(0.45,), n_grid=(16,), mode=Mode.MONTE_CARLO,
        trials=40_000, seed=3,
    )
    p_exact = direct_curve(exact_cfg)[0].probability
    row = direct_curve(mc_cfg)[0]
    assert abs(row.probability - p_exact) <= 3 * row.stderr


def test_direct_curve_mc_threads_deterministic():
    base = dict(z0=0.5, beta_grid=(0.45,), n_grid=(12, 20), mode=Mode.MONTE_CARLO,
                trials=50_000, seed=11)
    r1 = direct_curve(ScalingConfig(**base, threads=1))
    r2 = direct_curve(ScalingConfig(**base, threads=4))
    assert r1 == r2


def _mc_samples_checked_against_rows(cfg):
    """Oracle: every sampled log2 z of the same chunks, kept whole: EXTREMAL
    paths from _paths, LOWER ones by the closed form 2^(ones so far) log2 z0
    on the same coin columns.  Checks that each direct and converse row
    counts them exactly; returns them."""
    top = max(cfg.n_grid)

    def run_chunk(rng, size):
        if cfg.rule is Rule.EXTREMAL:
            return [a.copy() for a, _ in _paths(cfg.z0, top, rng, size, 0)]
        coins = [np.zeros(size, np.uint8)] + [rng.integers(0, 2, size=size, dtype=np.uint8)
                                              for _ in range(top)]
        with np.errstate(over="ignore"):  # -inf past -2^1024
            return np.ldexp(np.log2(cfg.z0), np.cumsum(coins, axis=0, dtype=np.int64))

    parts = _run_chunks(run_chunk, cfg.trials, cfg.seed)
    samples = {n: np.concatenate([p[n] for p in parts]) for n in cfg.n_grid}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # converse betas <= 1/2
        rows = direct_curve(cfg) + converse_curve(cfg)
    for i, r in enumerate(rows):
        a = samples[r.n]
        upper = i >= len(rows) // 2
        assert r.probability == np.count_nonzero(a >= r.threshold_log2 if upper
                                                 else a <= r.threshold_log2) / cfg.trials
    return samples


@pytest.mark.parametrize("rule", [Rule.EXTREMAL, Rule.LOWER])
def test_mc_curves_count_every_sample_against_each_threshold(rule):
    # From z0 = 1/2 every path starts on the threshold -1 (n = 0), and LOWER
    # paths also land exactly on -4 and -16 (n = 8) and on -8, -16 and -64
    # (n = 12), so samples tied with a threshold count in both tails.
    cfg = ScalingConfig(z0=0.5, beta_grid=(0.5, 1 / 3, 0.25, 0.5), n_grid=(12, 0, 8),
                        mode=Mode.MONTE_CARLO, trials=40_000, seed=4, rule=rule)
    samples = _mc_samples_checked_against_rows(cfg)
    ties = {n: sum(np.count_nonzero(samples[n] == -(2.0 ** (b * n))) for b in cfg.beta_grid)
            for n in cfg.n_grid}
    assert ties[0] and (rule is Rule.EXTREMAL or ties[8] and ties[12])
    # Curves step a lane only until its side of every later threshold is
    # settled.  From 1e-300 (log2 z about -997) every lane retires at step 0;
    # from 1 - 2^-52 and 0.3 lanes retire mid-run, low or high, and some never.
    for z0 in (1e-300, 1.0 - 2.0**-52, 0.3):
        _mc_samples_checked_against_rows(ScalingConfig(
            z0=z0, beta_grid=(0.05, 0.1, 0.3, 0.6), n_grid=(120, 0, 1, 7, 40, 64),
            mode=Mode.MONTE_CARLO, trials=3000, seed=9, rule=rule))


@pytest.mark.parametrize("size", [1, 7, 8, 9, 16, 17, 1696, 2**15])
def test_mc_curves_count_prefix_steps_exactly(size):
    # One chunk of size paths steps its 2^s coin prefixes, not its paths, up
    # to step d, 2^d <= size/8 (no prefix step below 16 paths).  Grids at 0,
    # 1, d, d + 1 and 40 are counted from prefixes, at the hand-over to
    # lanes and from lanes, for both tails.
    d = max(0, (size // 8).bit_length() - 1)
    for z0 in (0.5, 0.3, 1e-300, 1.0 - 2.0**-52):
        _mc_samples_checked_against_rows(ScalingConfig(
            z0=z0, beta_grid=(0.05, 0.3, 0.6), n_grid=(0, 1, d, d + 1, 40),
            mode=Mode.MONTE_CARLO, trials=size, seed=size))


def test_mc_curves_count_ties_of_retired_lanes():
    # From z0 = 2^-64 every lane retires at step 0 and then only doubles or
    # adds 1, so paths that square throughout land exactly on -2^7 (n = 1),
    # -2^8 (n = 2) and -2^14 (n = 8).
    cfg = ScalingConfig(z0=2.0**-64, beta_grid=(7.0, 4.0, 1.75), n_grid=(1, 2, 8),
                        mode=Mode.MONTE_CARLO, trials=3000, seed=2)
    samples = _mc_samples_checked_against_rows(cfg)
    for n, beta in ((1, 7.0), (2, 4.0), (8, 1.75)):
        assert np.count_nonzero(samples[n] == -(2.0 ** (beta * n)))


def test_mc_curves_step_lanes_above_the_low_edge():
    # From z0 = 2^-33 a mirror step takes log2 z just below -32, where
    # adding 1 would land on it: a lane retired low above -53 - k would
    # count in the converse row at t = -32 (n = 1).  15 paths take no
    # prefix step, so step 1 is a lane step.
    cfg = ScalingConfig(z0=2.0**-33, beta_grid=(5.0,), n_grid=(1,), mode=Mode.MONTE_CARLO,
                        trials=15, seed=2)
    samples = _mc_samples_checked_against_rows(cfg)[1]
    assert np.count_nonzero((samples > -33.0) & (samples < -32.0)) >= 5


def test_mc_curves_count_samples_past_double_range():
    # At n = 2100 most LOWER paths have squared more than 1024 times, so
    # log2 z is -inf, below the threshold -2^1008 (about -2.7e303).
    cfg = ScalingConfig(z0=0.5, beta_grid=(0.48, 0.3), n_grid=(2100, 40),
                        mode=Mode.MONTE_CARLO, trials=300, seed=1, rule=Rule.LOWER)
    samples = _mc_samples_checked_against_rows(cfg)
    assert np.isneginf(samples[2100]).any() and not np.isneginf(samples[2100]).all()


def test_mc_curves_retire_lanes_high_by_the_exact_laws_margin():
    # On a converse grid to n = 40, many lanes pass the margin the exact laws
    # lump to -0.0 by at a step where the mirror image of the low-lane test
    # (log2(1 - z) < -53 - k and log2 z >= -2^-k) does not yet hold.  They
    # retire there, and the rows still count every path.
    cfg = ScalingConfig(z0=0.5, beta_grid=(0.55, 0.6), n_grid=(8, 40), mode=Mode.MONTE_CARLO,
                        trials=3000, seed=5)
    _mc_samples_checked_against_rows(cfg)
    cuts = {n: [-(2.0 ** (beta * n)) for beta in cfg.beta_grid] for n in cfg.n_grid}

    def run_chunk(rng, size):
        early = 0
        for s, (a, _) in enumerate(_paths(cfg.z0, 39, rng, size, 0)):
            k = 40 - s
            with np.errstate(divide="ignore"):  # log2(1 - z) is -inf at log2 z = -0.0
                c = np.log2(-np.expm1(a * math.log(2.0)))
            mirror = (c < -53.0 - k) & (a >= -(2.0 ** -k))
            early += np.count_nonzero((a > zprocess._margins(cuts, s, s + 1)[1]) & ~mirror)
        return early

    assert _run_chunks(run_chunk, cfg.trials, cfg.seed)[0] > cfg.trials // 10
    # From 2^-70 with thresholds -2^8 (n = 1) and -2^64 (n = 8), every lane is
    # at step 0 both below -53 - 8 and above the margin -2^7: it retires
    # high, once, and no row counts it twice.
    samples = _mc_samples_checked_against_rows(replace(
        cfg, z0=2.0**-70, beta_grid=(8.0,), n_grid=(1, 8)))
    assert (samples[8] > -(2.0**64)).all()


def test_lower_mc_curves_never_call_the_step_kernel(monkeypatch):
    # A LOWER lane keeps only log2 z from step 0; an EXTREMAL curve shows
    # that the patched kernel is the one the curves call.
    def refuse(*args):
        raise AssertionError("_step called")

    monkeypatch.setattr(zprocess, "_step", refuse)
    cfg = ScalingConfig(z0=0.3, beta_grid=(0.55, 0.7), n_grid=(12, 40), mode=Mode.MONTE_CARLO,
                        trials=3000, seed=2, rule=Rule.LOWER)
    direct_curve(cfg)
    converse_curve(cfg)
    with pytest.raises(AssertionError, match="_step called"):
        direct_curve(replace(cfg, rule=Rule.EXTREMAL))


def test_mc_curves_step_few_lanes_on_the_bench_grid(monkeypatch):
    # The benchmark's Monte Carlo pair steps 553,754 lanes through the
    # kernel with coin prefixes; stepping every lane until it retires would
    # take 2,529,511.  Lanes retire high by the margin they always had.
    lanes = []

    def counting(a, coins):
        lanes.append(a.size)
        return _step(a, coins)

    monkeypatch.setattr(zprocess, "_step", counting)
    ns = (8, 12, 16, 20, 22, 30, 40)
    mc = dict(z0=0.5, n_grid=ns, mode=Mode.MONTE_CARLO, trials=100_000)
    direct_curve(ScalingConfig(beta_grid=(0.3, 0.45), seed=1, **mc))
    converse_curve(ScalingConfig(beta_grid=(0.55, 0.6), seed=2, **mc))
    assert sum(lanes) == 553_754


def test_direct_curve_lower_rule_limit_is_one():
    cfg = ScalingConfig(z0=0.5, beta_grid=(0.45,), n_grid=(4,), rule=Rule.LOWER)
    assert direct_curve(cfg)[0].bound == 1.0


# ---------------------------------------------------------------------------
# converse curve
# ---------------------------------------------------------------------------

def test_converse_bound_column_is_exact_binomial():
    cfg = ScalingConfig(z0=0.5, beta_grid=(0.55,), n_grid=(10,))
    row = converse_curve(cfg)[0]
    assert row.bound == 638 / 1024
    assert row.bound == converse_binomial(0.5, 10, 0.55)


@pytest.mark.parametrize("z0", [0.5, 0.3, 1e-300])
def test_lower_converse_exact_rows_match_the_binomial_sum_past_53_steps(z0):
    # The LOWER converse row is the binomial sum that the bound column
    # rounds once from its exact Fraction.  Past n = 53 the path counts
    # round, so the row may move in the last bits, by at most n 2^-52.
    cfg = ScalingConfig(z0=z0, beta_grid=(0.55, 0.6, 0.7, 0.9), n_grid=(60, 100, 400, 1023),
                        rule=Rule.LOWER)
    for row in converse_curve(cfg):
        assert row.bound == converse_binomial(z0, row.n, row.beta) > 0.0
        assert abs(row.probability - row.bound) <= row.n * 2.0**-52 * row.bound


def test_converse_empirical_dominates_bound():
    cfg = ScalingConfig(
        z0=0.5, beta_grid=(0.55, 0.7), n_grid=(10, 20, 40), mode=Mode.MONTE_CARLO,
        trials=30_000, seed=5,
    )
    for row in converse_curve(cfg):
        assert row.probability >= row.bound - 3 * max(row.stderr, 1e-12)


def test_converse_lower_rule_matches_binomial_in_distribution():
    # The hold-on-zero process hits the binomial identity exactly; Monte
    # Carlo over it must straddle the closed form.
    cfg = ScalingConfig(
        z0=0.5, beta_grid=(0.55,), n_grid=(10,), mode=Mode.MONTE_CARLO,
        trials=100_000, seed=2, rule=Rule.LOWER,
    )
    row = converse_curve(cfg)[0]
    assert abs(row.probability - row.bound) <= 3 * row.stderr


def test_converse_exact_lower_rule_equals_binomial():
    # Below 2^-1024, 1/z0 is inf; the shift log2(-log2 z0) stays finite.
    for z0, beta, ns in [(0.5, 0.55, (8, 10, 14)), (5e-324, 0.6, (16, 20, 24)),
                         (1e-310, 0.6, (16, 20, 24))]:
        cfg = ScalingConfig(z0=z0, beta_grid=(beta,), n_grid=ns, rule=Rule.LOWER)
        for row in converse_curve(cfg):
            assert row.probability == pytest.approx(row.bound, abs=1e-12)


def test_converse_extremal_dominates_lower_pointwise():
    ext = exact_distribution(0.5, 16, Rule.EXTREMAL)
    low = exact_distribution(0.5, 16, Rule.LOWER)
    for t in np.linspace(-200.0, -0.5, 40):
        assert ext.sf_at_log2(t) >= low.sf_at_log2(t) - 1e-12


def test_converse_small_beta_flagged():
    cfg = ScalingConfig(z0=0.5, beta_grid=(0.45,), n_grid=(4,))
    with pytest.warns(UserWarning, match="beta > 1/2"):
        converse_curve(cfg)


def test_converse_probability_climbs_toward_one():
    # The tail probability rises toward 1 with n for beta > 1/2; convergence
    # is CLT-slow (about 0.91 at n=60), so only the monotone climb is
    # asserted, not closeness to the limit.
    cfg = ScalingConfig(
        z0=0.5, beta_grid=(0.55,), n_grid=(10, 20, 40, 60), mode=Mode.MONTE_CARLO,
        trials=50_000, seed=3,
    )
    rows = converse_curve(cfg)
    ps = [r.probability for r in rows]
    assert all(b >= a - 3 * rows[1].stderr for a, b in zip(ps, ps[1:]))
    assert ps[-1] > ps[0]
    assert ps[-1] <= 1.0


# ---------------------------------------------------------------------------
# channel-form curve
# ---------------------------------------------------------------------------

def test_channel_form_bec_boundary():
    rows = channel_form(bec(0.3), 0.45, (0,))
    assert rows[0].probability == 1.0  # Z0 = 0.3 <= 2^-1
    assert rows[0].bound == pytest.approx(0.7, abs=1e-12)


def test_channel_form_bec_matches_extremal_distribution():
    rows = channel_form(bec(0.3), 0.45, (2, 6, 10))
    for r in rows:
        dist = exact_distribution(0.3, r.n, Rule.EXTREMAL)
        assert r.probability == dist.cdf_at_log2(-(2.0 ** (0.45 * r.n)))


def test_channel_form_general_dmc_small_n():
    rows = channel_form(bsc(0.11), 0.45, (0, 1, 2, 3))
    assert [r.n for r in rows] == [0, 1, 2, 3]
    assert rows[0].bound == pytest.approx(0.500084041835472, abs=1e-9)


def test_channel_form_bec_trend_toward_capacity():
    # The curve climbs toward the reference line I(W) = 0.7 (small-n wiggle
    # is real, so the check is last-over-first on a wide grid).
    rows = channel_form(bec(0.3), 0.45, (8, 12, 16, 20, 24))
    ps = [r.probability for r in rows]
    assert ps[-1] > ps[0]
    assert all(r.bound == pytest.approx(0.7, abs=1e-12) for r in rows)
    assert ps[-1] < 0.7


def test_channel_form_rejects_general_dmc_beyond_cap():
    with pytest.raises(ValueError, match="capped at n=4"):
        channel_form(bsc(0.11), 0.45, (5,))


def test_channel_form_rejects_general_dmc_over_the_alphabet_cap():
    # Three outputs with distinct likelihood ratios grow to 850 merged
    # outputs at level 3, whose transform needs 1,445,000 symbols: level 4
    # cannot be synthesized, and no flag of any caller raises that cap.
    ch = Channel([[0.5, 0.1], [0.3, 0.3], [0.2, 0.6]])
    assert len(channel_form(ch, 0.4, (3,))) == 1
    with pytest.raises(ValueError, match="level 4: transform of a 850-output channel"):
        channel_form(ch, 0.4, (4,))


def test_threshold_out_of_double_range_is_rejected():
    # beta * n = 1050: 2^(beta n) overflows a double, at any channel or mode.
    with pytest.raises(ValueError, match="beta=0.5, n=2100"):
        channel_form(bec(0.0), 0.5, (2100,))
    with pytest.raises(ValueError, match="beta=0.5, n=2100"):
        ScalingConfig(z0=0.5, beta_grid=(0.5,), n_grid=(2100,), mode=Mode.MONTE_CARLO)
    assert channel_form(bec(0.0), 0.5, (2046,))[0].threshold_log2 == -(2.0**1023)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_beta_is_rejected(bad):
    # Every grid entry is checked, not only the largest (max() skips a NaN).
    for betas in ((bad,), (0.3, bad), (bad, 0.3)):
        for mode in Mode:
            with pytest.raises(ValueError, match="beta must be finite and positive"):
                ScalingConfig(z0=0.5, beta_grid=betas, n_grid=(0, 8), mode=mode)
    for channel in (bec(0.3), bec(0.0), bsc(0.11)):
        with pytest.raises(ValueError, match="beta must be finite and positive"):
            channel_form(channel, bad, (4, 0))
    with pytest.raises(ValueError, match="beta must be finite and positive"):
        converse_binomial(0.5, 8, bad)


@pytest.mark.parametrize("probs, message", [
    ([[math.nan, 0.5], [1.0, 0.5]], r"W\(y\|0\) = nan is not a finite number"),
    ([[2.0, 0.0], [-1.0, 1.0]], r"W\(y\|0\) = 2.0 is outside \[0, 1\]"),
], ids=["nan", "outside-unit"])
def test_channel_form_refuses_an_invalid_channel(probs, message):
    # Unchecked, these gave rows with bound nan and inf.
    with pytest.raises(ValueError, match=message):
        channel_form(Channel(probs), 0.4, (0, 2))


def test_channel_form_bec_beyond_enum_cap_names_the_flag(monkeypatch):
    monkeypatch.setattr(scaling, "DEFAULT_ENUM_CAP", 1000)
    with pytest.raises(ResourceCapError) as info:
        channel_form(bec(0.3), 0.4, (6, 30, 12))
    assert info.value.flag == "--enum-cap"


@pytest.mark.parametrize("eps, prob", [(0.0, 1.0), (1.0, 0.0)])
def test_channel_form_degenerate_bec_is_exact_at_any_depth(eps, prob):
    # Z_n stays at eps for BEC(0) and BEC(1), so every row is exact; no
    # synthesized-channel cap applies and no log2(0) warning is emitted.
    ns = (0, 3, 5, 12, 30)
    rows = channel_form(bec(eps), 0.4, ns)
    assert [r.n for r in rows] == list(ns)
    assert all(r.probability == prob and r.bound == prob for r in rows)
    assert all(r.stderr == 0.0 for r in rows)


def _synthesized_log2_z(channel, n):
    with np.errstate(divide="ignore"):  # Z = 0 is log2 Z = -inf
        return np.log2([bhattacharyya(ch) for ch in synthesized_channels(channel, n)])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_channel_form_rows_count_the_synthesized_channels(seed):
    # Oracle: the fraction of the 2^n synthesized channels whose log2 Z is
    # at or below the row's threshold, as a Python float (rows print by repr).
    channel = random_channel(np.random.default_rng(seed), 4)
    assume(as_bec_eps(channel) is None)
    for row in channel_form(channel, 0.4, (0, 1, 2, 3)):
        assert type(row.probability) is float
        assert row.probability == np.mean(_synthesized_log2_z(channel, row.n) <= row.threshold_log2)


def test_channel_form_counts_an_underflowed_z_below_every_threshold():
    # Z = 1.7e-40 is not erasure-like; five of the sixteen synthesized Z at
    # n = 4 underflow to 0, which counts as log2 Z = -inf, with no log2(0)
    # warning (an error under the suite's filterwarnings).  At beta = 2.5
    # the n = 4 threshold is 2^-1024, which only the zeros reach.
    ch = Channel([[1 - 1e-40, 0.0], [0.0, 1 - 3e-40], [1e-40, 3e-40]])
    assert as_bec_eps(ch) is None
    assert [r.probability for r in channel_form(ch, 0.4, (3, 4))] == [1.0, 1.0]
    rows = channel_form(ch, 2.5, (3, 4))
    assert [r.probability for r in rows] == [7 / 8, 5 / 16]
    for r in rows:
        assert r.probability == np.mean(_synthesized_log2_z(ch, r.n) <= r.threshold_log2)


def test_synthesized_channels_identities():
    # Every synthesized channel satisfies the capacity/reliability
    # inequalities and each level conserves total capacity.
    w = bsc(0.11)
    level = [w]
    total = 2 ** 0 * symmetric_capacity(w)
    for n in range(1, 4):
        level = synthesized_channels(w, n)
        params = [(symmetric_capacity(ch), bhattacharyya(ch)) for ch in level]
        for i, z in params:
            assert i ** 2 + z ** 2 <= 1 + 1e-9
            assert i + z >= 1 - 1e-9
        assert sum(i for i, _ in params) == pytest.approx(
            2 ** n * symmetric_capacity(w), abs=1e-9
        )


def test_synthesized_channels_are_monotone_under_the_partial_order(rng):
    # No move of the partial order raises the Bhattacharyya value of a
    # synthesized channel.  Each level merges outputs whose likelihood
    # ratios agree within 1e-12, so Z differences below that are not
    # resolved.  Synthesis stops at the transform's alphabet cap.
    for _ in range(6):
        channel = random_channel(rng, 3)
        checked = 0
        for n in range(6):
            try:
                chans = synthesized_channels(channel, n)
            except ValueError:
                break
            assert order_violations([bhattacharyya(ch) for ch in chans], tol=1e-12) == 0
            checked += 1
        assert checked >= 5  # n = 0..4 at least


def test_synthesized_channels_keep_z_of_exact_ratio_merging():
    # Merging only symbols of equal likelihood ratio (tol 0) changes no Z; the
    # default tolerance must agree on every channel, including the nearly
    # noiseless ones whose posteriors sit within 1e-12 of 0 and 1.
    merged = synthesized_channels(bsc(0.11), 4)
    exact = [merge_equivalent_outputs(bsc(0.11), 0.0)]
    for _ in range(4):
        pairs = map(polar_transform, exact)
        exact = [merge_equivalent_outputs(ch, 0.0) for p in pairs for ch in (p.minus, p.plus)]
    assert len(exact) == len(merged) == 16
    for a, b in zip(merged, exact):
        assert abs(bhattacharyya(a) - bhattacharyya(b)) <= 1e-15


# ---------------------------------------------------------------------------
# bootstrap diagnostics
# ---------------------------------------------------------------------------

def test_bootstrap_config_layout():
    cfg = BootstrapConfig(n=100, beta=0.4)
    assert (cfg.m, cfg.a_n, cfg.k, cfg.tail_size) == (32, 10, 6, 8)
    assert cfg.telescope_end == 92
    assert cfg.telescope_sound


def test_bootstrap_partition_is_never_empty():
    # n - ceil(n^(3/4)) >= ceil(sqrt(n)) from n = 16 on, so k >= 1.
    assert all(BootstrapConfig(n=n, beta=0.1).k >= 1 for n in range(16, 4097))


def test_binary_entropy_domain():
    assert binary_entropy(0.0) == 0.0
    with pytest.raises(ValueError, match=r"^entropy argument must lie in \[0, 1\], got 1.5$"):
        binary_entropy(1.5)


def test_bootstrap_entropy_bound_value():
    # Direct entropy evaluation oracle: H(0.4) = 0.970951 and the a_n = 8
    # interval bound 2^(-8 (1 - H)) = 0.8513.
    assert binary_entropy(0.4) == pytest.approx(0.9709505944546686, abs=1e-12)
    assert binary_entropy(0.5) == 1.0
    cfg64 = BootstrapConfig(n=64, beta=0.4)
    assert cfg64.a_n == 8
    assert cfg64.entropy_bound == pytest.approx(0.8512204732994569, abs=1e-10)


def test_bootstrap_vacuous_at_half():
    cfg = BootstrapConfig(n=64, beta=0.5)
    assert cfg.entropy_bound == 1.0
    rep = bootstrap_diagnostic(cfg, 500, seed=1)
    assert rep.to_json_dict()["entropy_bound_vacuous"] is True


_BOOTSTRAP_KEYS = (
    "n", "beta", "z0", "rho", "m", "a_n", "k", "tail_size", "telescope_end", "telescope_sound",
    "trials", "seed", "entropy_bound", "entropy_bound_vacuous", "interval_freqs", "g_freq",
    "g_lower_bound", "qualifying_fraction", "log_bound_checked", "log_bound_violations",
    "log_bound_vacuous", "asymptotic_violations", "domination_violations",
)


@pytest.mark.parametrize("n, beta, tail, vacuous", [(100, 0.4, True, False), (16, 0.4, False, False),
                                                    (16, 0.5, False, True)])
def test_bootstrap_json_keys_are_read_off_the_dataclasses(n, beta, tail, vacuous):
    # The JSON schema, pinned: the config's fields, its layout, trials and
    # seed, the entropy bound, then the report's tallies, each equal to its
    # attribute.
    cfg = BootstrapConfig(n=n, beta=beta)
    assert (cfg.tail_size > 0, cfg.entropy_bound >= 1.0) == (tail, vacuous)
    rep = bootstrap_diagnostic(cfg, 300, seed=5)
    data = rep.to_json_dict()
    assert tuple(data) == _BOOTSTRAP_KEYS
    assert data.pop("entropy_bound_vacuous") is vacuous
    for key, value in data.items():
        assert value == getattr(cfg if hasattr(cfg, key) else rep, key), key


def test_bootstrap_requires_n16():
    with pytest.raises(ValueError):
        BootstrapConfig(n=15, beta=0.4)


def test_bootstrap_rejects_bound_exponent_past_double_range():
    # n=2600 keeps (n - m) beta = 894 inside double range; n=3000 gives 1037.6.
    assert BootstrapConfig(n=2600, beta=0.4).m == 365
    with pytest.raises(ValueError, match=r"n=3000, m=406: \(n - m\) \* beta must stay below 1024"):
        BootstrapConfig(n=3000, beta=0.4)


def test_bootstrap_past_double_range_counts_at_minus_infinity():
    # At n=2600 the shadows, the bound products (about -2^(894 + 180)) and
    # the final log2 Z_n (about -2^1300) all leave double range, and -inf is
    # their value: the suite turns an overflow warning into an error.  The
    # true log2 Z lies far below both bounds and below the shadow, so every
    # violation count is 0, which -inf against -inf gives.
    cfg = BootstrapConfig(n=2600, beta=0.4)
    assert cfg.telescope_sound
    rep = bootstrap_diagnostic(cfg, 2000, seed=3)
    assert rep.log_bound_checked > 0
    assert rep.log_bound_violations == rep.asymptotic_violations == rep.domination_violations == 0


def test_bootstrap_diagnostic_run():
    cfg = BootstrapConfig(n=100, beta=0.4)
    rep = bootstrap_diagnostic(cfg, 4000, seed=9)
    assert len(rep.interval_freqs) == cfg.k
    sigma = math.sqrt(0.25 / rep.trials)
    exact_ej = sum(math.comb(10, j) for j in range(4)) / 1024  # P(Bin(10,1/2) < 4)
    for f in rep.interval_freqs:
        assert abs(f - exact_ej) <= 4 * math.sqrt(exact_ej * (1 - exact_ej) / rep.trials)
        assert f <= cfg.entropy_bound + 3 * sigma
    assert rep.g_freq >= rep.g_lower_bound - 3 * sigma
    assert rep.log_bound_violations == 0
    assert rep.domination_violations == 0
    assert rep.log_bound_checked > 0


def test_bootstrap_domination_holds_across_seeds():
    cfg = BootstrapConfig(n=40, beta=0.4)
    for seed in range(5):
        rep = bootstrap_diagnostic(cfg, 2000, seed=seed)
        assert rep.domination_violations == 0
        assert rep.log_bound_violations == 0


def test_bootstrap_tail_free_config_asymptotic_form_agrees():
    cfg = BootstrapConfig(n=16, beta=0.4)
    assert cfg.tail_size == 0
    rep = bootstrap_diagnostic(cfg, 5000, seed=3)
    assert rep.log_bound_violations == 0
    assert rep.asymptotic_violations == 0


@pytest.mark.parametrize(
    "cfg", [BootstrapConfig(n=40, beta=0.4), BootstrapConfig(n=16, beta=0.45, z0=0.3, rho=0.8)]
)
def test_bootstrap_tallies_match_whole_sample_reference(cfg):
    # Reference: the coins of both chunks (2^15 and 3000 paths) replayed from
    # their generators into one (trials, n) matrix, then every statistic
    # computed over the whole sample at once.
    seed, sizes = 6, (2**15, 3000)
    trials = sum(sizes)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(len(sizes))]
    bits = np.concatenate([
        np.stack([rng.integers(0, 2, size=size, dtype=np.uint8) for _ in range(cfg.n)], axis=1)
        for rng, size in zip(rngs, sizes)
    ])
    a = np.full(trials, np.log2(cfg.z0))
    states = [a.copy()]
    for i in range(cfg.n):
        states.append(_step(a, bits[:, i]).copy())
    a_m, a_end = states[cfg.m], states[cfg.telescope_end]
    shadow, dom = a_m, 0
    for i in range(cfg.m, cfg.n):
        shadow = np.where(bits[:, i] == 1, 2.0 * shadow, shadow + 1.0)
        dom += int(np.sum(states[i + 1] > shadow))
    blocks = bits[:, cfg.m : cfg.telescope_end].reshape(trials, cfg.k, cfg.a_n)
    e_events = blocks.sum(axis=2) < cfg.a_n * cfg.beta
    qual = ~e_events.any(axis=1) & (a_m <= cfg.m * math.log2(cfg.rho))
    cushion = a_m + cfg.a_n
    rep = bootstrap_diagnostic(cfg, trials, seed)
    assert rep.interval_freqs == tuple(e_events.mean(axis=0))
    assert rep.g_freq == float(np.mean(~e_events.any(axis=1)))
    assert rep.log_bound_checked == int(qual.sum())
    tel, asy = cfg.telescope_end - cfg.m, cfg.n - cfg.m
    assert rep.log_bound_violations == int(np.sum(qual & (a_end > 2.0 ** (tel * cfg.beta) * cushion)))
    assert rep.asymptotic_violations == int(np.sum(qual & (a > 2.0 ** (asy * cfg.beta) * cushion)))
    assert rep.domination_violations == dom


def test_monte_carlo_readers_equal_their_start_zero_paths(monkeypatch):
    # _paths swapped for the start-0 sampler with its first start yields
    # dropped: q_halfmoment and bootstrap_diagnostic return equal results.
    # 2^15 + 1000 trials run chunks with d = 12 and d = 6, so bootstrap at
    # n = 16 (m = 8) reads from a step past one chunk's prefix phase and
    # within the other's, and q_halfmoment reads at n = 5 and n = 16.
    trials, real = 2**15 + 1000, zprocess._paths
    cases = [(zprocess.q_halfmoment, (0.5, 16, trials, 3)),
             (zprocess.q_halfmoment, (0.3, 5, trials, 1)),
             (bootstrap_diagnostic, (BootstrapConfig(n=16, beta=0.45, z0=0.3, rho=0.8), trials, 4)),
             (bootstrap_diagnostic, (BootstrapConfig(n=40, beta=0.4), trials, 2))]
    got = [call(*args) for call, args in cases]

    def from_step_zero(z0, n, rng, size, start):
        return itertools.islice(real(z0, n, rng, size, 0), start, None)

    monkeypatch.setattr(zprocess, "_paths", from_step_zero)
    monkeypatch.setattr(scaling, "_paths", from_step_zero)
    assert got == [call(*args) for call, args in cases]


def test_bootstrap_memory_stays_within_chunks():
    # 2^17 paths run as four 2^15-path chunks, each reduced to integer
    # tallies; a whole-sample coin matrix and float arrays take about 24 MB.
    cfg = BootstrapConfig(n=64, beta=0.4)
    tracemalloc.start()
    try:
        bootstrap_diagnostic(cfg, 2**17, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("curve, betas, parent_peak", [
    (direct_curve, (0.3, 0.45), 20_500_000),
    (converse_curve, (0.55, 0.6), 8_430_000),
])
def test_merged_exact_curve_memory_stays_under_the_sentinel_merge(curve, betas, parent_peak):
    # One below 2^22, the EXTREMAL cap makes the curves merge atoms each
    # level.  Storing the lumped children at -inf and -0.0 and merging them
    # like any atom peaked at parent_peak traced bytes (numpy 2.4, CPython
    # 3.11); dropping them into a tally before the merge keeps under it.
    cfg = ScalingConfig(z0=0.5, beta_grid=betas, n_grid=(8, 12, 16, 20, 22), enum_cap=2**22 - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curve(cfg)
        tracemalloc.start()
        try:
            curve(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < parent_peak


def test_mc_curve_memory_stays_within_chunks():
    # 2^19 paths run as sixteen 2^15-path chunks, each reduced to one count
    # per grid n and threshold; keeping every sampled log2 z for the seven
    # grid values takes about 60 MB.
    cfg = ScalingConfig(z0=0.5, beta_grid=(0.3, 0.45), n_grid=(8, 12, 16, 20, 22, 30, 40),
                        mode=Mode.MONTE_CARLO, trials=2**19, seed=1)
    tracemalloc.start()
    try:
        direct_curve(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
