import io
import math

import numpy as np
import pytest

from polarkit import scaling
from polarkit.bdmc import bec, bsc, channel_params, symmetric_capacity
from polarkit.errors import ResourceCapError
from polarkit.scaling import (
    BootstrapConfig,
    Mode,
    ScalingConfig,
    binary_entropy,
    bootstrap_diagnostic,
    channel_form,
    converse_curve,
    direct_curve,
    gnuplot_script,
    rows_to_csv,
    synthesized_channels,
)
from polarkit.zprocess import Rule, converse_binomial, exact_distribution


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_grids():
    with pytest.raises(ValueError):
        ScalingConfig(z0=0.5, beta_grid=(), n_grid=(4,))
    with pytest.raises(ValueError):
        ScalingConfig(z0=0.5, beta_grid=(-0.1,), n_grid=(4,))
    with pytest.raises(ValueError):
        ScalingConfig(z0=1.5, beta_grid=(0.4,), n_grid=(4,))
    with pytest.raises(ValueError):
        ScalingConfig(z0=0.5, beta_grid=(0.4,), n_grid=(4,), rule=Rule.DOUBLING)


def test_config_exact_mode_respects_enum_cap():
    with pytest.raises(ResourceCapError):
        ScalingConfig(z0=0.5, beta_grid=(0.4,), n_grid=(30,), mode=Mode.EXACT)
    ScalingConfig(z0=0.5, beta_grid=(0.4,), n_grid=(30,), mode=Mode.MONTE_CARLO)


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
    # One enumeration to max(n_grid) serves every grid n of a curve.
    calls = []

    def counting(z0, ns, rule, cap):
        calls.append(sorted(ns))
        return real(z0, ns, rule, cap)

    real = scaling._exact_laws
    monkeypatch.setattr(scaling, "_exact_laws", counting)
    cfg = ScalingConfig(z0=0.5, beta_grid=(0.55, 0.7), n_grid=(12, 4, 8, 4))
    assert [r.n for r in direct_curve(cfg)] == [12, 12, 4, 4, 8, 8, 4, 4]
    converse_curve(cfg)
    channel_form(bec(0.3), 0.45, (2, 6, 10))
    assert calls == [[4, 4, 8, 12], [4, 4, 8, 12], [2, 6, 10]]


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
    cfg = ScalingConfig(z0=0.5, beta_grid=(0.55,), n_grid=(8, 10, 14), rule=Rule.LOWER)
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


def test_channel_form_bec_beyond_enum_cap_names_the_flag():
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


def test_synthesized_channels_identities():
    # Every synthesized channel satisfies the capacity/reliability
    # inequalities and each level conserves total capacity.
    w = bsc(0.11)
    level = [w]
    total = 2 ** 0 * symmetric_capacity(w)
    for n in range(1, 4):
        level = synthesized_channels(w, n)
        params = [channel_params(ch) for ch in level]
        for p in params:
            assert p.capacity ** 2 + p.bhattacharyya ** 2 <= 1 + 1e-9
            assert p.capacity + p.bhattacharyya >= 1 - 1e-9
        assert sum(p.capacity for p in params) == pytest.approx(
            2 ** n * symmetric_capacity(w), abs=1e-9
        )


def test_synthesized_channels_keep_z_of_exact_ratio_merging():
    # Merging only symbols of equal likelihood ratio (tol 0) changes no Z; the
    # default tolerance must agree on every channel, including the nearly
    # noiseless ones whose posteriors sit within 1e-12 of 0 and 1.
    merged = synthesized_channels(bsc(0.11), 4)
    exact = synthesized_channels(bsc(0.11), 4, merge_tol=0.0)
    for a, b in zip(merged, exact):
        assert abs(channel_params(a).bhattacharyya - channel_params(b).bhattacharyya) <= 1e-15


# ---------------------------------------------------------------------------
# bootstrap diagnostics
# ---------------------------------------------------------------------------

def test_bootstrap_config_layout():
    cfg = BootstrapConfig(n=100, beta=0.4)
    assert (cfg.m, cfg.a_n, cfg.k, cfg.tail_size) == (32, 10, 6, 8)
    assert cfg.telescope_end == 92
    assert cfg.telescope_sound
    blocks = cfg.intervals()
    assert blocks[0] == range(32, 42)
    assert blocks[-1] == range(82, 92)


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


def test_bootstrap_requires_n16():
    with pytest.raises(ValueError):
        BootstrapConfig(n=15, beta=0.4)


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


# ---------------------------------------------------------------------------
# emission helpers
# ---------------------------------------------------------------------------

def test_rows_to_csv_schema():
    cfg = ScalingConfig(z0=0.5, beta_grid=(0.45,), n_grid=(0, 4))
    buf = io.StringIO()
    rows_to_csv(direct_curve(cfg), buf, comment="direct z0=0.5")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# direct z0=0.5"
    assert lines[1] == "n,beta,threshold_log2,probability,bound,stderr"
    assert len(lines) == 4


def test_gnuplot_script_references_csv():
    script = gnuplot_script("curve.csv")
    assert "curve.csv" in script
    assert "plot" in script
