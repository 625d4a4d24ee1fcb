"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Each criterion pins its tolerances here; nothing is deferred to
later calibration.
"""

import itertools
import math
import resource
import time

import numpy as np

import polarkit as pk
from polarkit.scaling import BootstrapConfig, Mode, ScalingConfig
from polarkit.zprocess import Rule

from conftest import random_channel


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. transform identities over random channels
# ---------------------------------------------------------------------------

def test_criterion_01_transform_identities():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = {"cons": 0.0, "zsq": 0.0, "sandwich": 0.0, "iz": 0.0}
    for _ in range(200):
        ch = random_channel(rng, max_outputs=16)
        i0, z0 = pk.symmetric_capacity(ch), pk.bhattacharyya(ch)
        pair = pk.polar_transform(ch)
        im, zm = pk.symmetric_capacity(pair.minus), pk.bhattacharyya(pair.minus)
        ip, zp = pk.symmetric_capacity(pair.plus), pk.bhattacharyya(pair.plus)
        worst["cons"] = max(worst["cons"], abs(im + ip - 2 * i0))
        worst["zsq"] = max(worst["zsq"], abs(zp - z0 * z0))
        worst["sandwich"] = max(
            worst["sandwich"], z0 - zm, zm - (2 * z0 - z0 * z0)
        )
        for i, z in ((i0, z0), (im, zm), (ip, zp)):
            worst["iz"] = max(worst["iz"], i * i + z * z - 1.0, 1.0 - (i + z))
    elapsed = time.perf_counter() - t0
    ok = (
        worst["cons"] <= 1e-9
        and worst["zsq"] <= 1e-12
        and worst["sandwich"] <= 1e-12
        and worst["iz"] <= 1e-9
        and elapsed < 5.0
    )
    report(
        "criterion-01 transform identities",
        ok,
        f"200 channels, worst errors {worst}, {elapsed:.2f}s (< 5s)",
    )


# ---------------------------------------------------------------------------
# 2. BEC closed forms against the explicit matrix transform
# ---------------------------------------------------------------------------

def test_criterion_02_bec_closed_form_vs_matrix():
    t0 = time.perf_counter()
    worst = 0.0
    for eps10 in range(1, 10):
        eps = eps10 / 10.0
        level = [(pk.bec(eps), eps)]
        for _ in range(2):
            nxt = []
            for ch, e in level:
                pair = pk.polar_transform(ch)
                nxt.append((pk.merge_equivalent_outputs(pair.minus, 1e-12), 2 * e - e * e))
                nxt.append((pk.merge_equivalent_outputs(pair.plus, 1e-12), e * e))
            level = nxt
            for ch, e in level:
                worst = max(
                    worst,
                    abs(pk.bhattacharyya(ch) - e),
                    abs(pk.symmetric_capacity(ch) - (1 - e)),
                )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    report(
        "criterion-02 BEC closed form vs matrix",
        ok,
        f"eps grid 0.1..0.9, two levels, worst |error| {worst:.2e}, {elapsed:.2f}s (< 1s)",
    )


# ---------------------------------------------------------------------------
# 3. martingale checks on exact distributions
# ---------------------------------------------------------------------------

def test_criterion_03_martingale_checks():
    worst = 0.0
    lower_ok = True
    for z0 in (0.25, 0.5, 0.75):
        prev_low = None
        for n in range(13):
            worst = max(
                worst, abs(pk.exact_distribution(z0, n, Rule.EXTREMAL).mean() - z0)
            )
            low = pk.exact_distribution(z0, n, Rule.LOWER).mean()
            if prev_low is not None and low > prev_low + 1e-12:
                lower_ok = False
            prev_low = low
    ok = worst <= 1e-12 and lower_ok
    report(
        "criterion-03 martingale checks",
        ok,
        f"z0 in {{0.25,0.5,0.75}}, n <= 12, worst |E[Z_n]-z0| {worst:.2e}, "
        f"LOWER means nonincreasing: {lower_ok}",
    )


# ---------------------------------------------------------------------------
# 4. half-moment supermartingale bound, Monte Carlo
# ---------------------------------------------------------------------------

def test_criterion_04_halfmoment_bound():
    t0 = time.perf_counter()
    details = []
    ok = True
    for n in (5, 10, 20, 40):
        est, err = pk.q_halfmoment(0.5, n, 100_000, seed=11)
        bound = pk.hajek_bound(n)
        ok &= est <= bound + 3 * err
        details.append(f"n={n}: {est:.4g} <= {bound:.4g}+3*{err:.1g}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(
        "criterion-04 half-moment bound",
        ok,
        "; ".join(details) + f"; {elapsed:.1f}s (< 30s)",
    )


# ---------------------------------------------------------------------------
# 5. converse identity (exact binomial) and its trend
# ---------------------------------------------------------------------------

def test_criterion_05_converse_identity():
    exact = pk.converse_binomial(0.5, 10, 0.55)
    cfg = ScalingConfig(
        z0=0.5, beta_grid=(0.55,), n_grid=(10,), mode=Mode.MONTE_CARLO,
        trials=100_000, seed=2, rule=Rule.LOWER,
    )
    row = pk.converse_curve(cfg)[0]
    dev = abs(row.probability - exact)
    ok = exact == 638 / 1024 and dev <= 3 * row.stderr
    report(
        "criterion-05a converse identity",
        ok,
        f"exact {exact} = 638/1024, MC {row.probability} (dev {dev / row.stderr:.2f} sigma)",
    )


def test_criterion_05_trend_pinned_value():
    # This check pins the target "exact binomial value >= 0.99 at n = 200"
    # (beta = 0.55, z0 = 0.5).  The exact sum is P(Bin(200,1/2) <= 110)
    # = 0.9313... and the 0.99 level is first reached near n = 531, so the
    # assertion fails and reports the true numbers; it is not loosened to
    # pass.  The monotone climb toward 1 itself is real (criterion-05a and
    # the module tests).
    value = pk.converse_binomial(0.5, 200, 0.55)
    first_hit = next(
        (n for n in range(200, 700) if pk.converse_binomial(0.5, n, 0.55) >= 0.99),
        None,
    )
    report(
        "criterion-05b converse trend (pinned target)",
        value >= 0.99,
        f"exact binomial at n=200 is {value:.10f} (< 0.99); first n with value "
        f">= 0.99 is {first_hit}",
    )


# ---------------------------------------------------------------------------
# 6. direct trend at beta < 1/2
# ---------------------------------------------------------------------------

def test_criterion_06_direct_trend():
    t0 = time.perf_counter()
    cfg = ScalingConfig(z0=0.5, beta_grid=(0.45,), n_grid=(8, 12, 16, 20, 24))
    rows = pk.direct_curve(cfg)
    elapsed = time.perf_counter() - t0
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    ps = [r.probability for r in rows]
    ok = ps[-1] > ps[0] and ps[-1] - ps[0] >= 0.0 and elapsed < 60.0 and peak_gb < 2.0
    report(
        "criterion-06 direct trend",
        ok,
        f"P over n=(8,12,16,20,24): {[f'{p:.4f}' for p in ps]}; n=24 value "
        f"{ps[-1]:.4f} reported against limit 0.5 (no closeness required); "
        f"{elapsed:.1f}s (< 60s), peak rss {peak_gb:.2f} GB (< 2 GB)",
    )


# ---------------------------------------------------------------------------
# 7. polar code block error bound
# ---------------------------------------------------------------------------

def test_criterion_07_polar_code_bound():
    # Rate chosen from the parametric bound with gamma = 1e-2 / N: every
    # index with Z <= gamma carries data, so both bound forms sit at or
    # under 1e-2 (N*gamma <= 1e-2 and the info-set Z sum is rate * 1e-2).
    # The Wilson check runs against N*gamma; the Z-sum form is so tight for
    # the BEC (block error is 95-99% of it at every rate) that a 1e5-trial
    # upper limit cannot robustly sit under it, so it is verified in the
    # non-refutation direction instead: the interval must not exclude it.
    t0 = time.perf_counter()
    n, eps, big_n = 10, 0.4, 1024
    gamma_star = 1e-2 / big_n
    z = pk.bec_z_spectrum(eps, n)
    k = int(np.sum(z <= gamma_star))
    spec = pk.construct(eps, n, k / big_n)
    eq8_bound = big_n * spec.gamma
    result = pk.simulate_bler(spec, eps, 100_000, seed=1)
    elapsed = time.perf_counter() - t0
    ok = (
        spec.union_bound <= 1e-2
        and eq8_bound <= 1e-2
        and result.ci_high <= eq8_bound
        and result.ci_low <= spec.union_bound
        and elapsed < 60.0
    )
    report(
        "criterion-07 polar code bound",
        ok,
        f"rate {spec.rate:.4f} (K={spec.k}), N*gamma {eq8_bound:.4g}, "
        f"Z-sum {spec.union_bound:.4g}, BLER {result.bler:.5f}, "
        f"wilson [{result.ci_low:.5f}, {result.ci_high:.5f}]; {elapsed:.0f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# 8. exhaustive small-code oracle
# ---------------------------------------------------------------------------

def test_criterion_08_exhaustive_small_code():
    # Independent oracle: a pattern is decodable iff the info rows of the
    # generator restricted to unerased columns keep full rank over GF(2).
    spec = pk.construct(0.5, 2, 0.25)
    g = np.array(
        [pk.encode(_all_info(2), _unit(4, i)) for i in range(4)], dtype=np.uint8
    )
    failing = 0
    for pattern in itertools.product((False, True), repeat=4):
        keep = ~np.array(pattern)
        sub = g[spec.info_set][:, keep]
        if _gf2_rank(sub) < spec.k:
            failing += 1
    exact = failing / 16.0
    result = pk.simulate_bler(spec, 0.5, 200_000, seed=0)
    ok = exact == 0.0625 and result.ci_low <= exact <= result.ci_high
    report(
        "criterion-08 exhaustive small-code oracle",
        ok,
        f"exact {exact} from 16 patterns, simulated {result.bler:.5f} in "
        f"[{result.ci_low:.5f}, {result.ci_high:.5f}]",
    )


def _all_info(n: int) -> pk.CodeSpec:
    big_n = 1 << n
    return pk.CodeSpec(
        n=n, eps=0.5, info_set=np.arange(big_n), z_values=pk.bec_z_spectrum(0.5, n),
    )


def _unit(n: int, i: int) -> np.ndarray:
    e = np.zeros(n, dtype=np.uint8)
    e[i] = 1
    return e


def _gf2_rank(m: np.ndarray) -> int:
    m = m.copy() % 2
    rank = 0
    for col in range(m.shape[1]):
        pivots = np.flatnonzero(m[rank:, col]) + rank
        if pivots.size == 0:
            continue
        m[[rank, pivots[0]]] = m[[pivots[0], rank]]
        hits = np.flatnonzero(m[:, col])
        m[hits[hits != rank]] ^= m[rank]
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


# ---------------------------------------------------------------------------
# 9. complexity witness
# ---------------------------------------------------------------------------

def test_criterion_09_complexity_witness():
    def encode_decode_seconds(n: int) -> float:
        spec = pk.construct(0.4, n, 0.5)
        msg = np.random.default_rng(0).integers(0, 2, spec.k).astype(np.uint8)
        t0 = time.perf_counter()
        cw = pk.encode(spec, msg)
        out = pk.sc_decode_bec(spec, cw.astype(np.int8))
        t1 = time.perf_counter()
        assert out is not None and np.array_equal(out, msg)
        return t1 - t0

    t16 = encode_decode_seconds(16)
    t20 = encode_decode_seconds(20)
    ratio = t20 / t16
    ideal = (2 ** 20 * 20) / (2 ** 16 * 16)  # = 20
    hard_ok = ratio <= 2.0 * ideal  # informational failure threshold at 2x
    soft_ok = ratio <= 1.5 * ideal
    detail = (
        f"t(2^16)={t16:.3f}s t(2^20)={t20:.3f}s ratio {ratio:.1f} vs "
        f"1.5x target {1.5 * ideal:.0f} / 2x threshold {2 * ideal:.0f}"
    )
    if not soft_ok:
        print(f"[acceptance] criterion-09 note: ratio above 1.5x target -- {detail}")
    report("criterion-09 complexity witness", hard_ok, detail)


# ---------------------------------------------------------------------------
# 10. samplewise domination suite
# ---------------------------------------------------------------------------

def test_criterion_10_domination_suite():
    rng = np.random.default_rng(12345)
    violations = 0
    for seed in range(1000):
        pair = np.sort(rng.uniform(0.02, 0.98, size=2))
        if not pk.domination_check(float(pair[0]), float(pair[1]), 40, seed=seed):
            violations += 1
    report(
        "criterion-10 domination suite",
        violations == 0,
        f"1000 seeds, n=40, random start pairs, {violations} violations",
    )


# ---------------------------------------------------------------------------
# 11. bootstrap diagnostics
# ---------------------------------------------------------------------------

def test_criterion_11_bootstrap_diagnostics():
    # The samplewise log bound is asserted at the last full-interval
    # boundary (exponent (k a_n) beta), where it is a finite-n theorem on
    # the no-bad-interval event; the tail block has no squaring guarantee,
    # so the asymptotic final-n form is reported but not asserted.
    cfg = BootstrapConfig(n=100, beta=0.4)
    rep = pk.bootstrap_diagnostic(cfg, 10_000, seed=4)
    sigma = [
        math.sqrt(max(f * (1 - f), 1e-12) / rep.trials) for f in rep.interval_freqs
    ]
    intervals_ok = all(
        f <= cfg.entropy_bound + 3 * s for f, s in zip(rep.interval_freqs, sigma)
    )
    g_ok = rep.g_freq >= rep.g_lower_bound - 3 * math.sqrt(0.25 / rep.trials)
    ok = (
        intervals_ok
        and g_ok
        and cfg.telescope_sound
        and rep.log_bound_violations == 0
        and rep.domination_violations == 0
        and rep.log_bound_checked > 0
    )
    report(
        "criterion-11 bootstrap diagnostics",
        ok,
        f"m={cfg.m} a_n={cfg.a_n} k={cfg.k} tail={cfg.tail_size}; interval freqs "
        f"{[f'{f:.3f}' for f in rep.interval_freqs]} <= bound {cfg.entropy_bound:.3f}+3s; "
        f"log bound: 0/{rep.log_bound_checked} violations at telescope end "
        f"(asymptotic final-n form: {rep.asymptotic_violations} tail-block "
        f"exceptions, informational); domination violations {rep.domination_violations}",
    )
