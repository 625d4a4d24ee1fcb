import itertools
import math
import os
import tracemalloc
import types
import warnings
from concurrent import futures
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarkit import zprocess
from polarkit.bdmc import bsc
from polarkit.errors import ResourceCapError
from polarkit.polarcode import bec_z_spectrum, construct
from polarkit.scaling import _check_grid, synthesized_channels
from polarkit.zprocess import (
    DEFAULT_ENUM_CAP,
    BranchWord,
    Rule,
    ZDistribution,
    ZState,
    _children_log2,
    _coin_rows,
    _depth,
    _exact_tail_counts,
    _levels,
    _margins,
    _paths,
    _prefixes,
    _run_chunks,
    _squared,
    _step,
    _tail_counts,
    _word_children,
    converse_binomial,
    domination_check,
    exact_distribution,
    f_rho,
    hajek_bound,
    iterate_values,
    q_halfmoment,
    sample_path,
    step,
    walk,
)

from conftest import chunk_paths, order_violations, prefix_coins, raw_coin_rows


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_step_extremal_square():
    s = step(ZState.from_value(0.3), 1, Rule.EXTREMAL)
    assert s.value == pytest.approx(0.09, abs=1e-15)


def test_step_extremal_mirror():
    s = step(ZState.from_value(0.3), 0, Rule.EXTREMAL)
    assert s.value == pytest.approx(0.51, abs=1e-15)


def test_step_lower_holds():
    s0 = ZState.from_value(0.3)
    assert step(s0, 0, Rule.LOWER) == s0
    assert step(s0, 1, Rule.LOWER).value == pytest.approx(0.09, abs=1e-15)


def test_step_doubling_exceeds_one():
    s = step(ZState.from_value(0.6), 0, Rule.DOUBLING)
    assert s.value == pytest.approx(1.2, abs=1e-12)
    assert math.isnan(s.log_1mz)


def test_step_doubling_next_to_one_has_no_finite_log_1mz():
    # 2^(-2e-20) rounds to 1, so log2(1 - z) is -inf, not a NaN or an error.
    assert step(ZState(-1e-20, -math.inf), 1, Rule.DOUBLING) == ZState(-2e-20, -math.inf)


def _squared_four_calls(a, c):
    """The squaring step as four numpy calls, with no early return."""
    a2 = 2.0 * a
    small = float(np.exp2(min(a, c)))
    c2 = c + (float(np.log1p(small)) / math.log(2.0) if a <= c else float(np.log2(2.0 - small)))
    return a2, zprocess._log2_1m_pow2(a2) if a2 <= c2 else c2


_EDGE_LOGS = [
    0.0, -0.0, -math.inf, math.inf, math.nan, 5e-324, -5e-324, -2.0**-1022, 1.0, 3.0,
    -0.5, *np.nextafter(-0.5, [-1.0, 0.0]).tolist(), -1.0, *np.nextafter(-1.0, [-2.0, 0.0]).tolist(),
    -1e-20, -53.0, -60.0, -1100.0, -1e308, -0.6942419136306174,  # log2 of the golden ratio's 0.618
]
_LOGS = st.one_of(st.sampled_from(_EDGE_LOGS), st.floats(-2.0, 0.0), st.floats())


@st.composite
def _log_pairs(draw):
    """(log2 z, log2(1 - z)) of some z in (0, 1), or any pair of logs."""
    if draw(st.booleans()):
        z = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        s = ZState.from_value(z)
        return s.log_z, s.log_1mz
    return draw(_LOGS), draw(_LOGS)


@settings(max_examples=600, deadline=None)
@given(_log_pairs())
def test_squared_returns_the_four_call_formula_bit_for_bit(pair):
    # Both ways round, as step squares z and, on the mirror, 1 - z; the bytes
    # tell -0.0 from 0.0 and compare NaNs.
    for a, c in (pair, pair[::-1]):
        with np.errstate(all="ignore"):
            got, want = _squared(a, c), _squared_four_calls(a, c)
        assert np.array(got).tobytes() == np.array(want).tobytes(), (a, c, got, want)


def test_state_consistency_along_random_walks():
    # 2^log_z + 2^log_1mz = 1 whenever both sides are representable.
    for seed in range(20):
        word = BranchWord.random(30, seed)
        for rule in (Rule.EXTREMAL, Rule.LOWER):
            for s in walk(0.37, word, rule):
                if s.value > 2.0 ** -53 and 2.0 ** s.log_1mz > 2.0 ** -53:
                    assert s.value + 2.0 ** s.log_1mz == pytest.approx(1.0, abs=1e-9)


def test_log_domain_matches_plain_iteration():
    # Relative agreement 1e-9 wherever plain binary64 stays representable.
    for seed in range(25):
        word = BranchWord.random(20, seed)
        for rule in (Rule.EXTREMAL, Rule.LOWER, Rule.DOUBLING):
            plain = iterate_values(0.3, word, rule)
            logd = walk(0.3, word, rule)
            for z, s in zip(plain, logd):
                if z >= 2.0 ** -50:
                    assert s.value == pytest.approx(z, rel=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coin_rows_read_the_low_bits_of_raw_words(seed):
    # Row r is the low size bits of the next ceil(size/64) raw words, low
    # bit first (raw_coin_rows, by shifts): sizes within one word, on a
    # word's edge and past it, and rows the caller may keep.  The generator
    # is left past exactly the words the rows took.
    for i, size in enumerate([*range(1, 34), 63, 64, 65, 128, 129, 1696, 2**15]):
        steps = (1, 2, 3, 16, 17, 33)[(i + seed) % 6]
        rng = np.random.default_rng(seed)
        rows = list(_coin_rows(rng, size, steps))
        ref = np.random.default_rng(seed)
        expected = raw_coin_rows(ref, size, steps)
        assert all(row.dtype == np.uint8 for row in rows)
        assert np.array_equal(rows, expected)
        assert len({id(row) for row in rows}) == steps and not any(r.base is not None for r in rows)
        assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()


@pytest.mark.parametrize("rule", [Rule.EXTREMAL, Rule.LOWER])
def test_monte_carlo_paths_read_coins_only_through_the_coin_reader(rule):
    # A generator that offers nothing but its bit generator's random_raw: a
    # stray rng.integers, a state read or any other draw fails.  The counts
    # and paths equal those drawn from a full generator of the same seed.
    def bare(seed):
        bits = np.random.default_rng(seed).bit_generator
        return types.SimpleNamespace(bit_generator=types.SimpleNamespace(random_raw=bits.random_raw))

    cuts = {0: [-1.0], 3: [-2.0, -9.0], 40: [-(2.0 ** 12)]}
    for upper in (False, True):
        counts = _tail_counts(0.3, cuts, upper, rule, bare(8), 1000)
        assert counts == _tail_counts(0.3, cuts, upper, rule, np.random.default_rng(8), 1000)
    for start in (0, 20):
        bare_paths = [(a.copy(), coins) for a, coins in _paths(0.3, 20, bare(8), 128, start)]
        for (a, coins), (x, y) in zip(bare_paths, _paths(0.3, 20, np.random.default_rng(8), 128, start),
                                      strict=True):
            assert np.array_equal(a, x) and (coins is None and y is None or np.array_equal(coins, y))


def _extremal_paths(z0, n, seed, size):
    """(states, coins) of one chunk of size EXTREMAL lanes read at step n:
    states[s] every lane's log2 z at step s, coins[s - 1] the coins into
    it, from chunk_paths.  Checks that the coins are lane j's prefix bits,
    those of j // (size >> d), then raw_coin_rows of the seed, and that the
    lanes advance one array in place from step d on."""
    d = _depth(size, n)
    coins = np.concatenate([prefix_coins(size, d),
                            raw_coin_rows(np.random.default_rng(seed), size, n - d)])
    states, first = [], None
    for s, (a, col) in enumerate(chunk_paths(z0, n, np.random.default_rng(seed), size, n)):
        first = a if s == d else first
        assert s <= d or a is first
        assert col is None if s == 0 else np.array_equal(col, coins[s - 1])
        states.append(a.copy())
    assert s == n
    return states, coins


def _lower_paths(z0, n, seed, size):
    """(states, coins) of size LOWER paths, drawn as _tail_counts draws
    them (no prefix step; raw_coin_rows of the seed), by the closed form
    log2 Z_n = 2^(L_n) log2 z0, L_n the ones among the first n coins."""
    coins = raw_coin_rows(np.random.default_rng(seed), size, n)
    ones = np.cumsum(np.vstack([np.zeros(size, np.int64), coins]), axis=0)
    with np.errstate(over="ignore"):  # -inf past -2^1024
        return list(np.ldexp(np.log2(z0), ones)), coins


_SAMPLERS = {Rule.EXTREMAL: _extremal_paths, Rule.LOWER: _lower_paths}

# The largest relative gap between an EXTREMAL lane's log2 z and walk's,
# measured over the replay tests' starts, coins and steps, is 4.2e-12
# (z0 = 0.3, step 34 of 120): the lanes step log2 z alone, walk the pair.
_WALK_REL = 2e-11


def _check_replay(z0, rule, states, coins):
    """states[i] holds every lane's log2 z at step i, coins[i - 1] the coins
    that led to it.  LOWER lanes equal walk bit for bit.  EXTREMAL lanes
    equal a replay, one value at a time, through _reference_children, bit
    for bit, and walk's log2 z within _WALK_REL up to the first step where
    walk's log2(1 - z) is at most -1074, where lanes store log2 z = -0.0."""
    for j in range(coins.shape[1]):
        word = coins[:, j].tolist()
        x, near = np.log2(z0), False
        for i, s in enumerate(walk(z0, word, rule)):
            a = states[i][j]
            if rule is Rule.LOWER:
                assert np.float64(a).tobytes() == np.float64(s.log_z).tobytes()
                continue
            if i:
                x = _reference_children(np.array([x]), rule)[word[i - 1]]
            assert np.float64(a).tobytes() == np.float64(x).tobytes()
            near = near or s.log_1mz <= -1074.0
            assert near or a == pytest.approx(s.log_z, rel=_WALK_REL)


@pytest.mark.parametrize("rule", [Rule.EXTREMAL, Rule.LOWER])
@pytest.mark.parametrize("z0", [0.5, 0.3, 0.97])
def test_sampled_paths_replay_through_scalar_walk(z0, rule):
    # Each path's coins, replayed one value at a time, give its log2 z at
    # every step (_check_replay): EXTREMAL ones from a chunk of 64 lanes
    # read at step 40, whose lane j takes the 3 bits of j // 8 as its first
    # coins, LOWER ones from the closed form.
    _check_replay(z0, rule, *_SAMPLERS[rule](z0, 40, 17, 64))


@pytest.mark.parametrize("rule", [Rule.EXTREMAL, Rule.LOWER])
@pytest.mark.parametrize("z0", [5e-324, 1e-310, 2**-515, 1 - 2**-52])
def test_deep_paths_replay_through_scalar_walk_in_place(z0, rule):
    # From these starts many lanes sit below -53, where the mirror child is
    # x + 1, or next to z = 1, where it squares 1 - z.  The samplers check
    # the coins against raw words of a generator seeded alike, and that
    # _paths advances the same array in place, so each step is copied as it
    # is yielded.  LOWER walks run past 1024 squarings, where log2 z and its
    # closed form overflow to -inf.
    steps = 120 if rule is Rule.EXTREMAL else 2400
    states, coins = _SAMPLERS[rule](z0, steps, 29, 24)
    assert len(states) == steps + 1
    assert rule is Rule.EXTREMAL or np.isneginf(states[-1]).all()
    _check_replay(z0, rule, states, coins)


@pytest.mark.parametrize("size", [1, 7, 8, 9, 16, 17, 1696, 2**15])
def test_paths_from_a_later_start_equal_the_paths_from_step_zero(size):
    # For every start at or past the chunk's prefix depth d (the depth at
    # start n; d = 0 below 16 paths), _paths(..., start) yields the states
    # of the chunk's paths from step zero (chunk_paths) bit for bit from
    # step start on: it hands over from prefixes to lanes at d and steps
    # the lanes up to start.  Its first yield has no coins, and the coins
    # after it equal the step-zero paths'.
    n, d = 40, _depth(size, 40)
    for z0 in (0.5, 0.3, 1e-300, 1.0 - 2.0**-52):
        ref = [(a.copy(), coins)
               for a, coins in chunk_paths(z0, n, np.random.default_rng(size), size, n)]
        for start in (d, d + 1, n):
            got = [(a.copy(), coins)
                   for a, coins in _paths(z0, n, np.random.default_rng(size), size, start)]
            assert len(got) == n + 1 - start and got[0][1] is None
            for i, ((a, coins), (x, col)) in enumerate(zip(ref[start:], got)):
                assert a.tobytes() == x.tobytes()
                assert i == 0 or np.array_equal(coins, col)


def _pair_walk(a, c, word, rule):
    states = [ZState(a, c)]
    for b in word:
        states.append(step(states[-1], b, rule))
    return states


open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
words = st.lists(st.integers(0, 1), max_size=40)


@settings(max_examples=200, deadline=None)
@given(open_unit, words)
def test_mirror_is_squaring_on_swapped_pair(z0, word):
    # z <-> 1-z oracle: the walk of (c, a) along the complemented word is the
    # swapped walk of (a, c), bit for bit.
    s0 = ZState.from_value(z0)
    direct = _pair_walk(s0.log_z, s0.log_1mz, word, Rule.EXTREMAL)
    mirror = _pair_walk(s0.log_1mz, s0.log_z, [1 - b for b in word], Rule.EXTREMAL)
    assert [(s.log_1mz, s.log_z) for s in direct] == [(s.log_z, s.log_1mz) for s in mirror]


# ---------------------------------------------------------------------------
# branch words
# ---------------------------------------------------------------------------

def test_branch_word_index_round_trip():
    for n in (0, 1, 4, 7):
        for i in range(1 << n):
            w = BranchWord.from_index(i, n)
            assert len(w) == n
            assert w.to_index() == i


def test_branch_word_msb_first():
    assert BranchWord.from_index(4, 3).bits == (1, 0, 0)
    assert BranchWord.from_index(1, 3).bits == (0, 0, 1)


def test_branch_word_rejects_bad_bits():
    with pytest.raises(ValueError):
        BranchWord((0, 2))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_sample_path_zero_steps():
    path = sample_path(0.37, 0, Rule.EXTREMAL, seed=0)
    assert len(path) == 1
    assert path[0].value == pytest.approx(0.37, rel=1e-15)


def test_sample_path_deterministic_per_seed():
    p1 = sample_path(0.5, 40, Rule.EXTREMAL, seed=7)
    p2 = sample_path(0.5, 40, Rule.EXTREMAL, seed=7)
    assert p1 == p2
    p3 = sample_path(0.5, 40, Rule.EXTREMAL, seed=8)
    assert p1 != p3


def test_all_ones_word_is_repeated_squaring():
    path = walk(0.5, (1, 1, 1), Rule.EXTREMAL)
    assert path[-1].value == pytest.approx(2.0 ** -8, rel=1e-12)
    assert path[-1].log_z == pytest.approx(-8.0, abs=1e-12)


def test_deep_squaring_stays_resolved_in_log_domain():
    path = walk(0.5, [1] * 60, Rule.EXTREMAL)
    assert path[-1].log_z == pytest.approx(-(2.0 ** 60), rel=1e-12)
    assert path[-1].value == 0.0  # underflows as a plain float, by design


# ---------------------------------------------------------------------------
# exact distributions
# ---------------------------------------------------------------------------

def test_exact_distribution_one_step():
    d = exact_distribution(0.5, 1, Rule.EXTREMAL)
    assert (d.values.tolist(), d.probs.tolist()) == ([0.25, 0.75], [0.5, 0.5])


def test_exact_distribution_two_steps_brute_force():
    # Oracle: enumerate the four words with plain floats.
    expect = sorted(
        iterate_values(0.5, BranchWord.from_index(i, 2), Rule.EXTREMAL)[-1]
        for i in range(4)
    )
    d = exact_distribution(0.5, 2, Rule.EXTREMAL)
    assert d.values.tolist() == pytest.approx(expect, rel=1e-14)
    assert d.probs.tolist() == [0.25] * 4
    assert expect == [0.0625, 0.4375, 0.5625, 0.9375]


def test_exact_distribution_zero_steps():
    d = exact_distribution(0.5, 0, Rule.EXTREMAL)
    assert (d.values.tolist(), d.probs.tolist()) == ([0.5], [1.0])


def test_exact_distribution_probs_sum_to_one():
    for rule in (Rule.EXTREMAL, Rule.LOWER, Rule.DOUBLING):
        d = exact_distribution(0.37, 12, rule)
        assert float(d.probs.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(d.log2_values) > 0)


def test_exact_distribution_lower_rule_is_binomial():
    # The hold rule depends only on the number of squarings: n+1 atoms.
    d = exact_distribution(0.37, 10, Rule.LOWER)
    assert d.size == 11
    assert d.probs == pytest.approx(
        [math.comb(10, k) / 1024 for k in range(10, -1, -1)]
    )


def test_exact_distribution_cap():
    with pytest.raises(ResourceCapError) as exc:
        exact_distribution(0.5, 25, Rule.EXTREMAL, cap=1000)
    assert exc.value.flag == "--enum-cap"
    exact_distribution(0.5, 25, Rule.LOWER, cap=50)  # raised cap is honored


@pytest.mark.parametrize("n", [0, 8])
@pytest.mark.parametrize("cap", [0, -5, math.nan])
def test_exact_laws_refuse_a_cap_below_one(cap, n):
    # A cap below 1 is refused up front, not as a level over the budget.
    with pytest.raises(ValueError, match=f"^enum cap must be at least 1, got {cap}$"):
        exact_distribution(0.5, n, Rule.EXTREMAL, cap=cap)
    with pytest.raises(ValueError, match=f"^enum cap must be at least 1, got {cap}$"):
        _exact_tail_counts(0.5, {n: [-1.0]}, False, Rule.EXTREMAL, cap)


@pytest.mark.parametrize("z0, rule", [(0.3, Rule.EXTREMAL), (0.5, Rule.DOUBLING),
                                      (0.5, Rule.LOWER), (1e-300, Rule.EXTREMAL)])
def test_atom_budget_admits_exactly_the_level_child_count(z0, rule):
    # Atom counts never fall with the level, so level 12 has the most
    # children: twice the atoms of level 11.
    need = 2 * exact_distribution(z0, 11, rule).size
    assert exact_distribution(z0, 12, rule, cap=need).probs.sum() == 1.0
    with pytest.raises(ResourceCapError, match=rf"level 12 needs {need} children") as exc:
        exact_distribution(z0, 12, rule, cap=need - 1)
    assert exc.value.flag == "--enum-cap"


def test_doubling_law_is_refused_before_a_large_allocation():
    # The DOUBLING law grows about 1.6x a step: 2^16 children are passed at
    # level 20, long before n = 60, whose full law would not fit in memory.
    exact_distribution(0.5, 8, Rule.DOUBLING)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="level 20") as exc:
            exact_distribution(0.3, 60, Rule.DOUBLING, cap=2**16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.flag == "--enum-cap"
    assert peak < 4 * 2**20


def test_lower_law_runs_past_53_steps_at_the_default_budget():
    # n + 1 atoms at any n; path counts past 2^53 round, within n ulps.
    d = exact_distribution(0.5, 200, Rule.LOWER)
    assert d.size == 201
    exact = np.array([math.comb(200, k) / 2.0**200 for k in range(201)])
    assert np.all(np.abs(d.probs - exact) <= 200 * 2.0**-52 * exact)


def test_exact_laws_stop_at_n_1023():
    # Past n = 1023 one atom's path count can pass 2^1024, which a double
    # cannot hold (from 1e-300 the LOWER law's -inf atom holds almost all).
    message = "^exact laws stop at n = 1023, .* got n={}; curves past it run with --mode mc$"
    with pytest.raises(ValueError, match=message.format(1024)):
        exact_distribution(0.5, 1024, Rule.LOWER)
    with pytest.raises(ValueError, match=message.format(1030)):
        _exact_tail_counts(0.5, {8: [-4.0], 1030: [-4.0]}, False, Rule.LOWER, DEFAULT_ENUM_CAP)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # log2 z passing -2^1024 is z = 0, not an overflow
        d = exact_distribution(1e-300, 1023, Rule.LOWER)
    assert d.log2_values[0] == -math.inf and np.isfinite(d.probs).all()
    # The lumping margins t / 2^k reach 2^-722 here, and the counts the
    # curves tally at n = 1023 answer as the full law, up to the rounding of
    # path counts past 2^53.
    t = -(2.0 ** 300)
    for upper, side in ((False, d.cdf_at_log2), (True, d.sf_at_log2)):
        counts = _exact_tail_counts(1e-300, {1023: [t]}, upper, Rule.LOWER, DEFAULT_ENUM_CAP)
        assert math.ldexp(counts[1023, t], -1023) == pytest.approx(side(t), rel=1e-12)


def test_exact_tails_stay_at_most_one_past_53_steps():
    # The n = 1023 LOWER law's path counts round past 2^53, and the sum the
    # direct curve asks at beta = 0.3 lands an ulp above 1; the queries clamp.
    d = exact_distribution(0.5, 1023, Rule.LOWER)
    t = -(2.0 ** (0.3 * 1023))
    assert float(d.probs[d.log2_values <= t].sum()) > 1.0
    assert d.cdf_at_log2(t) == d.cdf_at(1.0) == d.sf_at_log2(-math.inf) == 1.0
    assert 0.0 < d.sf_at_log2(t) < 1.0


def test_cdf_examples():
    d = exact_distribution(0.5, 2, Rule.EXTREMAL)
    assert d.cdf_at(0.5) == pytest.approx(0.5, abs=1e-15)
    assert d.cdf_at(1.0) == 1.0
    assert d.cdf_at(0.0) == 0.0
    assert d.cdf_at(0.0625) == pytest.approx(0.25, abs=1e-15)  # boundary atom counts
    # DOUBLING keeps atoms above 1: z = 2 and 4 carry 1/8 and 1/4, z = 1 carries 1/4.
    dbl = exact_distribution(0.5, 3, Rule.DOUBLING)
    assert dbl.cdf_at(1.0) == dbl.cdf_at_log2(0.0) == 0.625
    assert dbl.cdf_at(2.0) == 0.75
    assert dbl.cdf_at(math.inf) == 1.0
    # An atom at z = 0 (log2 z = -inf) counts at the threshold 0.
    assert ZDistribution([-math.inf, -1.0], [0.5, 0.5]).cdf_at(0.0) == 0.5


def test_martingale_and_supermartingale_means():
    for z0 in (0.25, 0.5, 0.75):
        prev_ext = z0
        prev_low = None
        for n in range(0, 9):
            ext = exact_distribution(z0, n, Rule.EXTREMAL).mean()
            assert ext == pytest.approx(z0, abs=1e-12)
            low = exact_distribution(z0, n, Rule.LOWER).mean()
            if prev_low is not None:
                assert low <= prev_low + 1e-12
            prev_low = low


def test_mean_increment_dominates_q():
    # E[|Z_{n+1} - Z_n|] >= (1/2) E[Z_n - Z_n^2]; for the extremal rule both
    # children differ from the parent by exactly q = z(1-z).
    for n in (0, 3, 6, 9):
        d = exact_distribution(0.4, n, Rule.EXTREMAL)
        z = d.values
        q = z * (1.0 - z)
        mean_abs_inc = float(np.sum(d.probs * 0.5 * (np.abs(z * z - z) + np.abs(2 * z - z * z - z))))
        assert mean_abs_inc >= 0.5 * float(np.sum(d.probs * q)) - 1e-15


def test_polarization_interior_mass():
    # Mass off the poles dies out; the sequence dips up once at n=3 and is
    # nonincreasing afterwards, dropping below 0.05 well before n=24.
    masses = [
        exact_distribution(0.5, n, Rule.EXTREMAL).interior_mass(0.1)
        for n in range(0, 17)
    ]
    assert all(b <= a + 1e-15 for a, b in zip(masses[3:], masses[4:]))
    assert masses[16] < 0.05


def test_interior_mass_resolves_deltas_below_the_ulp_of_one():
    # 1 - delta rounds to 1 for delta < 2^-53; by z <-> 1-z symmetry at
    # z0 = 1/2 the mass off both poles is 1 - 2 P(Z <= delta).
    d = exact_distribution(0.5, 20, Rule.EXTREMAL)
    assert d.interior_mass(1e-30) == 1.0 - 2.0 * d.cdf_at(1e-30)
    assert d.interior_mass(1e-30) == 0.21434402465820312


def test_distribution_queries_reject_nan_and_keep_infinite_thresholds():
    d = exact_distribution(0.5, 4, Rule.EXTREMAL)
    for query, name in ((d.cdf_at_log2, "t"), (d.sf_at_log2, "t"), (d.cdf_at, "threshold")):
        with pytest.raises(ValueError, match=rf"^{name} must be a number, got nan$"):
            query(math.nan)
    for delta in (math.nan, 0.0, -0.1, 1.0):
        with pytest.raises(ValueError, match=rf"^delta must lie strictly inside \(0, 1\), got {delta}$"):
            d.interior_mass(delta)
    # The whole law lies between the infinite thresholds.
    assert (d.cdf_at_log2(math.inf), d.cdf_at_log2(-math.inf)) == (1.0, 0.0)
    assert (d.sf_at_log2(-math.inf), d.sf_at_log2(math.inf)) == (1.0, 0.0)
    assert (d.cdf_at(math.inf), d.cdf_at(-math.inf)) == (1.0, 0.0)


@pytest.mark.parametrize("n", [12, 20])
def test_exact_upper_tail_mirrors_lower_tail(n):
    # P(Z <= delta) from z0 equals P(Z >= 1 - delta) from 1 - z0, exactly.
    low = exact_distribution(0.3, n, Rule.EXTREMAL)
    high = exact_distribution(0.7, n, Rule.EXTREMAL)
    for delta in (1e-3, 1e-12, 1e-30, 1e-200):
        assert low.cdf_at(delta) == high.sf_at_log2(math.log1p(-delta) / math.log(2.0))


def test_exact_extremal_atoms_stay_at_most_one():
    for z0 in (0.3, 0.5, 0.9):
        d = exact_distribution(z0, 20, Rule.EXTREMAL)
        assert not np.any(d.log2_values > 0.0)
        assert math.fsum(d.probs) == 1.0


def _reference_children(vals, rule):
    # The level step's child map as written before the x + 1 shortcut.
    squared = 2.0 * vals
    if rule is Rule.EXTREMAL:
        k = int(np.searchsorted(vals, -1.0, side="right"))
        low, high = vals[:k], vals[k:]
        other = np.concatenate((
            low + np.log2(2.0 - np.exp2(low)),
            np.log1p(-np.expm1(high * math.log(2.0)) ** 2) / math.log(2.0),
        ))
    elif rule is Rule.LOWER:
        other = vals
    else:
        other = vals + 1.0
    return np.concatenate((other, squared))


def _reference_laws(z0, top, rule):
    """Oracle for _exact_laws: the law at every level 0..top, with float
    probabilities halved each level and summed per run by reduceat over a
    stable sort of the children."""
    log2v = np.array([float(np.log2(z0))])
    probs = np.array([1.0])
    laws = [(log2v, probs)]
    for _ in range(top):
        children = _reference_children(log2v, rule)
        order = np.argsort(children, kind="stable")
        children = children[order]
        starts = np.flatnonzero(np.r_[True, children[1:] != children[:-1]])
        log2v = children[starts]
        probs = np.add.reduceat(np.concatenate((probs, probs))[order] * 0.5, starts)
        laws.append((log2v, probs))
    return laws


@pytest.mark.parametrize("rule", [Rule.EXTREMAL, Rule.LOWER, Rule.DOUBLING])
@pytest.mark.parametrize("z0", [0.5, 0.3, 0.9, 1e-300, 5e-324, 1.0 - 2.0**-52])
def test_exact_laws_match_reference_level_step_bitwise(z0, rule):
    # With no thresholds every level is merged, the top one too.
    levels = zip(_levels(z0, 20, rule, DEFAULT_ENUM_CAP), _reference_laws(z0, 20, rule), strict=True)
    for n, ((atoms, counts), (log2v, probs)) in enumerate(levels):
        assert atoms.tobytes() == log2v.tobytes()
        assert (counts * 2.0 ** -n).tobytes() == probs.tobytes()
    assert exact_distribution(z0, 20, rule).probs.tobytes() == probs.tobytes()


@pytest.mark.parametrize("z0", [1e-300, 0.1, 0.3, 0.5, 0.9, 0.999999])
def test_lane_spectrum_counts_to_the_exact_law(z0):
    # The coin-prefix phase at depth n holds the log2 spectrum of the 2^n
    # synthesized channels in index order, stepped lane by lane by _step.
    # Counted by np.unique, it is the exact law of the sorted level step, bit
    # for bit: the atoms, the sign of -0.0, and the probabilities counts 2^-n.
    top = 16
    for n, a in enumerate(_prefixes(z0, top)):
        atoms, counts = np.unique(a, return_counts=True)
        law = exact_distribution(z0, n, Rule.EXTREMAL)
        assert atoms.tobytes() == law.log2_values.tobytes()
        assert (counts * 2.0 ** -n).tobytes() == law.probs.tobytes()
    assert n == top


@pytest.mark.parametrize("z0", [0.1, 0.3, 0.5, 0.9])
def test_lane_spectrum_is_monotone_under_the_partial_order(z0):
    # The index-order log2 spectrum of the coin-prefix phase keeps the order
    # of the synthesized channels at every depth: no move raises log2 Z.
    top = 14
    for n, a in enumerate(_prefixes(z0, top)):
        assert order_violations(a) == 0
    assert n == top


def test_children_match_reference_across_the_shortcut_edge():
    # x + 1 below -53, where 2 - 2^x rounds to 2; exp2 underflows past -1074.
    vals = np.array([-math.inf, -1075.0, -1074.5, -54.0, np.nextafter(-53.0, -54.0), -53.0,
                     np.nextafter(-53.0, 0.0), -52.0, -1.0, -0.5, -1e-300, -0.0])
    for rule in (Rule.EXTREMAL, Rule.LOWER, Rule.DOUBLING):
        assert (_children_log2(vals, rule).tobytes()
                == _reference_children(vals, rule).tobytes())


def test_step_matches_reference_children_on_unsorted_edge_values():
    # Monte Carlo lanes take the exact laws' child map: on shuffled values
    # across the x + 1 edge, exp2's underflow and the split at -1, each lane
    # steps as _reference_children maps that value alone, on either coin.
    vals = np.array([-math.inf, -1075.0, -1074.5, -60.0, np.nextafter(-53.0, -54.0), -53.0,
                     -52.0, -1.0, np.nextafter(-1.0, 0.0), -0.5, -1e-300, -0.0])
    np.random.default_rng(3).shuffle(vals)
    coins = np.random.default_rng(4).integers(0, 2, (3, vals.size), dtype=np.uint8)
    for col in (np.zeros(vals.size, np.uint8), np.ones(vals.size, np.uint8), *coins):
        expected = [_reference_children(np.array([x]), Rule.EXTREMAL)[b] for x, b in zip(vals, col)]
        assert _step(vals.copy(), col).tobytes() == np.array(expected).tobytes()


def test_word_children_match_reference_children_on_unsorted_edge_values():
    # The exact curves' word lanes take the level step's child map, x + 1
    # below -53 included: each lane's [mirror, squared] children, in order.
    vals = np.array([-math.inf, -1075.0, -1074.5, -60.0, np.nextafter(-53.0, -54.0), -53.0,
                     -52.0, -30.0, -1.0, np.nextafter(-1.0, 0.0), -0.5, -1e-300, -0.0])
    np.random.default_rng(5).shuffle(vals)
    expected = np.array([_reference_children(np.array([x]), Rule.EXTREMAL) for x in vals])
    assert _word_children(vals, np.empty(2 * vals.size)).tobytes() == expected.T.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(max_value=0.0, allow_nan=False), min_size=1, max_size=8))
def test_mirror_child_lies_between_twice_itself_and_one_more(xs):
    # For every double x <= 0 the B = 0 child lies in [2x, x + 1]: the exact
    # laws' lumping and the Monte Carlo curves' high lanes rest on the lower
    # end, the lumping's low side on the upper end.
    x = np.array(xs)
    child = _step(x.copy(), np.zeros(x.size, np.uint8))
    with np.errstate(over="ignore"):
        assert (2.0 * x <= child).all() and (child <= x + 1.0).all()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2100), min_size=1, max_size=5),
       st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=4), st.floats(0.0, 1.0))
def test_margins_hold_on_every_accepted_grid(ns, fractions, where):
    # Grids as the curves accept them (n up to 2100, beta n < 1024), any
    # level up to the top n, both conventions: the exact laws' children at
    # the level, asked from its own grid on, and a Monte Carlo lane at that
    # step, asked from the next grid on.  No overflow; any double above hi,
    # doubled through the k steps to a threshold k steps ahead, stays above
    # it, in exact arithmetic (hi may be subnormal, or -0.0 past that); and
    # any log2 z below lo, raised by 1 for k steps, stays more than 1 below.
    betas, ns = _check_grid([f * 1023.999 / max(*ns, 1) for f in fractions], ns)
    cuts = {n: [-(2.0 ** (beta * n)) for beta in betas] for n in set(ns)}
    level = round(where * max(ns))
    for first in {level, min(level + 1, max(ns))}:
        lo, hi = _margins(cuts, level, first)
        above = Fraction(float(np.nextafter(hi, 0.0)))
        for n in cuts:
            for t in cuts[n] if n >= first else ():
                k = n - level
                assert above * 2**k > t
                assert lo <= t - k - 1


@pytest.mark.parametrize("z0", [0.5, 0.3, 0.9, 1e-300, 0.999999, 2.0**-33])
@pytest.mark.parametrize("rule", [Rule.EXTREMAL, Rule.LOWER])
def test_lumped_laws_answer_asked_thresholds_as_full_laws(rule, z0):
    # The curves' counts are the full laws' at every asked threshold, bit
    # for bit below 2^53, in both modes: at the default cap EXTREMAL grids
    # step their 2^top words unmerged, and at 2^top - 1 they merge atoms, as
    # LOWER always does.  With beta > 1 a grid level's own
    # threshold sets hi of its children's margins: the later ones, scaled
    # back to it, lie further down.
    full = {n: ZDistribution(atoms, counts * 2.0 ** -n)
            for n, (atoms, counts) in enumerate(_levels(z0, 20, rule, DEFAULT_ENUM_CAP))}
    for betas in ((0.3, 0.45), (0.55, 0.7), (0.1, 0.5, 0.9), (0.05,), (1.5, 2.0, 3.0)):
        for ns in ((4, 10, 14), (0, 1, 2, 20), (18,)):
            cuts = {n: [-(2.0 ** (beta * n)) for beta in betas] for n in ns}
            for cap, upper in itertools.product((DEFAULT_ENUM_CAP, 2 ** max(ns) - 1), (False, True)):
                side = ZDistribution.sf_at_log2 if upper else ZDistribution.cdf_at_log2
                counts = _exact_tail_counts(z0, cuts, upper, rule, cap)
                assert counts.keys() == {(n, t) for n, ts in cuts.items() for t in ts}
                for (n, t), count in counts.items():
                    assert math.ldexp(count, -n) == side(full[n], t)


def test_extremal_curves_step_words_while_all_words_fit_the_cap(monkeypatch):
    # At cap 2^top the EXTREMAL counts step branch words at every level and
    # merge nothing; one below, and for LOWER at any cap, they merge atoms at
    # every level below the top.  Both modes count alike.
    runs = []
    real_merge, real_children = zprocess._merge, zprocess._word_children
    monkeypatch.setattr(zprocess, "_merge", lambda law: runs.append("merge") or real_merge(law))
    monkeypatch.setattr(zprocess, "_word_children",
                        lambda *args: runs.append("words") or real_children(*args))
    cuts = {6: [-(2.0 ** 3)], 12: [-(2.0 ** 5.4), -(2.0 ** 7.2)]}
    for upper in (False, True):
        answers = []
        for rule, cap, steps in ((Rule.EXTREMAL, 2**12, ["words"] * 12),
                                 (Rule.EXTREMAL, 2**12 - 1, ["merge"] * 11),
                                 (Rule.LOWER, 2**12, ["merge"] * 11)):
            runs.clear()
            answers.append(_exact_tail_counts(0.3, cuts, upper, rule, cap))
            assert runs == steps
        assert answers[0] == answers[1]


def test_lumping_merges_the_atoms_past_the_thresholds(monkeypatch):
    # In merged mode a level's children outside its margins leave for the
    # tally before the merge: level 20, below the top grid 21, merges just
    # the full law's atoms in [-130, -64], bit for bit, under a tenth of
    # them, and the top level is counted, never merged.
    full = exact_distribution(0.5, 20, Rule.EXTREMAL)
    merged = []
    real_merge = zprocess._merge
    monkeypatch.setattr(zprocess, "_merge", lambda law: merged.append(real_merge(law)) or merged[-1])
    cuts = {20: [-(2.0 ** 6)], 21: [-(2.0 ** 7)]}
    assert _margins(cuts, 20, 20) == (-130.0, -64.0)
    _exact_tail_counts(0.5, cuts, False, Rule.EXTREMAL, 2**21 - 1)
    assert len(merged) == 20
    atoms, counts = merged[-1]
    inside = (full.log2_values >= -130.0) & (full.log2_values <= -64.0)
    assert atoms.size < full.size // 10
    assert atoms.tobytes() == full.log2_values[inside].tobytes()
    assert (counts * 2.0 ** -20).tobytes() == full.probs[inside].tobytes()


def test_exact_law_memory_stays_under_the_reduceat_step():
    # The reduceat level step peaked at 37,486,496 traced bytes (numpy 2.4,
    # CPython 3.11); freeing order, the unsorted children and the level
    # before early keeps this one under it.
    exact_distribution(0.5, 12, Rule.EXTREMAL)
    tracemalloc.start()
    try:
        exact_distribution(0.5, 20, Rule.EXTREMAL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 35 * 2**20


def test_exact_distribution_rejects_bad_start():
    for z0 in (0.0, 1.0, -0.1, 1.3):
        with pytest.raises(ValueError):
            exact_distribution(z0, 3, Rule.EXTREMAL)


# ---------------------------------------------------------------------------
# Monte Carlo functionals
# ---------------------------------------------------------------------------

def test_q_halfmoment_deterministic_at_n0():
    est, err = q_halfmoment(0.3, 0, 1000, 5)
    assert est == pytest.approx(math.sqrt(0.3 * 0.7), rel=1e-12)
    assert err == pytest.approx(0.0, abs=1e-15)


def test_q_halfmoment_rejects_negative_steps():
    with pytest.raises(ValueError, match="nonnegative"):
        q_halfmoment(0.3, -1, 1000, 5)


@pytest.mark.parametrize(
    "call",
    [
        lambda n: sample_path(0.5, n, Rule.EXTREMAL, 0),
        lambda n: q_halfmoment(0.3, n, 1000, 5),
        lambda n: exact_distribution(0.5, n, Rule.EXTREMAL),
        lambda n: converse_binomial(0.5, n, 0.6),
        lambda n: domination_check(0.3, 0.5, n, 1),
        lambda n: synthesized_channels(bsc(0.11), n),
        lambda n: bec_z_spectrum(0.4, n),
        lambda n: construct(0.4, n, 0.5),
        hajek_bound,
        lambda n: f_rho(0.5, n),
    ],
    ids=["sample_path", "q_halfmoment", "exact_distribution", "converse_binomial",
         "domination_check", "synthesized_channels", "bec_z_spectrum", "construct",
         "hajek_bound", "f_rho"],
)
def test_negative_step_counts_share_one_message(call):
    with pytest.raises(ValueError, match=r"^step count must be nonnegative, got -2$"):
        call(-2)


def test_q_halfmoment_merges_chunks_as_one_sample():
    # Reference: the values of every chunk concatenated, then mean and std.
    trials, n = 2 * 2**15 + 1000, 6

    def run_chunk(rng, size):
        a, _ = next(_paths(0.3, n, rng, size, n))
        c = np.log2(-np.expm1(np.maximum(a, -64.0) * math.log(2.0)))
        return np.exp2(0.5 * (a + c))

    q = np.concatenate(_run_chunks(run_chunk, trials, 9))
    est, err = q_halfmoment(0.3, n, trials, 9)
    assert est == pytest.approx(q.mean(), rel=1e-13)
    assert err == pytest.approx(q.std(ddof=1) / math.sqrt(trials), rel=1e-12)


def test_q_halfmoment_memory_stays_per_chunk():
    # Each 2^15-trial chunk reduces to three numbers, so eight chunks peak
    # as one does.
    q_halfmoment(0.5, 4, 2**15, 1)
    peaks = []
    for trials in (2**15, 2**18):
        tracemalloc.start()
        try:
            q_halfmoment(0.5, 4, trials, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_q_halfmoment_rejects_zero_trials():
    with pytest.raises(ValueError, match="need at least one trial, got 0"):
        q_halfmoment(0.3, 4, 0, 5)


def test_run_chunks_caps_workers_at_chunks_and_cpus(monkeypatch):
    # A recording stand-in for the executor runs the workers' stripes in
    # turn, so threads=10_000 starts no thread.  Chunk i draws from child i
    # of SeedSequence(seed) whatever the worker count.
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(futures, "ThreadPoolExecutor", RecordingPool)

    def draws(threads):
        return _run_chunks(lambda rng, size: (size, int(rng.integers(2**62))), 95, 4, threads, 10)

    children = np.random.SeedSequence(4).spawn(10)
    serial = draws(1)
    assert serial == [(10 if i < 9 else 5, int(np.random.default_rng(ss).integers(2**62)))
                      for i, ss in enumerate(children)]
    for cpus, pool in [(8, [8]), (64, [10]), (None, [])]:
        pools.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert draws(10_000) == serial
        assert pools == pool


def test_q_halfmoment_matches_four_path_oracle():
    # Exact 4-path average at n=2, z0=0.5 (computed by brute force).
    exact = 0.36906991498128716
    est, err = q_halfmoment(0.5, 2, 100_000, seed=7)
    assert abs(est - exact) <= 3 * err


def test_q_halfmoment_respects_supermartingale_bound():
    for n in (2, 10, 25, 40):
        est, err = q_halfmoment(0.5, n, 20_000, seed=3)
        assert est <= hajek_bound(n) + 3 * err


def test_q_upper_tail_markov_bound():
    # P(Q_n >= rho^n) <= (1/2) (3/(4 rho))^(n/2), checked by Monte Carlo.
    rho = 0.8
    trials = 50_000
    checks = (5, 10, 20, 40)
    paths = _paths(0.5, max(checks), np.random.default_rng(5), trials, 0)
    for n, (a, _) in enumerate(paths):
        if n in checks:
            with np.errstate(divide="ignore"):  # log2(1 - z) is -inf at log2 z = -0.0
                c = np.log2(-np.expm1(a * math.log(2.0)))
            p = float(np.mean(np.exp2(a + c) >= rho ** n))
            se = math.sqrt(p * (1 - p) / trials)
            assert p <= 0.5 * (3.0 / (4.0 * rho)) ** (n / 2) + 3 * se


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_f_rho_fallback_branch():
    assert f_rho(7 / 8, 1) == 1.0


def test_f_rho_direct_value():
    # Frozen from direct evaluation of (1 - sqrt(1 - 4 rho^n)) / 2.
    naive = (1.0 - math.sqrt(1.0 - 4.0 * (7 / 8) ** 11)) / 2.0
    assert f_rho(7 / 8, 11) == pytest.approx(naive, abs=1e-12)
    assert f_rho(7 / 8, 11) == pytest.approx(0.3592560095185227, abs=1e-12)


def test_f_rho_small_argument_series():
    # f_n(rho) ~ rho^n when 4 rho^n << 1, relative error at most 2 * 4 rho^n.
    rho, n = 0.8, 40
    x = rho ** n
    assert abs(f_rho(rho, n) / x - 1.0) <= 2 * 4 * x


def test_f_rho_rejects_bad_rho():
    for rho in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            f_rho(rho, 3)


def test_converse_binomial_exact_value():
    assert converse_binomial(0.5, 10, 0.55) == 638 / 1024


def test_converse_binomial_trend_toward_one():
    vals = [converse_binomial(0.5, n, 0.55) for n in (10, 20, 40, 80)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.8


def test_converse_binomial_empty_event():
    # z0 small enough that the shifted threshold is negative at beta -> 0+.
    assert converse_binomial(0.25, 10, 0.05) == 0.0


def test_converse_binomial_domain():
    for z0 in (0.0, 1.0, -1.0, 2.0):
        with pytest.raises(ValueError):
            converse_binomial(z0, 10, 0.55)
    # defined all the way up to z0 -> 1 (the shift is just negative there)
    assert converse_binomial(0.9, 10, 0.55) > 0.0
    with pytest.raises(ValueError):
        converse_binomial(0.5, 10, 0.0)


# ---------------------------------------------------------------------------
# domination
# ---------------------------------------------------------------------------

def test_domination_reflexive():
    assert domination_check(0.42, 0.42, 25, seed=1)


def test_domination_spread_pair():
    for seed in range(10):
        assert domination_check(0.3, 0.7, 20, seed=seed)


def test_domination_hand_iteration_all_zero_word():
    lower = walk(0.3, (0, 0), Rule.LOWER)
    ext = walk(0.3, (0, 0), Rule.EXTREMAL)
    dbl = walk(0.3, (0, 0), Rule.DOUBLING)
    assert [s.value for s in lower] == pytest.approx([0.3, 0.3, 0.3], rel=1e-15)
    assert [s.value for s in ext] == pytest.approx([0.3, 0.51, 0.7599], rel=1e-12)
    assert [s.value for s in dbl] == pytest.approx([0.3, 0.6, 1.2], rel=1e-12)


def test_domination_rejects_bad_pair():
    with pytest.raises(ValueError):
        domination_check(0.7, 0.3, 10, seed=0)


def test_branch_word_random_draws_the_same_int_bits():
    for n, seed in ((0, 0), (1, 5), (40, 3), (257, 11)):
        bits = BranchWord.random(n, seed).bits
        assert bits == tuple(int(b) for b in np.random.default_rng(seed).integers(0, 2, size=n))
        assert all(type(b) is int for b in bits)


def test_domination_check_walks_two_extremal_processes_and_pins_each_bound(monkeypatch):
    # The check derives LOWER and DOUBLING log2 z itself.  Setting one step
    # of EXTREMAL(z0_low) exactly on a bound passes, and one ulp past it
    # fails, so the derived values equal walk's bit for bit.
    z0_low, z0_high, n, seed = 0.3, 0.999, 40, 3
    word = BranchWord.random(n, seed)
    lower = [s.log_z for s in walk(z0_low, word, Rule.LOWER)]
    upper = [min(s.log_z, 0.0) for s in walk(z0_low, word, Rule.DOUBLING)]
    high = [s.log_z for s in walk(z0_high, word, Rule.EXTREMAL)]
    real_walk, calls, nudge = zprocess.walk, [], {}

    def spy(z0, bits, rule):
        calls.append((z0, rule))
        states = real_walk(z0, bits, rule)
        for j, log_z in nudge.items():
            if z0 == z0_low:
                states[j] = ZState(log_z, states[j].log_1mz)
        return states

    monkeypatch.setattr(zprocess, "walk", spy)

    def check(j=None, log_z=None):
        calls.clear()
        nudge.clear()
        if j is not None:
            nudge[j] = log_z
        ok = domination_check(z0_low, z0_high, n, seed)
        assert calls == [(z0_low, Rule.EXTREMAL), (z0_high, Rule.EXTREMAL)]
        return ok

    assert check()
    # (bound, direction past it, steps where one ulp past it crosses no other bound)
    cases = [
        (lower, -math.inf, range(1, n + 1)),
        (upper, math.inf, [j for j in range(1, n + 1) if np.nextafter(upper[j], 1.0) <= high[j]]),
        (high, math.inf, [j for j in range(1, n + 1) if np.nextafter(high[j], 1.0) <= upper[j]]),
    ]
    for bound, past, steps in cases:
        assert len(steps) >= 3
        for j in steps:
            assert check(j, bound[j])
            assert not check(j, float(np.nextafter(bound[j], past)))


_BAD_RULE = "rule must be one of Rule.EXTREMAL, Rule.LOWER, Rule.DOUBLING, got 'extremal'"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: BranchWord.from_index(8, 3), "index 8 out of range for 3 bits"),
        (lambda: ZDistribution([-2.0, -1.0], [1.0]),
         "log2_values and probs must be matching 1-D arrays"),
        # Unsorted atoms made cdf_at_log2(-2.0) read 1.0, not 0.5.
        (lambda: ZDistribution([-1.0, -3.0], [0.5, 0.5]),
         "log2_values must be strictly increasing, with no NaN"),
        (lambda: ZDistribution([-2.0, -2.0], [0.5, 0.5]),
         "log2_values must be strictly increasing, with no NaN"),
        (lambda: ZDistribution([-2.0, math.nan], [0.5, 0.5]),
         "log2_values must be strictly increasing, with no NaN"),
        (lambda: ZDistribution([math.nan], [1.0]),
         "log2_values must be strictly increasing, with no NaN"),
        # A rule given by name ran the hold rule, or the DOUBLING law.
        (lambda: step(ZState.from_value(0.5), 0, "extremal"), _BAD_RULE),
        (lambda: walk(0.5, [0, 0, 1], "extremal"), _BAD_RULE),
        (lambda: walk(0.5, [], "extremal"), _BAD_RULE),
        (lambda: iterate_values(0.5, [0, 1], "extremal"), _BAD_RULE),
        (lambda: sample_path(0.5, 3, "extremal", seed=0), _BAD_RULE),
        (lambda: exact_distribution(0.5, 3, "extremal"), _BAD_RULE),
        # A coin of 2 or 0.5 squared, and one of -1 doubled.
        (lambda: step(ZState.from_value(0.5), 2, Rule.EXTREMAL), "coin must be 0 or 1, got 2"),
        (lambda: walk(0.5, [2, 0], Rule.EXTREMAL), "coin must be 0 or 1, got 2"),
        (lambda: walk(0.5, [0.5, 1], Rule.LOWER), "coin must be 0 or 1, got 0.5"),
        (lambda: iterate_values(0.5, [2, -1], Rule.DOUBLING), "coin must be 0 or 1, got 2"),
        (lambda: iterate_values(0.5, [0, -1], Rule.DOUBLING), "coin must be 0 or 1, got -1"),
    ],
    ids=["branch-word-index", "distribution-arrays", "distribution-unsorted",
         "distribution-repeated", "distribution-nan", "distribution-nan-atom",
         "step-rule", "walk-rule", "walk-empty-word-rule", "iterate-rule",
         "sample-path-rule", "exact-rule", "step-coin", "walk-coin-two", "walk-coin-half",
         "iterate-coin-two", "iterate-coin-minus-one"],
)
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
