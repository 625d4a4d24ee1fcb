import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from polarkit import bdmc
from polarkit.bdmc import (
    Channel,
    as_bec_eps,
    bec,
    bhattacharyya,
    bsc,
    merge_equivalent_outputs,
    polar_transform,
    symmetric_capacity,
    validate,
)
from polarkit.errors import ResourceCapError

from conftest import random_channel


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_bec_by_construction():
    validate(bec(0.3))


def test_validate_rejects_bad_normalization():
    with pytest.raises(ValueError, match="column sums to 0.5"):
        validate(Channel([(0.5, 0.5)]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_rejects_non_finite(bad):
    with pytest.raises(ValueError, match=r"output 1: W\(y\|0\) = .* not a finite number"):
        validate(Channel([(1.0, 0.5), (bad, 0.5)]))


def test_validate_accepts_useless_channel():
    validate(Channel([(1.0, 1.0)]))


def test_validate_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        validate(Channel([(1.2, 1.0), (-0.2, 0.0)]))


def test_channel_needs_nonempty_table():
    with pytest.raises(ValueError):
        Channel(np.empty((0, 2)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bec(1.5), r"erasure probability must be in \[0, 1\], got 1.5"),
        (lambda: bsc(-0.1), r"crossover probability must be in \[0, 1\], got -0.1"),
        (lambda: merge_equivalent_outputs(Channel(np.zeros((2, 2)))),
         "channel has no outputs with positive probability"),
    ],
    ids=["bec", "bsc", "merge-all-zero"],
)
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


# ---------------------------------------------------------------------------
# I(W) and Z(W)
# ---------------------------------------------------------------------------

def test_capacity_bec():
    assert symmetric_capacity(bec(0.3)) == pytest.approx(0.7, abs=1e-12)


def test_capacity_useless_channel():
    assert symmetric_capacity(Channel([(1.0, 1.0)])) == 0.0


def test_capacity_bsc_against_entropy_oracle():
    # Independent oracle: 1 - H2(p) with the binary entropy formula.
    p = 0.11
    oracle = 1.0 - (-p * math.log2(p) - (1 - p) * math.log2(1 - p))
    assert oracle == pytest.approx(0.500084041835472, abs=1e-12)
    assert symmetric_capacity(bsc(p)) == pytest.approx(oracle, abs=1e-12)
    assert symmetric_capacity(bsc(p)) == pytest.approx(0.500085, abs=1e-5)


def test_bhattacharyya_bec():
    assert bhattacharyya(bec(0.3)) == pytest.approx(0.3, abs=1e-15)


def test_bhattacharyya_noiseless():
    assert bhattacharyya(Channel([(1.0, 0.0), (0.0, 1.0)])) == 0.0


def test_bhattacharyya_bsc_against_oracle():
    p = 0.11
    oracle = 2.0 * math.sqrt(p * (1 - p))
    assert bhattacharyya(bsc(p)) == pytest.approx(oracle, abs=1e-15)
    assert bhattacharyya(bsc(p)) == pytest.approx(0.625780, abs=1e-6)


# ---------------------------------------------------------------------------
# the polarizing transform
# ---------------------------------------------------------------------------

def test_transform_bec_matches_closed_forms():
    eps = 0.3
    pair = polar_transform(bec(eps))
    minus = merge_equivalent_outputs(pair.minus, 1e-12)
    plus = merge_equivalent_outputs(pair.plus, 1e-12)
    assert bhattacharyya(minus) == pytest.approx(2 * eps - eps * eps, abs=1e-10)
    assert bhattacharyya(plus) == pytest.approx(eps * eps, abs=1e-10)
    assert symmetric_capacity(minus) == pytest.approx(1 - (2 * eps - eps * eps), abs=1e-10)
    assert symmetric_capacity(plus) == pytest.approx(1 - eps * eps, abs=1e-10)


def test_transform_bec_raw_minus_merges_nine_to_three():
    pair = polar_transform(bec(0.3))
    assert len(pair.minus) == 9
    merged = merge_equivalent_outputs(pair.minus, 1e-12)
    assert len(merged) == 3
    assert bhattacharyya(merged) == pytest.approx(0.51, abs=1e-12)


@pytest.mark.parametrize("tol", [-1e-12, math.nan])
def test_merge_rejects_bad_tolerance(tol):
    # NaN compares false with everything, so it must not pass as ">= 0".
    with pytest.raises(ValueError, match="tolerance must be nonnegative"):
        merge_equivalent_outputs(polar_transform(bsc(0.1)).minus, tol)


def test_transform_alphabet_sizes():
    ch = bsc(0.11)
    pair = polar_transform(ch)
    assert len(pair.minus) == 4
    assert len(pair.plus) == 8
    validate(pair.minus)
    validate(pair.plus)


def test_transform_identities_random_channels(rng):
    for _ in range(40):
        ch = random_channel(rng)
        i0, z0 = symmetric_capacity(ch), bhattacharyya(ch)
        pair = polar_transform(ch)
        im, zm = symmetric_capacity(pair.minus), bhattacharyya(pair.minus)
        ip, zp = symmetric_capacity(pair.plus), bhattacharyya(pair.plus)
        assert im + ip == pytest.approx(2 * i0, abs=1e-9)
        assert zp == pytest.approx(z0 * z0, abs=1e-12)
        assert z0 - 1e-12 <= zm <= 2 * z0 - z0 * z0 + 1e-12
        assert zm + zp <= 2 * z0 + 1e-11
        # capacity/reliability inequalities for parent and both children
        for i, z in ((i0, z0), (im, zm), (ip, zp)):
            assert i * i + z * z <= 1 + 1e-9
            assert i + z >= 1 - 1e-9


def test_transform_cap_error():
    ch = Channel(np.full((1025, 2), 1.0 / 1025))
    with pytest.raises(ResourceCapError) as exc:
        polar_transform(ch, alphabet_cap=1 << 20)
    assert exc.value.flag == "--alphabet-cap"


# ---------------------------------------------------------------------------
# merging equivalent outputs
# ---------------------------------------------------------------------------

def test_merge_preserves_params(rng):
    for _ in range(25):
        ch = random_channel(rng)
        pair = polar_transform(ch)
        for raw in (pair.minus, pair.plus):
            merged = merge_equivalent_outputs(raw, 1e-12)
            assert symmetric_capacity(merged) == pytest.approx(
                symmetric_capacity(raw), abs=1e-10
            )
            assert bhattacharyya(merged) == pytest.approx(
                bhattacharyya(raw), abs=1e-10
            )


@st.composite
def _small_channels(draw):
    """A channel of at most 6 likelihood ratios, each split over up to 3
    proportional output symbols, so that merging has symbols to collapse."""
    weight = st.floats(0.0, 1.0)
    cols = np.array(draw(st.lists(st.tuples(weight, weight), min_size=1, max_size=6)))
    assume(np.all(cols.sum(axis=0) > 0.0))
    cols = cols / cols.sum(axis=0)
    rows = []
    for p in cols:
        parts = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3)))
        rows.extend(np.outer(parts / parts.sum(), p))
    return Channel(np.array(rows))


@given(_small_channels())
@example(Channel([(0.5, 0.0), (0.5, 4e-13), (0.0, 1.0 - 4e-13)]))  # posteriors 0 and 8e-13
def test_merge_preserves_params_property(ch):
    merged = merge_equivalent_outputs(ch, 1e-12)
    assert len(merged) <= len(ch)
    assert abs(symmetric_capacity(merged) - symmetric_capacity(ch)) <= 1e-12
    assert abs(bhattacharyya(merged) - bhattacharyya(ch)) <= 1e-12


def test_merge_identity_when_no_proportional_pairs():
    ch = Channel([(0.5, 0.1), (0.3, 0.4), (0.2, 0.5)])
    merged = merge_equivalent_outputs(ch, 1e-12)
    assert len(merged) == 3
    assert bhattacharyya(merged) == pytest.approx(bhattacharyya(ch), abs=1e-15)


def test_merge_sums_duplicate_symbols():
    ch = Channel([(0.35, 0.05), (0.35, 0.05), (0.3, 0.9)])
    merged = merge_equivalent_outputs(ch, 1e-12)
    assert len(merged) == 2
    assert (0.7, 0.1) in [(round(a, 12), round(b, 12)) for a, b in merged.probs.tolist()]


def test_merge_drops_zero_symbols():
    ch = Channel([(1.0, 0.0), (0.0, 1.0), (0.0, 0.0)])
    assert len(merge_equivalent_outputs(ch, 1e-12)) == 2


def test_bec_stays_three_symbol_erasure_channel_under_iteration():
    eps = 0.3
    ch = bec(eps)
    e_minus, e_plus = eps, eps
    for _ in range(4):
        pair = polar_transform(ch)
        minus = merge_equivalent_outputs(pair.minus, 1e-12)
        e_minus = 2 * e_minus - e_minus * e_minus
        assert len(minus) == 3
        assert as_bec_eps(minus) == pytest.approx(e_minus, abs=1e-12)
        ch = minus
    ch = bec(eps)
    for _ in range(4):
        pair = polar_transform(ch)
        plus = merge_equivalent_outputs(pair.plus, 1e-12)
        e_plus = e_plus * e_plus
        assert len(plus) == 3
        assert as_bec_eps(plus) == pytest.approx(e_plus, abs=1e-12)
        ch = plus


def test_as_bec_eps_rejects_bsc():
    assert as_bec_eps(bsc(0.11)) is None


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_from_json_reads_outputs_and_ignores_other_keys():
    ch = bec(0.25)
    blob = json.dumps({"label": "mine", "outputs": ch.probs.tolist(), "note": [1, 2]})
    back = bdmc.from_json_dict(json.loads(blob))
    assert np.array_equal(back.probs, ch.probs)


def test_from_json_rejects_invalid():
    with pytest.raises(ValueError):
        bdmc.from_json_dict({"outputs": [[0.5, 0.5]]})
    with pytest.raises(ValueError):
        bdmc.from_json_dict({"label": "x"})


def test_from_json_rejects_nan():
    data = json.loads('{"outputs": [[0.5, NaN], [0.5, 1.0]]}')
    with pytest.raises(ValueError, match=r"output 0: W\(y\|1\) = nan"):
        bdmc.from_json_dict(data)


def test_channel_params_pair():
    ch = bec(0.4)
    assert symmetric_capacity(ch) == pytest.approx(0.6, abs=1e-12)
    assert bhattacharyya(ch) == pytest.approx(0.4, abs=1e-12)
