import dataclasses
import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarkit import polarcode
from polarkit.bdmc import bec
from polarkit.errors import ResourceCapError
from polarkit.polarcode import (
    ERASED,
    CodeSpec,
    bec_z_spectrum,
    construct,
    encode,
    sc_decode_bec,
    simulate_bler,
    smallest_z_indices,
    wilson_interval,
)
from polarkit.zprocess import BranchWord, Rule, iterate_values

from conftest import order_violations


# ---------------------------------------------------------------------------
# Z spectrum and the index convention
# ---------------------------------------------------------------------------

def test_spectrum_one_stage():
    assert bec_z_spectrum(0.5, 1).tolist() == [0.75, 0.25]


def test_spectrum_two_stages():
    assert bec_z_spectrum(0.5, 2).tolist() == [0.9375, 0.5625, 0.4375, 0.0625]


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.9])
def test_spectrum_is_monotone_under_the_partial_order(eps):
    # Raising a 0 coin to 1 or moving a 1 one coin earlier never raises Z:
    # for the BEC the swap is (2z - z^2)^2 - (2z^2 - z^4) = 2z^2 (1 - z)^2.
    for n in (1, 8, 14):
        assert order_violations(bec_z_spectrum(eps, n)) == 0
    assert order_violations(bec_z_spectrum(eps, 4)[::-1]) > 0  # the helper sees a break


def test_spectrum_mean_is_eps():
    for n in (1, 4, 9, 14):
        z = bec_z_spectrum(0.5, n)
        assert abs(float(z.mean()) - 0.5) <= 1e-12
    for eps in (0.17, 0.62):
        z = bec_z_spectrum(eps, 10)
        assert abs(float(z.mean()) - eps) <= 1e-12


def test_spectrum_matches_process_walk_exactly():
    # Cross-module consistency: spectrum[i] equals the plain-float extremal
    # walk along the branch word of i, bit for bit.
    for eps in (0.3, 0.5, 0.71):
        for n in (1, 3, 6):
            z = bec_z_spectrum(eps, n)
            for i in range(1 << n):
                word = BranchWord.from_index(i, n)
                assert z[i] == iterate_values(eps, word, Rule.EXTREMAL)[-1]


def test_index_word_bijection():
    n = 5
    seen = set()
    for i in range(1 << n):
        w = BranchWord.from_index(i, n)
        assert w.to_index() == i
        seen.add(w.bits)
    assert len(seen) == 1 << n


def test_spectrum_cap():
    with pytest.raises(ResourceCapError) as exc:
        bec_z_spectrum(0.5, 27)
    assert exc.value.flag == "--spectrum-cap"


@pytest.mark.parametrize("cap", [math.nan, -1, -0.5])
def test_spectrum_refuses_a_cap_that_turns_its_guard_off(cap):
    # NaN fails every comparison, so n > cap would never refuse.
    for call in (lambda: bec_z_spectrum(0.3, 3, cap=cap), lambda: construct(0.3, 3, 0.5, cap=cap)):
        with pytest.raises(ValueError, match=f"^spectrum cap must be at least 0, got {cap}$"):
            call()
    assert bec_z_spectrum(0.3, 0, cap=0).tolist() == [0.3]


def test_spectrum_rejects_degenerate_eps():
    for eps in (0.0, 1.0):
        with pytest.raises(ValueError):
            bec_z_spectrum(eps, 3)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_construct_quarter_rate():
    spec = construct(0.5, 2, 0.25)
    assert spec.info_set.tolist() == [3]
    assert spec.gamma == 0.0625
    assert spec.union_bound == 0.0625


def test_construct_half_rate():
    spec = construct(0.5, 2, 0.5)
    assert spec.info_set.tolist() == [2, 3]
    assert spec.union_bound == pytest.approx(0.5, abs=1e-15)


def test_construct_full_set_limit():
    spec = construct(0.5, 2, 1.0)
    assert spec.info_set.tolist() == [0, 1, 2, 3]
    assert spec.union_bound == pytest.approx(float(spec.z_values.sum()), abs=1e-15)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: construct(0.4, 4, 0.0), r"rate must lie inside \(0, 1\], got 0.0"),
        (lambda: simulate_bler(construct(0.4, 4, 0.5), 1.0, 10, 0),
         r"erasure probability must lie in \[0, 1\), got 1.0"),
        (lambda: wilson_interval(0, 0), "trials must be positive"),
    ],
    ids=["construct-rate", "simulate-eps", "wilson-trials"],
)
def test_input_checks_name_the_fault(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_construct_k_is_floored():
    spec = construct(0.4, 3, 0.3)  # 0.3 * 8 = 2.4 -> K = 2
    assert spec.k == 2
    assert spec.rate == 0.25


def test_selection_matches_sort_on_random_triples(rng):
    for _ in range(50):
        eps = float(rng.uniform(0.05, 0.95))
        n = int(rng.integers(1, 9))
        rate = float(rng.uniform(0.1, 0.9))
        spec = construct(eps, n, rate)
        z = spec.z_values
        chosen = sorted(z[spec.info_set])
        best = sorted(np.sort(z)[: spec.k])
        assert chosen == pytest.approx(best, rel=0, abs=0)


def test_selection_ties_break_toward_higher_index():
    z = np.array([0.5, 0.2, 0.2, 0.9, 0.2])
    assert smallest_z_indices(z, 1).tolist() == [4]
    assert smallest_z_indices(z, 2).tolist() == [2, 4]
    assert smallest_z_indices(z, 3).tolist() == [1, 2, 4]
    assert smallest_z_indices(z, 4).tolist() == [0, 1, 2, 4]


def _up_set_violations(spec) -> int:
    # The moves of a chosen index that are not chosen: order_violations of
    # 0 on the information set and 1 off it.
    outside = np.ones(spec.block_length)
    outside[spec.info_set] = 0.0
    return order_violations(outside)


@pytest.mark.parametrize("n", [8, 12, 16])
def test_information_sets_are_up_sets(n):
    # Every move of a chosen index is chosen too.  Ties at the K boundary
    # broken toward the lower index broke this from eps = 0.6, n = 12,
    # R = 0.75 on (844 violations there).
    for eps in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
        for rate in (0.1, 0.25, 0.42, 0.5, 0.75):
            assert _up_set_violations(construct(eps, n, rate)) == 0


def test_information_set_of_underflowed_ties_is_an_up_set():
    # At eps = 0.3, n = 20 the float spectrum holds 356,491 zeros, and the
    # 262,144 indices of R = 0.25 are all chosen among them; the lower-index
    # rule chose 94,347 others.
    spec = construct(0.3, 20, 0.25)
    assert np.count_nonzero(spec.z_values == 0.0) == 356_491
    assert _up_set_violations(spec) == 0


def test_union_bound_invariant():
    spec = construct(0.4, 6, 0.5)
    assert spec.union_bound <= spec.block_length * spec.gamma + 1e-15


@pytest.mark.parametrize(
    "field, changes",
    [
        ("n", {"n": -1}),
        ("n", {"n": 2.0}),
        ("info_set", {"info_set": [-1, 3]}),  # -1 would alias index 3
        ("info_set", {"info_set": [4]}),
        ("info_set", {"info_set": [1, 1]}),
        ("info_set", {"info_set": [0.5, 3.0]}),
        ("info_set", {"info_set": [True, False, True, True]}),
        ("info_set", {"info_set": [[2, 3]]}),
        ("z_values", {"z_values": np.full(3, 0.5)}),
        ("z_values", {"z_values": np.full(8, 0.5)}),
        ("frozen_value", {"frozen_value": 2}),
        ("frozen_value", {"frozen_value": -1}),
    ],
    ids=["negative-n", "float-n", "negative-index", "index-past-n", "repeated-index",
         "float-indices", "boolean-mask", "nested-indices", "short-z", "long-z",
         "frozen-two", "frozen-negative"],
)
def test_code_spec_rejects_bad_fields(field, changes):
    fields = dict(n=2, eps=0.5, info_set=[2, 3], z_values=bec_z_spectrum(0.5, 2))
    with pytest.raises(ValueError, match=f"CodeSpec.{field} "):
        CodeSpec(**{**fields, **changes})


def test_code_spec_accepts_empty_and_unsorted_info_sets():
    z = bec_z_spectrum(0.5, 2)
    assert CodeSpec(n=2, eps=0.5, info_set=[], z_values=z).k == 0
    assert CodeSpec(n=0, eps=0.5, info_set=[0], z_values=[0.5], frozen_value=1).k == 1
    spec = CodeSpec(n=2, eps=0.5, info_set=np.array([3, 0], dtype=np.uint8), z_values=z)
    assert spec.info_set.tolist() == [3, 0]


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def _all_info_spec(n: int) -> CodeSpec:
    big_n = 1 << n
    return CodeSpec(
        n=n,
        eps=0.5,
        info_set=np.arange(big_n),
        z_values=bec_z_spectrum(0.5, n),
    )


def _generator_matrix(n: int) -> np.ndarray:
    spec = _all_info_spec(n)
    big_n = 1 << n
    rows = []
    for i in range(big_n):
        e = np.zeros(big_n, dtype=np.uint8)
        e[i] = 1
        rows.append(encode(spec, e))
    return np.array(rows, dtype=np.uint8)


def test_encode_single_butterfly():
    spec = _all_info_spec(1)
    for u1, u2 in itertools.product((0, 1), repeat=2):
        cw = encode(spec, np.array([u1, u2], dtype=np.uint8))
        assert cw.tolist() == [u1 ^ u2, u2]


def test_encode_zero_message():
    spec = construct(0.5, 4, 0.5)
    assert encode(spec, np.zeros(spec.k, dtype=np.uint8)).tolist() == [0] * 16


def test_encode_row_zero_pattern():
    g = _generator_matrix(2)
    spec = _all_info_spec(2)
    cw = encode(spec, np.array([1, 0, 0, 0], dtype=np.uint8))
    assert cw.tolist() == g[0].tolist()


def test_encode_is_linear(rng):
    spec = construct(0.4, 5, 0.6)
    for _ in range(20):
        m1 = rng.integers(0, 2, spec.k).astype(np.uint8)
        m2 = rng.integers(0, 2, spec.k).astype(np.uint8)
        assert np.array_equal(encode(spec, m1 ^ m2), encode(spec, m1) ^ encode(spec, m2))


def test_encode_generator_is_invertible():
    for n in (1, 2, 3, 4):
        g = _generator_matrix(n)
        assert _gf2_rank(g.copy()) == 1 << n


def _random_code(rng, n: int, frozen_value: int) -> CodeSpec:
    mask = rng.random(1 << n) < rng.uniform(0.2, 0.8)
    return CodeSpec(
        n=n, eps=0.5, info_set=np.flatnonzero(mask), z_values=bec_z_spectrum(0.5, n),
        frozen_value=frozen_value,
    )


@pytest.mark.parametrize("frozen_value", [0, 1])
def test_encode_matches_kronecker_generator(rng, frozen_value):
    # x = u B_N F^(x)n mod 2 with the Kronecker power built by np.kron and
    # B_N the bit-reversal rows, written out per index; n = 0..3 have
    # blocks shorter than a byte.
    for n in range(11):
        big_n = 1 << n
        f = np.array([[1, 0], [1, 1]], dtype=np.int64)
        kron = np.ones((1, 1), dtype=np.int64)
        for _ in range(n):
            kron = np.kron(kron, f)
        rev = [int(format(i, f"0{n}b")[::-1], 2) if n else 0 for i in range(big_n)]
        g = kron[rev]
        for _ in range(3):
            spec = _random_code(rng, n, frozen_value)
            msg = rng.integers(0, 2, spec.k, dtype=np.uint8)
            u = np.full(big_n, frozen_value, dtype=np.int64)
            u[spec.info_set] = msg
            x = encode(spec, msg)
            assert x.dtype == np.uint8
            assert x.tolist() == ((u @ g) % 2).tolist()


def _encode_by_definition(u: np.ndarray) -> np.ndarray:
    """x = u G by the recursion x[0::2] = enc(u_lo) ^ enc(u_hi), x[1::2] = enc(u_hi).

    All subproblems of a level run at once: row r of level k holds the
    codeword of the r-th block of 2^k positions of u, and rows 2r and 2r + 1
    are the low and high halves of the next level's block r.
    """
    x = u.astype(np.uint8)[:, None]
    while x.shape[0] > 1:
        lo, hi = x[0::2], x[1::2]
        nxt = np.empty((lo.shape[0], 2 * lo.shape[1]), dtype=np.uint8)
        nxt[:, 0::2] = lo ^ hi
        nxt[:, 1::2] = hi
        x = nxt
    return x[0]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 13, 16])
@pytest.mark.parametrize("frozen_value", [0, 1])
def test_encode_matches_even_odd_definition(rng, n, frozen_value):
    spec = _random_code(rng, n, frozen_value)
    msg = rng.integers(0, 2, spec.k, dtype=np.uint8)
    u = np.full(1 << n, frozen_value, dtype=np.uint8)
    u[spec.info_set] = msg
    assert np.array_equal(encode(spec, msg), _encode_by_definition(u))


@pytest.mark.parametrize(
    "message",
    [[0.7, 1.2, 0, 1], [-1, 0, 0, 1], [math.nan, 0, 0, 1], [2, 0, 0, 1], [256, 0, 0, 1]],
    ids=["fractional", "negative", "nan", "two", "wraps-to-zero"],
)
def test_encode_rejects_non_binary_messages(message):
    spec = construct(0.4, 3, 0.5)
    with pytest.raises(ValueError, match="message bits must be 0 or 1"):
        encode(spec, message)


def test_encode_length_mismatch():
    spec = construct(0.5, 3, 0.5)
    with pytest.raises(ValueError):
        encode(spec, np.zeros(spec.k + 1, dtype=np.uint8))


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def _gf2_rank(m: np.ndarray) -> int:
    m = m.copy() % 2
    rank = 0
    rows, cols = m.shape
    for col in range(cols):
        pivots = np.flatnonzero(m[rank:, col]) + rank
        if pivots.size == 0:
            continue
        p = pivots[0]
        m[[rank, p]] = m[[p, rank]]
        hits = np.flatnonzero(m[:, col])
        hits = hits[hits != rank]
        m[hits] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def _matrix_decodable(g: np.ndarray, info_set, unerased_cols) -> bool:
    # Unique ML decoding iff the info rows restricted to unerased columns
    # have full row rank over GF(2).
    sub = g[np.asarray(info_set)][:, np.asarray(unerased_cols, dtype=bool)]
    if sub.shape[0] == 0:
        return True
    return _gf2_rank(sub) == sub.shape[0]


def test_decode_clean_channel_identity(rng):
    for _ in range(100):
        n = int(rng.integers(1, 8))
        spec = construct(float(rng.uniform(0.1, 0.9)), n, float(rng.uniform(0.1, 0.9)))
        if spec.k == 0:
            continue
        msg = rng.integers(0, 2, spec.k).astype(np.uint8)
        decoded = sc_decode_bec(spec, encode(spec, msg).astype(np.int8))
        assert decoded is not None and np.array_equal(decoded, msg)


def test_decode_all_erased_fails():
    spec = construct(0.5, 3, 0.5)
    received = np.full(8, ERASED, dtype=np.int8)
    assert sc_decode_bec(spec, received) is None


def test_decode_single_erasure_repetition_code():
    spec = construct(0.5, 2, 0.25)
    msg = np.array([1], dtype=np.uint8)
    cw = encode(spec, msg).astype(np.int8)
    for pos in range(4):
        rec = cw.copy()
        rec[pos] = ERASED
        out = sc_decode_bec(spec, rec)
        assert out is not None and np.array_equal(out, msg)


def test_decode_failure_probability_equals_z_exhaustive():
    # With a single information index i the decoder fails exactly when the
    # synthesized channel i erases, so the failing-pattern fraction at
    # eps = 1/2 must equal z_values[i] (a dyadic rational) exactly.
    for n in (2, 3):
        big_n = 1 << n
        z = bec_z_spectrum(0.5, n)
        for i in range(big_n):
            spec = CodeSpec(
                n=n, eps=0.5, info_set=np.array([i]), z_values=z,
            )
            cw = encode(spec, np.array([1], dtype=np.uint8)).astype(np.int8)
            failures = 0
            for pattern in itertools.product((False, True), repeat=big_n):
                rec = cw.copy()
                rec[np.array(pattern)] = ERASED
                if sc_decode_bec(spec, rec) is None:
                    failures += 1
            assert failures / (1 << big_n) == z[i]


def test_decode_never_wrong_only_erased():
    # Exhaustive: whenever the decoder answers, the answer is right, and the
    # matrix oracle proves every pattern the decoder solves is solvable.
    spec = construct(0.5, 2, 0.5)
    g = _generator_matrix(2)
    for msg_bits in itertools.product((0, 1), repeat=spec.k):
        msg = np.array(msg_bits, dtype=np.uint8)
        cw = encode(spec, msg).astype(np.int8)
        for pattern in itertools.product((False, True), repeat=4):
            rec = cw.copy()
            rec[np.array(pattern)] = ERASED
            out = sc_decode_bec(spec, rec)
            if out is not None:
                assert np.array_equal(out, msg)
                assert _matrix_decodable(g, spec.info_set, ~np.array(pattern))


def _reference_decode_batch(spec: CodeSpec, received: np.ndarray):
    """Value-carrying SC over the BEC, one numpy pass per tree node.

    The reference for the simulator's flag-driven failures and the pruned
    pass of the library: every node of the SC tree is visited, beliefs are
    three-valued (0 / 1 / ERASED), and an information bit whose belief is
    still erased is a failure.  Returns (messages, failed); the message
    content of a failed row is arbitrary.
    """
    rec = np.ascontiguousarray(received, dtype=np.int8)
    trials, big_n = rec.shape
    info_mask = np.zeros(big_n, dtype=bool)
    info_mask[spec.info_set] = True
    u = np.empty((trials, big_n), dtype=np.int8)
    failed = np.zeros(trials, dtype=bool)
    frozen = np.int8(spec.frozen_value)

    def node(beliefs: np.ndarray, lo: int) -> np.ndarray:
        size = beliefs.shape[1]
        if size == 1:
            if info_mask[lo]:
                bit = beliefs[:, 0]
                erased = bit < 0
                failed[erased] = True
                bit = np.where(erased, np.int8(0), bit)
            else:
                bit = np.full(trials, frozen, dtype=np.int8)
            u[:, lo] = bit
            return bit[:, None]
        y1 = beliefs[:, 0::2]
        y2 = beliefs[:, 1::2]
        minus = np.where((y1 >= 0) & (y2 >= 0), y1 ^ y2, np.int8(ERASED))
        a = node(minus, lo)
        plus = np.where(y2 >= 0, y2, np.where(y1 >= 0, y1 ^ a, np.int8(ERASED)))
        b = node(plus, lo + size // 2)
        x = np.empty_like(beliefs)
        x[:, 0::2] = a ^ b
        x[:, 1::2] = b
        return x

    node(rec, 0)
    del node
    return u[:, spec.info_set].astype(np.uint8), failed


def _received_words(spec: CodeSpec, rng, trials: int, eps: float):
    """Random messages, their codewords, and the codewords through BEC(eps)."""
    msgs = rng.integers(0, 2, size=(trials, spec.k), dtype=np.uint8)
    cws = np.array([encode(spec, m) for m in msgs], dtype=np.uint8).reshape(trials, -1)
    erased = rng.random(cws.shape) < eps
    return msgs, erased, np.where(erased, np.int8(ERASED), cws.astype(np.int8))


def test_batch_decode_matches_single(rng):
    spec = construct(0.4, 6, 0.5)
    _, _, received = _received_words(spec, rng, 32, 0.4)
    batch_out, batch_fail = _reference_decode_batch(spec, received)
    assert 0 < batch_fail.sum() < 32
    for t in range(32):
        single = sc_decode_bec(spec, received[t])
        assert batch_fail[t] == (single is None)
        if single is not None:
            assert np.array_equal(batch_out[t], single)


@st.composite
def _codes(draw):
    """A code of n <= 8 stages with an arbitrary information set and frozen value."""
    n = draw(st.integers(0, 8))
    big_n = 1 << n
    mask = np.array(draw(st.lists(st.booleans(), min_size=big_n, max_size=big_n)))
    return CodeSpec(
        n=n, eps=0.5, info_set=np.flatnonzero(mask), z_values=bec_z_spectrum(0.5, n),
        frozen_value=draw(st.sampled_from([0, 1])),
    )


def _assert_decoders_agree(spec, msgs, erased, received):
    # The pruned decoder fails exactly when the reference does, and
    # otherwise returns the sent message; so do the simulator's per-trial
    # failure flags, computed from the erasures alone.
    ref_out, ref_fail = _reference_decode_batch(spec, received)
    for t in range(len(received)):
        out = sc_decode_bec(spec, received[t])
        assert (out is None) == ref_fail[t]
        if out is not None:
            assert np.array_equal(out, msgs[t])
            assert np.array_equal(out, ref_out[t])
    flags = np.packbits(erased.T, axis=1, bitorder="little")
    assert np.array_equal(polarcode._failed(spec, flags, len(received)), ref_fail)


@settings(max_examples=200, deadline=None)
@given(_codes(), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_decoder_matches_reference(spec, eps, seed):
    # Random erasures on real codewords.
    _assert_decoders_agree(spec, *_received_words(spec, np.random.default_rng(seed), 12, eps))


@st.composite
def _node_codes(draw):
    """A code whose information leaves form one REP or SPC node, and an
    erasure pattern that erases 1, 2 or all of that node's beliefs.

    Belief j of a node at depth d depends only on the channel block
    [j 2^d, (j+1) 2^d), and is erased when the whole block is.  The other
    leaves are frozen, so the node alone decides whether the word fails.
    """
    kind = draw(st.sampled_from(["rep", "spc"]))
    smallest = 1 if kind == "rep" else 2  # log2 leaves: REP needs 2, SPC 4 (2 is REP)
    n = draw(st.integers(smallest, 8))
    depth = draw(st.integers(0, n - smallest))
    size = 1 << (n - depth)
    lo = draw(st.integers(0, (1 << depth) - 1)) * size
    info_set = [lo + size - 1] if kind == "rep" else list(range(lo + 1, lo + size))
    count = draw(st.sampled_from([1, 2, size]))
    beliefs = draw(st.permutations(range(size)))[:count]
    mask = np.zeros((size, 1 << depth), dtype=bool)
    mask[beliefs] = True
    spec = CodeSpec(
        n=n, eps=0.5, info_set=np.array(info_set), z_values=bec_z_spectrum(0.5, n),
        frozen_value=draw(st.sampled_from([0, 1])),
    )
    return spec, mask.ravel()


@settings(max_examples=200, deadline=None)
@given(_node_codes(), st.integers(0, 2**32 - 1))
def test_decoder_matches_reference_at_rep_and_spc_nodes(case, seed):
    # Two or more erased beliefs fail an SPC node, all of them a REP node.
    spec, mask = case
    msgs = np.random.default_rng(seed).integers(0, 2, size=(2, spec.k), dtype=np.uint8)
    cws = np.array([encode(spec, m) for m in msgs], dtype=np.int8)
    erased = np.broadcast_to(mask, cws.shape)
    _assert_decoders_agree(spec, msgs, erased, np.where(erased, np.int8(ERASED), cws))


@pytest.mark.parametrize("n, rates", [(10, (0.25, 0.5, 0.8)), (12, (0.3, 0.6)), (13, (0.5,))])
def test_decoder_matches_reference_at_word_spanning_widths(n, rates):
    # The pruned decoder's beliefs are N-bit ints, hundreds of machine
    # words wide at these n; channel erasure rates below and above the
    # design rate give decoded and failed words alike.
    rng = np.random.default_rng(n)
    for rate in rates:
        spec = construct(0.3, n, rate)
        words = [_received_words(spec, rng, 2, eps) for eps in (0.05, 0.2, 0.35, 0.5)]
        _assert_decoders_agree(spec, *(np.concatenate(parts) for parts in zip(*words)))


@pytest.mark.parametrize("n, rates", [(10, (0.25, 0.5, 0.8)), (12, (0.3, 0.6)), (13, (0.5,))])
def test_decoder_matches_reference_at_word_spanning_widths_frozen_one(n, rates):
    # As above with every frozen bit 1: the decoder XORs the word that
    # encodes the frozen pattern into its N-bit beliefs.
    rng = np.random.default_rng(n + 100)
    for rate in rates:
        spec = dataclasses.replace(construct(0.3, n, rate), frozen_value=1)
        words = [_received_words(spec, rng, 2, eps) for eps in (0.05, 0.2, 0.35, 0.5)]
        _assert_decoders_agree(spec, *(np.concatenate(parts) for parts in zip(*words)))


def test_bit_reversal_matches_per_index_reversal():
    for n in range(13):
        naive = [int(format(i, f"0{n}b")[::-1], 2) if n else 0 for i in range(1 << n)]
        assert polarcode._bit_reversal(n).tolist() == naive


def _even_odd_levels(flags):
    """Out-of-place even/odd flag butterfly: each level splits every block of
    positions into e1 (even) and e2 (odd) and writes e1 | e2 before e1 & e2,
    so row i ends as channel i's flag, in natural order."""
    big_n = flags.shape[0]
    rows = 1
    while rows < big_n:
        blk = flags.reshape(rows, big_n // rows, *flags.shape[1:])
        e1, e2 = blk[:, 0::2], blk[:, 1::2]
        out = np.empty((rows, 2, *e1.shape[1:]), dtype=flags.dtype)
        np.bitwise_or(e1, e2, out=out[:, 0])
        np.bitwise_and(e1, e2, out=out[:, 1])
        flags = out.reshape(flags.shape)
        rows *= 2
    return flags


@pytest.mark.parametrize("words", [1, 3, 64])
def test_in_place_flag_butterfly_matches_the_even_odd_oracle(words):
    # Natural order in, bit-reversed order out: row rev(i) of the in-place
    # pass is row i of the even/odd pass, bit for bit.  One and three words
    # a row run the short levels column by column.
    rng = np.random.default_rng(words)
    for n in range(14):
        flags = rng.integers(0, 2**64, size=(1 << n, words), dtype=np.uint64)
        oracle = _even_odd_levels(flags.copy())
        polarcode._polar_levels(flags)
        assert np.array_equal(flags[polarcode._bit_reversal(n)], oracle), n


def test_bit_reversal_is_built_once_per_code(monkeypatch):
    # The encoder, the decoder input and the simulator's information rows
    # share one permutation per CodeSpec; no call or chunk rebuilds it.
    calls = []
    build = polarcode._bit_reversal
    monkeypatch.setattr(polarcode, "_bit_reversal", lambda n: calls.append(n) or build(n))
    spec = construct(0.4, 12, 0.5)
    msg = np.ones(spec.k, dtype=np.uint8)
    for _ in range(3):
        received = encode(spec, msg).astype(np.int8)
        assert np.array_equal(sc_decode_bec(spec, received), msg)
        assert simulate_bler(spec, 0.4, 9000, seed=2, threads=2).trials == 9000  # three chunks
    assert calls == [12]
    assert not spec.bit_reversal.flags.writeable
    assert spec.info_flag_rows.tolist() == sorted(build(12)[spec.info_set].tolist())


def test_info_bits_is_built_once_per_code(monkeypatch):
    # The decoder packs only the received word on each call; the
    # information set's int is packed on first use and kept on the code.
    spec = construct(0.4, 10, 0.5)
    received = encode(spec, np.ones(spec.k, dtype=np.uint8)).astype(np.int8)
    calls = []
    pack = polarcode._bits_to_int
    monkeypatch.setattr(polarcode, "_bits_to_int", lambda bits: calls.append(bits.size) or pack(bits))
    for _ in range(3):
        assert sc_decode_bec(spec, received) is not None
    assert len(calls) == 2 * 3 + 1  # known and value words per call, the information set once
    assert spec.info_bits == sum(1 << int(i) for i in spec.info_set)


@pytest.mark.parametrize(
    "info_set, erased",
    [
        # Info {3..7}: the root splits into a REP node over the minus
        # beliefs (leaves 0..3) and a rate-1 node over the plus beliefs
        # (leaves 4..7).  Erasing positions 0 and 1 erases one plus belief.
        ([3, 4, 5, 6, 7], [1, 0]),
        # Same code: one erasure in every pair erases all four minus beliefs.
        ([3, 4, 5, 6, 7], [0, 2, 4, 6]),
        # Info {5, 6, 7}: zeros on the minus side, an SPC node on the plus
        # side; erasing both pairs 0-1 and 2-3 erases two of its beliefs.
        ([5, 6, 7], [0, 1, 2, 3]),
    ],
    ids=["rate-1", "rep", "spc"],
)
def test_each_failure_rule_of_the_pruned_pass(info_set, erased):
    # The word fails at the named node; one erasure fewer decodes.
    spec = CodeSpec(n=3, eps=0.5, info_set=np.array(info_set), z_values=bec_z_spectrum(0.5, 3))
    msg = np.arange(spec.k, dtype=np.uint8) % 2
    cw = encode(spec, msg).astype(np.int8)
    received = np.array([cw, cw])
    received[0, erased] = ERASED
    received[1, erased[:-1]] = ERASED
    ref_out, ref_fail = _reference_decode_batch(spec, received)
    assert ref_fail.tolist() == [True, False]
    assert np.array_equal(ref_out[1], msg)
    assert sc_decode_bec(spec, received[0]) is None
    out = sc_decode_bec(spec, received[1])
    assert out is not None and np.array_equal(out, msg)


def test_simulate_counts_the_reference_failures():
    # Replays the simulator's stream chunk by chunk (erasures only, one
    # position-major word block per chunk of 64 * (2^18 // N) trials, chunk
    # k drawn from child k of SeedSequence(seed)) through encoder and
    # reference decoder.  2100 trials at N=8192 are a chunk of 2048 trials
    # and one of 52, whose last word has 12 padding lanes.  At eps = 0.485
    # both chunks have failures, so a stream that seeds the second chunk
    # wrongly changes the count.  The messages come from a separate
    # generator: the simulator draws none.
    spec = construct(0.4, 13, 0.42)
    seed, eps, sizes = 11, 0.485, (2048, 52)
    trials = sum(sizes)
    erased = np.concatenate(
        [
            np.unpackbits(
                polarcode._erasure_words(
                    np.random.default_rng(ss).bit_generator, eps, (spec.block_length, -(-t // 64))
                ).view(np.uint8),
                axis=1, count=t, bitorder="little",
            )
            for ss, t in zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes)
        ],
        axis=1,
    ).T.astype(bool)
    msgs = np.random.default_rng(seed).integers(0, 2, size=(trials, spec.k), dtype=np.uint8)
    cws = np.array([encode(spec, m) for m in msgs])
    received = np.where(erased, np.int8(ERASED), cws.astype(np.int8))
    out, failed = _reference_decode_batch(spec, received)
    bad = failed | (out != msgs).any(axis=1)
    first = int(bad[: sizes[0]].sum())
    assert 0 < first < sizes[0] and 0 < bad.sum() - first < sizes[1]
    assert simulate_bler(spec, eps, sizes[0], seed).failures == first
    assert simulate_bler(spec, eps, trials, seed).failures == bad.sum()


def _likelihood_sc_decode(channel, info_set, symbols, n, frozen_value):
    """Oracle: SC decoding over an arbitrary B-DMC in the likelihood domain.

    symbols are indices into the channel's output alphabet, one per use.
    Ties at an information bit go to 0 (the erasure decoder refuses
    instead).  The likelihood rows are gathered once by the bit-reversal
    permutation, so each node splits into low and high halves, and the pass
    returns the re-encoded decisions reversed: the message is one butterfly,
    u = x[rev] F^(x)n.
    """
    big_n = 1 << n
    info_mask = np.zeros(big_n, dtype=bool)
    info_mask[info_set] = True
    bel = channel.probs[np.asarray(symbols)[polarcode._bit_reversal(n)]]
    x = _likelihood_node(bel, 0, info_mask, frozen_value)
    u = polarcode._butterfly(polarcode._bits_to_int(x), big_n)
    return polarcode._int_to_bits(u, big_n)[info_set]


def _likelihood_node(bel, lo, info_mask, frozen_value):
    """Re-encoded SC decisions x[rev] over leaves lo.. from (size, 2) likelihood
    pairs in bit-reversed order, so a node's even and odd pairs are its low
    and high halves."""
    size = bel.shape[0]
    if size == 1:
        bit = (0 if bel[0, 0] >= bel[0, 1] else 1) if info_mask[lo] else frozen_value
        return np.array([bit], dtype=np.uint8)
    y1, y2 = bel[: size // 2], bel[size // 2 :]
    minus = np.empty((size // 2, 2))
    minus[:, 0] = y1[:, 0] * y2[:, 0] + y1[:, 1] * y2[:, 1]
    minus[:, 1] = y1[:, 1] * y2[:, 0] + y1[:, 0] * y2[:, 1]
    a = _likelihood_node(_normalized(minus), lo, info_mask, frozen_value)
    idx = np.arange(size // 2)
    plus = np.empty((size // 2, 2))
    plus[:, 0] = y1[idx, a] * y2[:, 0]
    plus[:, 1] = y1[idx, 1 - a] * y2[:, 1]
    b = _likelihood_node(_normalized(plus), lo + size // 2, info_mask, frozen_value)
    return np.concatenate((a ^ b, b))


def _normalized(pairs):
    s = pairs.sum(axis=1, keepdims=True)
    return np.divide(pairs, s, out=pairs, where=s > 0)


def test_dmc_decoder_agrees_with_erasure_decoder(rng):
    # BEC as an explicit 3-symbol DMC: outputs 0 and 1 reveal the bit,
    # output 2 is the erasure.  Wherever the erasure decoder succeeds the
    # likelihood oracle must return the same message, for either frozen value.
    ch = bec(0.5)
    compared = 0
    for n, rate, frozen_value in itertools.product((2, 3), (0.25, 0.5, 0.75), (0, 1)):
        spec = dataclasses.replace(construct(0.5, n, rate), frozen_value=frozen_value)
        msg = rng.integers(0, 2, size=spec.k, dtype=np.uint8)
        cw = encode(spec, msg)
        for pattern in itertools.product((False, True), repeat=1 << n):
            pattern = np.array(pattern)
            out = sc_decode_bec(spec, np.where(pattern, np.int8(ERASED), cw.astype(np.int8)))
            if out is not None:
                symbols = np.where(pattern, 2, cw)
                oracle = _likelihood_sc_decode(ch, spec.info_set, symbols, n, frozen_value)
                assert np.array_equal(oracle, out) and np.array_equal(out, msg)
                compared += 1
    assert compared == 840


def test_decode_rejects_wrong_length():
    spec = construct(0.5, 3, 0.5)
    with pytest.raises(ValueError):
        sc_decode_bec(spec, np.zeros(4, dtype=np.int8))


@pytest.mark.parametrize(
    "received, position",
    [
        ([2, 0, 0, 0], 0),
        (np.array([0, 0, 255, 0], dtype=np.uint8), 2),
        ([0, float("nan"), 0, 0], 1),
        ([0, 0, 0, 0.7], 3),
    ],
    ids=["two", "uint8-255", "nan", "fraction"],
)
def test_decode_rejects_symbols_outside_alphabet(received, position):
    spec = construct(0.5, 2, 0.5)
    with pytest.raises(ValueError, match=f"position {position} "):
        sc_decode_bec(spec, received)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_simulate_zero_eps_never_fails():
    spec = construct(0.5, 4, 0.5)
    result = simulate_bler(spec, 0.0, 500, seed=1)
    assert result.failures == 0
    assert result.bler == 0.0


def test_simulate_deterministic_per_seed():
    spec = construct(0.5, 4, 0.5)
    r1 = simulate_bler(spec, 0.5, 4000, seed=9)
    r2 = simulate_bler(spec, 0.5, 4000, seed=9)
    assert r1 == r2


def test_simulate_threads_do_not_change_result():
    spec = construct(0.5, 5, 0.5)
    r1 = simulate_bler(spec, 0.4, 70000, seed=3, threads=1)
    r2 = simulate_bler(spec, 0.4, 70000, seed=3, threads=4)
    assert r1 == r2


def test_simulate_threads_do_not_change_result_across_draw_chunks():
    # At N = 2^14 a chunk is one draw of 1024 trials, so 3000 trials span
    # three chunks for the workers to split.
    spec = construct(0.4, 14, 0.5)
    r1 = simulate_bler(spec, 0.4, 3000, seed=3, threads=1)
    assert 0 < r1.failures < r1.trials
    assert simulate_bler(spec, 0.4, 3000, seed=3, threads=3) == r1


def test_simulate_matches_exhaustive_oracle():
    # n=2, rate=1/4, eps=1/2: the matrix oracle over all 16 patterns gives
    # exactly one undecodable pattern, so the true BLER is 1/16.
    g = _generator_matrix(2)
    spec = construct(0.5, 2, 0.25)
    failing = sum(
        not _matrix_decodable(g, spec.info_set, ~np.array(p))
        for p in itertools.product((False, True), repeat=4)
    )
    exact = failing / 16
    assert exact == 0.0625
    result = simulate_bler(spec, 0.5, 200_000, seed=0)
    assert result.ci_low <= exact <= result.ci_high


def test_simulate_memory_stays_within_draw_blocks():
    # 8192 trials at N=8192 would hold 512 MB of erasure uniforms if drawn
    # as doubles; in chunks of 2048 trials, each one packed draw of 2^18
    # words taken in pieces and then overwritten by its flags in place,
    # the traced peak stays near 7 MB (the sampler's words, live lanes and
    # their positions, 2 MB each).
    spec = construct(0.4, 13, 0.5)
    tracemalloc.start()
    try:
        simulate_bler(spec, 0.4, 8192, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_simulate_memory_at_n20_stays_within_word_columns():
    # At N = 2^20 a chunk is one draw of one word a position (64 trials);
    # the sampler holds three 8 N-byte columns (words, live lanes, their
    # positions) and the in-place butterfly none; the code's cached
    # bit-reversal permutation is one more, under five in all.
    spec = construct(0.4, 20, 0.5)
    tracemalloc.start()
    try:
        simulate_bler(spec, 0.4, 64, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 8 * 2**20


class _ScriptedBits:
    """Stands in for rng.bit_generator: hands out the given words in order."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)
        self.sizes = []

    def random_raw(self, size):
        used = sum(self.sizes)
        self.sizes.append(size)
        return self.words[used : used + size].copy()


@pytest.mark.parametrize("eps", [0.4, 0.3, 3 / 8, 1e-3, 0.999, 0.5, 2.0**-40, 1 - 2.0**-53])
def test_erasure_words_match_the_scripted_threshold(eps):
    # With one word every round draws one word, so lane j's 53-bit k is bit
    # j of the scripted words in order, most significant first; the lane is
    # erased exactly when k < ceil(eps 2^53), the event rng.random() < eps.
    # Lanes 0 and 1 are scripted to k = m - 1 and k = m, the other 62 at random.
    m = math.ceil(eps * 2**53)
    rng = np.random.default_rng(int(eps * 1e6))
    for _ in range(20):
        script = rng.integers(0, 2**64, size=53, dtype=np.uint64)
        for r in range(53):
            low = (m - 1) >> (52 - r) & 1 | (m >> (52 - r) & 1) << 1
            script[r] = script[r] & ~np.uint64(3) | np.uint64(low)
        bits = _ScriptedBits(script)
        word = int(polarcode._erasure_words(bits, eps, (1, 1))[0, 0])
        assert set(bits.sizes) <= {1} and len(bits.sizes) <= 53
        for j in range(64):
            k = sum((int(script[r]) >> j & 1) << (52 - r) for r in range(53))
            assert (word >> j & 1) == (k < m), (j, k, m)


def _one_shot_erasure_words(bitgen, eps, shape):
    """The sampler drawing each round's words in one random_raw call and
    compacting by fresh arrays."""
    m = math.ceil(eps * 2.0**53)
    out = np.zeros(math.prod(shape), dtype=np.uint64)
    live = np.full(out.size, np.uint64(2**64 - 1))
    at = slice(None)
    for r in range(53):
        if not (m & ((1 << (53 - r)) - 1) and live.size):
            break
        w = bitgen.random_raw(live.size)
        w &= live
        live ^= w
        if m >> (52 - r) & 1:
            out[at] |= live
            live = w
        if r >= polarcode._DENSE_ROUNDS - 1:
            keep = np.flatnonzero(live != 0)
            live = live[keep]
            at = keep if r == polarcode._DENSE_ROUNDS - 1 else at[keep]
    return out.reshape(shape)


@pytest.mark.parametrize("shape", [(1024, 256), (8192, 5), (3, 7)])
@pytest.mark.parametrize("eps", [0.4, 3 / 8, 0.485, 1e-3, 5e-324])
def test_erasure_words_drawn_in_pieces_continue_one_stream(eps, shape):
    # Each round asks for at most _DRAW_PIECE words a call, full pieces
    # before one ragged last piece, and its requests add up to the one-shot
    # round; the words are bitwise those of the one-shot sampler.
    size = math.prod(shape)
    script = np.random.default_rng(size).integers(0, 2**64, size=9 * size, dtype=np.uint64)
    whole, pieces = _ScriptedBits(script), _ScriptedBits(script)
    expect = _one_shot_erasure_words(whole, eps, shape)
    assert sum(whole.sizes) < script.size
    assert np.array_equal(polarcode._erasure_words(pieces, eps, shape), expect)
    piece = polarcode._DRAW_PIECE
    assert 64 < piece < 8192 * 5  # the two larger shapes span several pieces
    assert max(pieces.sizes) <= piece
    assert (len(pieces.sizes) > len(whole.sizes)) == (size > piece)
    at = 0
    for round_size in whole.sizes:
        full, ragged = divmod(round_size, piece)
        expected = [piece] * full + ([ragged] if ragged else [])
        assert pieces.sizes[at : at + len(expected)] == expected
        at += len(expected)
    assert at == len(pieces.sizes)


def test_erasure_words_stop_after_the_last_one_bit_of_a_dyadic_eps():
    # 3/8 = 0.011 in binary: the third round decides every lane.
    bits = _ScriptedBits(np.random.default_rng(5).integers(0, 2**63, size=3 * 1024))
    polarcode._erasure_words(bits, 3 / 8, (16, 64))
    assert bits.sizes == [1024, 1024, 1024]
    spec = construct(0.5, 0, 1.0)  # N = 1, K = 1: a trial fails iff its one symbol is erased
    result = simulate_bler(spec, 3 / 8, 100_000, seed=4)
    assert abs(result.failures - 37_500) < 5 * math.sqrt(100_000 * 3 / 8 * 5 / 8)


@pytest.mark.parametrize("trials", [1, 63, 64, 65, 32769])
def test_simulate_near_certain_erasure_fails_every_trial(trials):
    # eps = 1 - 2^-53 spares a symbol with probability 2^-53 only, so every
    # trial fails; the padding lanes of each block's last word must not count.
    spec = construct(0.5, 4, 0.5)
    assert simulate_bler(spec, 1 - 2.0**-53, trials, seed=6).failures == trials


def test_simulate_smallest_subnormal_eps_never_fails():
    # 5e-324 erases with probability 2^-53: no failure in 40000 trials.
    spec = construct(0.5, 6, 0.5)
    assert simulate_bler(spec, 5e-324, 40_000, seed=7).failures == 0


@pytest.mark.parametrize("eps", [1e-3, 0.3, 0.4, 0.999])
def test_erasure_words_frequency(eps):
    # 2^20 lanes: the erasure rate overall and at each of the 64 lane
    # positions lies within 5 sigma of eps.
    words = polarcode._erasure_words(np.random.default_rng(8).bit_generator, eps, (128, 128))
    lanes = np.unpackbits(words.view(np.uint8), bitorder="little").reshape(-1, 64)
    total = lanes.size
    assert abs(lanes.sum() - eps * total) < 5 * math.sqrt(total * eps * (1 - eps))
    per_lane = lanes.sum(axis=0)
    rows = lanes.shape[0]
    assert np.all(np.abs(per_lane - eps * rows) < 5 * math.sqrt(rows * eps * (1 - eps)))


def test_wilson_interval_formula():
    lo, hi = wilson_interval(5, 100)
    # Oracle: direct evaluation of the score interval at z = 1.959963984540054.
    assert lo == pytest.approx(0.02154367915436796, rel=1e-12)
    assert hi == pytest.approx(0.11175046923191913, rel=1e-12)
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("failures, trials", [(5, 3), (-1, 10)])
def test_wilson_interval_rejects_impossible_counts(failures, trials):
    with pytest.raises(ValueError, match=rf"^failures must lie in \[0, trials\], got {failures} of {trials}$"):
        wilson_interval(failures, trials)


def test_decoders_leave_no_cycle_garbage():
    # The simulator and the recursive decoder must not leave self-referencing
    # closures (and the decode buffers they hold) for the cycle collector.
    spec = construct(0.4, 6, 0.5)
    gc.collect()
    gc.disable()
    try:
        for threads in (1, 2):
            simulate_bler(spec, 0.4, 3000, seed=1, threads=threads)
        received = encode(spec, np.ones(spec.k, dtype=np.uint8)).astype(np.int8)
        received[[0, 5, 17, 40]] = ERASED
        assert sc_decode_bec(spec, received) is not None
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
