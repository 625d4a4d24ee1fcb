import gc
import itertools
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
    sc_decode_dmc,
    simulate_bler,
    smallest_z_indices,
    wilson_interval,
)
from polarkit.zprocess import BranchWord, Rule, iterate_values


# ---------------------------------------------------------------------------
# Z spectrum and the index convention
# ---------------------------------------------------------------------------

def test_spectrum_one_stage():
    assert bec_z_spectrum(0.5, 1).tolist() == [0.75, 0.25]


def test_spectrum_two_stages():
    assert bec_z_spectrum(0.5, 2).tolist() == [0.9375, 0.5625, 0.4375, 0.0625]


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


def test_selection_ties_break_toward_lower_index():
    z = np.array([0.5, 0.2, 0.2, 0.9, 0.2])
    assert smallest_z_indices(z, 2).tolist() == [1, 2]
    assert smallest_z_indices(z, 3).tolist() == [1, 2, 4]


def test_union_bound_invariant():
    spec = construct(0.4, 6, 0.5)
    assert spec.union_bound <= spec.block_length * spec.gamma + 1e-15


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

    The reference for the flag-driven failure test and the pruned value pass
    of the library: every node of the SC tree is visited, beliefs are
    three-valued (0 / 1 / ERASED), and an information bit whose belief is
    still erased is a failure.  Returns (messages, failed); the message
    content of a failed row is arbitrary.
    """
    rec = np.ascontiguousarray(received, dtype=np.int8)
    trials, big_n = rec.shape
    info_mask = spec.info_mask
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


@settings(max_examples=200, deadline=None)
@given(_codes(), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_decoder_matches_reference(spec, eps, seed):
    # Random erasures on real codewords: the pruned decoder fails exactly
    # when the reference does, and otherwise returns the sent message.
    msgs, erased, received = _received_words(spec, np.random.default_rng(seed), 12, eps)
    ref_out, ref_fail = _reference_decode_batch(spec, received)
    for t in range(12):
        out = sc_decode_bec(spec, received[t])
        assert (out is None) == ref_fail[t]
        if out is not None:
            assert np.array_equal(out, msgs[t])
            assert np.array_equal(out, ref_out[t])
    # The simulator's per-trial failure flags, from the erasures alone.
    assert np.array_equal(polarcode._failed(spec, erased), ref_fail)


def test_simulate_counts_the_reference_failures():
    # Replays the simulator's stream for one chunk (the unused message draw,
    # then the erasures) through encoder and reference decoder; 3000 rows of
    # N=1024 span three erasure row blocks.
    spec = construct(0.4, 10, 0.42)
    trials, seed, eps = 3000, 11, 0.45
    chunk_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    msgs = chunk_rng.integers(0, 2, size=(trials, spec.k), dtype=np.uint8)
    erased = chunk_rng.random((trials, spec.block_length)) < eps
    cws = polarcode._butterfly_rows(polarcode._embed_messages(spec, msgs))
    received = np.where(erased, np.int8(ERASED), cws.astype(np.int8))
    out, failed = _reference_decode_batch(spec, received)
    bad = failed | (out != msgs).any(axis=1)
    assert 0 < bad.sum() < trials
    assert simulate_bler(spec, eps, trials, seed).failures == bad.sum()


def test_dmc_decoder_agrees_with_erasure_decoder():
    # BEC as an explicit 3-symbol DMC: outputs 0 and 1 reveal the bit,
    # output 2 is the erasure.  Wherever the erasure decoder succeeds the
    # likelihood decoder must return the same message.
    n = 3
    spec = construct(0.5, n, 0.5)
    ch = bec(0.5)
    msg = np.array([1, 0, 1, 1], dtype=np.uint8)
    cw = encode(spec, msg)
    for pattern in itertools.product((False, True), repeat=1 << n):
        pattern = np.array(pattern)
        rec = np.where(pattern, np.int8(ERASED), cw.astype(np.int8))
        out = sc_decode_bec(spec, rec)
        if out is not None:
            symbols = np.where(pattern, 2, cw)
            dmc_out = sc_decode_dmc(ch, spec.info_set, symbols, n)
            assert np.array_equal(dmc_out, out)


def test_dmc_decoder_cap():
    with pytest.raises(ValueError):
        sc_decode_dmc(bec(0.5), [0], np.zeros(32, dtype=int), 5)


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
    # One chunk of 8192 blocks at N=8192, K=4096 would hold 32 MB of unused
    # messages and 512 MB of erasure uniforms if drawn at once; in 2^20-value
    # blocks the traced peak stays near 10 MB.
    spec = construct(0.4, 13, 0.5)
    tracemalloc.start()
    try:
        simulate_bler(spec, 0.4, 8192, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_wilson_interval_formula():
    lo, hi = wilson_interval(5, 100)
    # Oracle: direct evaluation of the score interval at z = 1.959963984540054.
    assert lo == pytest.approx(0.02154367915436796, rel=1e-12)
    assert hi == pytest.approx(0.11175046923191913, rel=1e-12)
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == pytest.approx(1.0, abs=1e-15)


def test_simulate_csv():
    import io

    spec = construct(0.5, 3, 0.5)
    result = simulate_bler(spec, 0.3, 1000, seed=2)
    buf = io.StringIO()
    result.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "trial_count,failures,bler,ci_low,ci_high"
    fields = lines[1].split(",")
    assert int(fields[0]) == 1000
    assert int(fields[1]) == result.failures


def test_decoders_leave_no_cycle_garbage():
    # The recursive decoders must not leave self-referencing closures (and
    # the decode buffers they hold) for the cycle collector.
    spec = construct(0.4, 6, 0.5)
    gc.collect()
    gc.disable()
    try:
        for threads in (1, 2):
            simulate_bler(spec, 0.4, 3000, seed=1, threads=threads)
        sc_decode_dmc(bec(0.3), [1, 3], [0, 1, 2, 0], 2)
        received = encode(spec, np.ones(spec.k, dtype=np.uint8)).astype(np.int8)
        received[[0, 5, 17, 40]] = ERASED
        assert sc_decode_bec(spec, received) is not None
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
