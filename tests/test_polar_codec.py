import tracemalloc

import numpy as np
import pytest

from mlcpcm.constellation import build_constellation, build_qam
from mlcpcm.construction import (construct_ga, construct_rf1, construct_rf2,
                                 default_sequence, five_g_sequence, ga_evolve,
                                 pw_sequence, rate_fill)
from mlcpcm.polar_codec import (
    _BLOCK,
    CRC_LEN,
    ComponentCode,
    RowBlocks,
    _boxplus,
    _crc16_register,
    _g,
    _stage_update,
    crc_attach,
    crc_check,
    crc_len_for_k,
    polar_encode,
    scl_decode_batch,
)
from mlcpcm.sim import McsEntry, SimConfig
from scl_reference import _boxplus as reference_boxplus
from scl_reference import _crc16_register as reference_crc16_register
from scl_reference import scl_decode_batch as reference_scl_decode_batch


def _make_code(n: int, k: int, crc_len: int) -> ComponentCode:
    return ComponentCode(n=n, info_set=five_g_sequence().top_k(n, k), crc_len=crc_len)


def _bpsk_llr(cw: np.ndarray, sigma: float, rng) -> np.ndarray:
    # label 0 -> -1 as in the constellation mapping, so LLR = -4 Re(y) / N0
    y = (2.0 * cw - 1.0) + sigma * rng.standard_normal(cw.shape)
    return -4.0 * y / (2.0 * sigma**2)


def test_encode_hand_values():
    assert list(polar_encode(np.array([1, 0], dtype=np.uint8))) == [1, 0]
    assert list(polar_encode(np.array([0, 1], dtype=np.uint8))) == [1, 1]
    # N=4: x = u * F^{\otimes 2} over GF(2)
    assert list(polar_encode(np.array([1, 0, 0, 0], dtype=np.uint8))) == [1, 0, 0, 0]
    # rows 0, 1, 3 of F^{\otimes 2}: 1000 + 1100 + 1111 = 1011
    assert list(polar_encode(np.array([1, 1, 0, 1], dtype=np.uint8))) == [1, 0, 1, 1]


def test_encode_is_involution():
    rng = np.random.default_rng(0)
    for n in (2, 16, 256, 1024):
        u = rng.integers(0, 2, (200, n), dtype=np.uint8)
        assert np.array_equal(polar_encode(polar_encode(u)), u)


def test_encode_linearity():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 2, (50, 64), dtype=np.uint8)
    b = rng.integers(0, 2, (50, 64), dtype=np.uint8)
    assert np.array_equal(polar_encode(a ^ b), polar_encode(a) ^ polar_encode(b))


def test_crc_known_check_value():
    # CRC-16/XMODEM of the ASCII string "123456789" is 0x31C3
    msg = np.unpackbits(np.frombuffer(b"123456789", dtype=np.uint8))
    parity = crc_attach(msg)[-16:]
    assert int("".join(map(str, parity)), 2) == 0x31C3


@pytest.mark.parametrize("shape", ((), (7,), (3, 5), (4, 8, 2)))
def test_crc_register_matches_bitwise_reference(shape):
    # byte table with zero left-padding against the bit-serial register, on
    # whole bytes, ragged lengths and the decoder's (F, P, k) stacks
    rng = np.random.default_rng(sum(shape) + 17)
    for length in [*range(41), 77, 164, 234]:
        for dtype in (np.int8, np.uint8):
            bits = rng.integers(0, 2, shape + (length,)).astype(dtype)
            got = _crc16_register(bits)
            want = reference_crc16_register(bits)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), (shape, length, dtype)


def test_crc_round_trip_and_single_flip():
    rng = np.random.default_rng(2)
    pay = rng.integers(0, 2, (500, 40), dtype=np.uint8)
    coded = crc_attach(pay)
    assert coded.shape == (500, 56)
    assert np.all(crc_check(coded))
    flip = coded.copy()
    pos = rng.integers(0, 56, 500)
    flip[np.arange(500), pos] ^= 1
    assert not np.any(crc_check(flip))


def test_crc_len_for_k():
    assert crc_len_for_k(16) == 0
    assert crc_len_for_k(17) == 16
    assert crc_len_for_k(500) == 16


def test_component_code_validation():
    with pytest.raises(ValueError):
        ComponentCode(n=12, info_set=np.array([0, 1]), crc_len=0)
    with pytest.raises(ValueError):
        ComponentCode(n=8, info_set=np.array([0, 8]), crc_len=0)
    with pytest.raises(ValueError):
        ComponentCode(n=8, info_set=np.array([1, 1]), crc_len=0)
    with pytest.raises(ValueError):
        ComponentCode(n=8, info_set=np.array([0, 1]), crc_len=7)
    # a cast to int64 would truncate [0.5, 1.7] to the valid set [0, 1]
    for info in ([0.5, 1.7], np.array([0.0, 1.0]), [True, False]):
        with pytest.raises(ValueError, match="info_set must hold integers"):
            ComponentCode(n=4, info_set=info)
    code = ComponentCode(n=4, info_set=np.array([1, 3], dtype=np.uint8))
    assert code.info_set.dtype == np.int64 and ComponentCode(n=4, info_set=[]).k == 0


def test_every_size_is_an_integer_and_n_and_list_size_powers_of_two():
    # floats, bools, numpy integers and non-powers of two at every public
    # entry that takes N, m, a list size or a row count: a float N or list
    # size failed on '&', N = True built N = 1 and a row count of 1.5 was
    # truncated to 1
    rng = np.random.default_rng(32)
    c, seq, code = build_qam(4), five_g_sequence(), _make_code(16, 8, 0)

    def config(**kw):
        return SimConfig(**dict(dict(method="rf2", m=2, n=16, k=8,
                                     snr_grid_db=(1.0,)), **kw))

    powers = (  # (name, sizes, calls): sizes that must be powers of two
        ("n", (16, 32), (lambda n: construct_rf1(4, 16, n),
                         lambda n: construct_rf2(4, 16, n),
                         lambda n: construct_ga(c, 16, n, 5.0),
                         lambda n: ga_evolve(2.0, n), pw_sequence,
                         default_sequence, seq.restrict,
                         lambda n: ComponentCode(n, np.arange(1)),
                         lambda n: config(n=n))),
        ("list.size", (1, 2, 4, 8), (
            lambda size: scl_decode_batch(np.ones((2, 16)), code, size),
            lambda size: config(list_size=size))))
    integers = (  # (name, sizes, calls): sizes that must be integers
        ("m", (2, 4, 6), (build_constellation, build_qam,
                          lambda m: construct_rf2(m, 16, 16),
                          lambda m: config(m=m), lambda m: McsEntry(0, m, 512))),
        ("rows", (0, 2, 3), (lambda r: RowBlocks((code,), (r,)),)),
        ("n", (5, 12, 16), (lambda n: rate_fill(np.array([0.5, 0.3]), 10, n),)))
    for power, groups in ((True, powers), (False, integers)):
        for name, sizes, calls in groups:
            for call in calls:
                size = int(rng.choice(sizes))
                call(size)
                call(np.int64(size))
                for bad in (float(size), size + 0.5, np.float64(size), True):
                    with pytest.raises(TypeError, match=f"{name} must be an integer"):
                        call(bad)
                odd = 3 + 2 * int(rng.integers(0, 30))  # odd * size: no power
                for bad in (0, -size, odd * size) if power else ():
                    with pytest.raises(ValueError,
                                       match=f"{name} must be a power of two, got {bad}"):
                        call(bad)
    assert type(RowBlocks((code,), (np.int64(3),)).rows[0]) is int
    with pytest.raises(ValueError, match="length must be a power of two, got 12"):
        polar_encode(np.zeros((2, 12), dtype=np.uint8))


@pytest.mark.parametrize("row", (
    [1, np.inf, -2, 3, np.inf, -np.inf, 0.5, 1],
    [1, 2, np.nan, -3, 0.5, 1, -1, 2],
))
def test_scl_decode_rejects_non_finite_llrs(row):
    # inf - inf would put a NaN metric with its sign bit set first in the
    # integer-key survivor sort, where the float sort puts it last
    code = _make_code(8, 4, 0)
    llrs = np.array([[0.5] * 8, row])
    with pytest.raises(ValueError, match="LLRs must be finite"):
        scl_decode_batch(llrs, code, 2)


def test_noiseless_decode_zero_metric():
    rng = np.random.default_rng(3)
    code = _make_code(64, 32, 16)
    pay = rng.integers(0, 2, (20, 16), dtype=np.uint8)
    u = np.zeros((20, 64), np.uint8)
    u[:, code.info_set] = crc_attach(pay)
    cw = polar_encode(u)
    llr = 20.0 * (1.0 - 2.0 * cw)
    dec, cw_hat, ok, metric = scl_decode_batch(llr, code, 8)
    assert np.array_equal(dec, pay)
    assert np.array_equal(cw_hat, cw)
    assert np.all(ok)
    assert np.allclose(metric, 0.0)


def test_metrics_nonnegative_under_noise():
    rng = np.random.default_rng(4)
    code = _make_code(128, 64, 16)
    pay = rng.integers(0, 2, (50, 48), dtype=np.uint8)
    u = np.zeros((50, 128), np.uint8)
    u[:, code.info_set] = crc_attach(pay)
    llr = _bpsk_llr(polar_encode(u), 0.9, rng)
    _, _, _, metric = scl_decode_batch(llr, code, 4)
    assert np.all(metric >= 0.0)


def test_list_grows_monotonically_better():
    # fixed seeded batch near the waterfall: more list paths never hurt
    rng = np.random.default_rng(1234)
    cons = construct_rf1(1, 144, 256)
    code = ComponentCode(n=256, info_set=cons.info_sets[0], crc_len=cons.crc_lens[0])
    pay = rng.integers(0, 2, (1000, 128), dtype=np.uint8)
    u = np.zeros((1000, 256), np.uint8)
    u[:, code.info_set] = crc_attach(pay)
    cw = polar_encode(u)
    errs = {}
    for lsize in (1, 8):
        llr = -4.0 * ((2.0 * cw - 1.0) + 0.8 * np.random.default_rng(77).standard_normal(cw.shape)) / (2 * 0.8**2)
        dec, _, _, _ = scl_decode_batch(llr, code, lsize)
        errs[lsize] = int((dec != pay).any(axis=1).sum())
    assert errs[8] <= errs[1]
    assert errs[1] > 0  # the point actually exercises the decoder


def test_all_frozen_code_decodes_to_empty():
    code = ComponentCode(n=8, info_set=np.array([], dtype=np.int64), crc_len=0)
    llr = np.full((3, 8), -2.0)
    dec, cw, ok, _ = scl_decode_batch(llr, code, 2)
    assert dec.shape == (3, 0)
    assert np.array_equal(cw, np.zeros((3, 8), dtype=cw.dtype))
    assert np.all(ok)


def test_uncoded_full_rate():
    code = ComponentCode(n=16, info_set=np.arange(16), crc_len=0)
    rng = np.random.default_rng(6)
    u = rng.integers(0, 2, (5, 16), dtype=np.uint8)
    llr = 15.0 * (1.0 - 2.0 * polar_encode(u))
    dec, _, _, _ = scl_decode_batch(llr, code, 2)
    assert np.array_equal(dec, u)


def test_sc_is_list_one():
    # SC is the L=1 special case: best path at every step, no survivors kept
    rng = np.random.default_rng(7)
    code = _make_code(32, 16, 0)
    pay = rng.integers(0, 2, (200, 16), dtype=np.uint8)
    u = np.zeros((200, 32), np.uint8)
    u[:, code.info_set] = pay
    llr = _bpsk_llr(polar_encode(u), 0.7, rng)
    dec1, _, _, _ = scl_decode_batch(llr, code, 1)
    # decoding the same LLRs twice is bitwise reproducible
    dec2, _, _, _ = scl_decode_batch(llr, code, 1)
    assert np.array_equal(dec1, dec2)
    # and mostly correct at this operating point
    assert (dec1 != pay).any(axis=1).mean() < 0.2


def _differential_cases(count: int = 320):
    """Seeded (code, list size, LLRs) cases: every N from 1 to 256 with K = 0
    and K = N at every list size, then random K, CRC on and off, and
    integer-valued LLRs half of the time, which force path metric ties."""
    rng = np.random.default_rng(20261018)
    sizes = [1 << s for s in range(9)]
    shapes = [(n, k, lsize) for n in sizes for k in sorted({0, n})
              for lsize in (1, 2, 4, 8)]
    while len(shapes) < count:
        n = sizes[int(rng.integers(0, len(sizes)))]
        shapes.append((n, int(rng.integers(0, n + 1)), int(rng.choice([1, 2, 4, 8]))))
    for n, k, lsize in shapes:
        info = np.sort(rng.choice(n, size=k, replace=False))
        crc = CRC_LEN if k > CRC_LEN and rng.random() < 0.5 else 0
        frames = int(rng.integers(1, 7))
        if rng.random() < 0.5:
            llr = rng.integers(-3, 4, (frames, n)).astype(np.float64)
        else:
            llr = rng.normal(0.0, rng.uniform(0.5, 8.0), (frames, n))
        yield ComponentCode(n=n, info_set=info, crc_len=crc), lsize, llr


def test_decoder_matches_frozen_reference():
    cases = list(_differential_cases())
    assert len(cases) >= 300 and any(code.crc_len for code, _, _ in cases)
    for code, lsize, llr in cases:
        got = scl_decode_batch(llr, code, lsize)
        want = reference_scl_decode_batch(llr, code, lsize)
        for name, g, w in zip(("payloads", "codewords", "crc_ok", "metrics"), got, want):
            assert g.shape == w.shape and g.dtype == w.dtype and np.array_equal(g, w), (
                f"{name} differ at N={code.n} K={code.k} CRC={code.crc_len} L={lsize}")


@pytest.mark.parametrize("n,lsize,frames", ((64, 8, 130), (256, 2, 130), (256, 8, 130),
                                            (1024, 2, 33), (1024, 8, 33)))
def test_decoder_matches_frozen_reference_on_large_batches(n, lsize, frames):
    # F P half exceeds _BLOCK on the wide stages, so these batches run the
    # blocked boxplus with a partial last block; rounded LLRs near the
    # waterfall tie path metrics and let the CRC pass on some frames and
    # fail on others
    rng = np.random.default_rng(n + lsize)
    code = _make_code(n, n // 2, CRC_LEN)
    u = np.zeros((frames, n), np.uint8)
    u[:, code.info_set] = crc_attach(rng.integers(0, 2, (frames, code.payload_len)))
    llr = np.rint(_bpsk_llr(polar_encode(u), 0.9, rng))
    got = scl_decode_batch(llr, code, lsize)
    want = reference_scl_decode_batch(llr, code, lsize)
    for name, g, w in zip(("payloads", "codewords", "crc_ok", "metrics"), got, want):
        assert g.shape == w.shape and g.dtype == w.dtype and np.array_equal(g, w), name
    assert 0 < got[2].sum() < frames  # both CRC outcomes occur


def test_decoder_matches_frozen_reference_by_first_information_quarter():
    # the first information leaf in each quarter of the block: from the
    # third quarter on, the whole left half is frozen, so the top stage's
    # left sums have one path while the stage below has several at the g
    # update of leaf 3N/4; N = 4 has one leaf per quarter
    rng = np.random.default_rng(4)
    for n in (4, 8, 16, 64, 256):
        for quarter in range(4):
            first = quarter * n // 4 + int(rng.integers(0, n // 4))
            rest = rng.choice(np.arange(first + 1, n),
                              size=int(rng.integers(0, n - first)), replace=False)
            info = np.sort(np.append(rest, first))
            crc = CRC_LEN if info.size > CRC_LEN and quarter % 2 else 0
            code = ComponentCode(n=n, info_set=info, crc_len=crc)
            for lsize in (1, 2, 4, 8):
                if lsize % 4:  # integer LLRs tie path metrics
                    llr = rng.integers(-2, 3, (5, n)).astype(np.float64)
                else:
                    llr = rng.normal(0.0, 2.0, (5, n))
                got = scl_decode_batch(llr, code, lsize)
                want = reference_scl_decode_batch(llr, code, lsize)
                for name, g, w in zip(("payloads", "codewords", "crc_ok", "metrics"),
                                      got, want):
                    assert g.shape == w.shape and g.dtype == w.dtype and np.array_equal(
                        g, w), f"{name} differ at N={n} first leaf {first} L={lsize}"


@pytest.mark.parametrize("n,lsize,frames,right_half", ((512, 4, 70, False),
                                                       (256, 8, 130, True),
                                                       (512, 2, 150, True)))
def test_decoder_matches_frozen_reference_on_partial_top_blocks(n, lsize, frames,
                                                                right_half):
    # the top stage's right child is formed in blocks of _BLOCK // (F L)
    # rows, and here the N/4 rows of the stage below end in a partial
    # block; with information only in the right half, the top stage's left
    # sums hold one path per frame
    step = _BLOCK // (frames * lsize)
    assert step < n // 4 and (n // 4) % step
    rng = np.random.default_rng(n + frames)
    top = five_g_sequence().top_k(n // 2 if right_half else n, n // 4)
    code = ComponentCode(n=n, info_set=top + n // 2 if right_half else top,
                         crc_len=CRC_LEN)
    u = np.zeros((frames, n), np.uint8)
    u[:, code.info_set] = crc_attach(rng.integers(0, 2, (frames, code.payload_len)))
    llr = np.rint(_bpsk_llr(polar_encode(u), 0.9, rng))
    got = scl_decode_batch(llr, code, lsize)
    want = reference_scl_decode_batch(llr, code, lsize)
    for name, g, w in zip(("payloads", "codewords", "crc_ok", "metrics"), got, want):
        assert g.shape == w.shape and g.dtype == w.dtype and np.array_equal(g, w), name


def test_pair_call_working_memory():
    # one 512-row call of a 16QAM level pair (rf2, K=512, N=256, L=8): no
    # buffer of all N/2 top-stage rows of every path is ever held, and
    # buffers of one path are never copied out to every path
    codes = construct_rf2(4, 512, 256).codes
    rng = np.random.default_rng(17)
    for pair in (0, 2):
        llr = rng.normal(0.0, 4.0, (512, 256))
        blocks = RowBlocks(codes[pair:pair + 2], (256, 256))
        tracemalloc.start()
        try:
            scl_decode_batch(llr, blocks, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20, (pair, peak / 2**20)


def test_pair_calls_release_buffers_at_last_read():
    # every stage buffer is dropped by its last reader: a stage's LLRs after
    # the g update of the stage below, the top stage's left sums after leaf
    # 3N/4. Held until the next fork instead, they raise these peaks to
    # 6.2-6.3 MiB (16QAM) and 3.7 MiB (64QAM)
    rng = np.random.default_rng(17)
    codes16 = construct_rf2(4, 512, 256).codes
    codes64 = construct_rf2(6, 768, 256).codes
    calls = [(RowBlocks(codes16[pair:pair + 2], (256, 256)),
              rng.normal(0.0, 4.0, (512, 256)), 6.0) for pair in (0, 2)]
    calls.append((RowBlocks(codes64[2:4], (155, 155)),
                  rng.normal(0.0, 4.0, (310, 256)), 3.5))
    for blocks, llr, bound_mib in calls:
        tracemalloc.start()
        try:
            scl_decode_batch(llr, blocks, 8)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib, ([c.k for c in blocks.codes], peak)


def test_decoder_matches_frozen_reference_with_two_byte_fork_records():
    # from L = 256 on, a fork's selected child (below 2L) takes two bytes
    rng = np.random.default_rng(256)
    for code in (_make_code(16, 12, 0), _make_code(32, 24, CRC_LEN)):
        llr = rng.normal(0.0, 2.0, (3, code.n))
        got = scl_decode_batch(llr, code, 256)
        want = reference_scl_decode_batch(llr, code, 256)
        for name, g, w in zip(("payloads", "codewords", "crc_ok", "metrics"), got, want):
            assert g.shape == w.shape and g.dtype == w.dtype and np.array_equal(g, w), (
                f"{name} differ at N={code.n}")


def _blocked(a: np.ndarray, b: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
    """The stage update of input halves a and b, (half, F, P) each, whose
    blocks read rows of a stacked copy; the g update takes u's paths."""
    stacked = np.concatenate([a, b])
    return _stage_update(lambda lo, hi: stacked[lo:hi], (u if u is not None else a).shape, u)


def test_blocked_boxplus_matches_boxplus():
    # the f and g updates run the same blocks of about _BLOCK output
    # elements, a partial last one included
    rng = np.random.default_rng(14)

    def draw(shape):
        # integers (zeros and ties included) and wide-range reals
        return np.where(rng.random(shape) < 0.5, rng.integers(-3, 4, shape),
                        rng.normal(0.0, 8.0, shape))

    for size in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5):
        a, b = draw((size, 1, 1)), draw((size, 1, 1))
        u = rng.integers(0, 2, (size, 1, 1), dtype=np.int8)
        assert np.array_equal(_blocked(a, b), _boxplus(a, b)), size
        assert np.array_equal(_blocked(a, b, u), _g(a, b, u)), size
    # the top stage reads the channel LLRs as rows of a transposed view,
    # with one path that the g update broadcasts over u's paths
    chan = draw((33, 1024))

    def rows(lo, hi):
        return chan.T[lo:hi, :, None]

    a, b = rows(0, 512), rows(512, 1024)
    u = rng.integers(0, 2, (512, 33, 4), dtype=np.int8)
    assert a.size > _BLOCK and not a.flags.c_contiguous
    assert np.array_equal(_stage_update(rows, a.shape), _boxplus(a, b))
    assert np.array_equal(_stage_update(rows, u.shape, u), _g(a, b, u))
    # stage-major decoder buffers whose rows exceed _BLOCK on their own
    a, b = draw((4, 130, 8 * 16)), draw((4, 130, 8 * 16))
    u = rng.integers(0, 2, a.shape, dtype=np.int8)
    assert np.array_equal(_blocked(a, b), _boxplus(a, b))
    assert np.array_equal(_blocked(a, b, u), _g(a, b, u))


# signed zeros, subnormals, values whose products underflow, and +-300 and
# beyond, where e^{-|a+b|} underflows to 0
_BOXPLUS_EDGES = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-200,
                           1e-160, 1e-10, 0.5, 1.0, 2.0, 299.99999999999994,
                           300.0, 745.5, 800.0, 1e5])
_BOXPLUS_EDGES = np.concatenate([_BOXPLUS_EDGES, -_BOXPLUS_EDGES])


def test_boxplus_matches_sign_product_bitwise():
    # the copysign form against the sign(a) sign(b) min(|a|, |b|) form it
    # replaced: every pair of edge values, then edge values mixed with
    # Cauchy-tailed reals at unblocked and blocked sizes
    rng = np.random.default_rng(13)

    def draw(size):
        edge = _BOXPLUS_EDGES[rng.integers(0, _BOXPLUS_EDGES.size, size)]
        return np.where(rng.random(size) < 0.5, edge, rng.standard_cauchy(size))

    pairs = [np.meshgrid(_BOXPLUS_EDGES, _BOXPLUS_EDGES)]
    pairs += [(draw(size), draw(size)) for size in (7, _BLOCK - 1, 3 * _BLOCK + 5)]
    with np.errstate(all="raise", under="ignore"):
        for a, b in pairs:
            want = reference_boxplus(a, b).view(np.int64)
            assert np.array_equal(_boxplus(a, b).view(np.int64), want), a.size
            got = _blocked(a.reshape(-1, 1, 1), b.reshape(-1, 1, 1)).reshape(a.shape)
            assert np.array_equal(got.view(np.int64), want), a.size
    a, b = pairs[0]
    # the grid holds zeros of both signs and products that underflow to zero
    assert (np.signbit(a) & (a == 0)).any() and ((a * b == 0) & (a != 0) & (b != 0)).any()


def test_integer_key_argsort_matches_float_argsort():
    # path metrics are finite, nonnegative and never -0.0, so the stable sort
    # of their int64 bit patterns is the stable sort of the floats
    rng = np.random.default_rng(15)
    levels = np.array([0.0, 5e-324, 1e-300, 0.25, 0.5, 1.0, 3.0, 1e12, 1e12 + 0.5])
    for shape in ((1, 2), (3, 4), (512, 16), (64, 32)):
        for draw in range(10):
            pm = levels[rng.integers(0, levels.size if draw % 2 else 3, shape)]
            if draw >= 6:
                pm = pm + rng.integers(0, 3, shape) * rng.random(shape[0])[:, None]
            want = np.argsort(pm, axis=1, kind="stable")
            got = np.argsort(pm.view(np.int64), axis=1, kind="stable")
            assert np.array_equal(got, want), (shape, draw)


def _frozen_patterns(n, rng):
    """Named information sets that stress the lazy-copy bookkeeping."""
    idx = np.arange(n)
    block = max(n // 8, 1)
    runs = np.repeat(rng.random(n // block) < 0.5, block) & (rng.random(n) < 0.8)
    return {"all frozen": idx[:0], "all info": idx, "rate-0 runs": idx[runs],
            "alternating": idx[1::2], "alternating from 0": idx[::2]}


def test_decoder_matches_frozen_reference_on_frozen_patterns():
    # every N from 1 to 512 at every list size from 1 to 16: forks happen at
    # leaves of every parity, so each stage's buffers are kept live and
    # released in turn
    rng = np.random.default_rng(512)
    for stages in range(10):
        n = 1 << stages
        for name, info in _frozen_patterns(n, rng).items():
            crc = CRC_LEN if info.size > CRC_LEN and name != "rate-0 runs" else 0
            code = ComponentCode(n=n, info_set=info, crc_len=crc)
            for lsize in (1, 2, 4, 8, 16):
                # integer LLRs tie path metrics
                if lsize % 4:
                    llr = rng.integers(-2, 3, (3, n)).astype(np.float64)
                else:
                    llr = rng.normal(0.0, 2.0, (3, n))
                got = scl_decode_batch(llr, code, lsize)
                want = reference_scl_decode_batch(llr, code, lsize)
                for field, g, w in zip(("payloads", "codewords", "crc_ok", "metrics"),
                                       got, want):
                    assert g.shape == w.shape and g.dtype == w.dtype and np.array_equal(
                        g, w), f"{field} differ at N={n} {name} L={lsize}"


def _mixed_block_cases():
    """Seeded (blocks, list size, LLRs) cases of row blocks with their own
    codes: random, nested 5G top-k, disjoint, all-frozen and full-rate
    information sets, a CRC on some blocks only, and integer LLRs half of
    the time, which tie path metrics. The last cases have three to five
    blocks, some with 0 rows, whose codes repeat in runs so that
    neighbouring blocks share a selection rule, and list sizes 16 and 32 at
    N <= 16, which exceed 2^(stages + 1) and often 2^K too."""
    rng = np.random.default_rng(20261019)
    seq = five_g_sequence()

    def crc(info):
        return CRC_LEN if info.size > CRC_LEN and rng.random() < 0.5 else 0

    for case in range(240):
        n = 1 << int(rng.integers(1, 8))
        kind = case % 4
        if kind == 0:  # random information sets
            infos = [np.sort(rng.choice(n, int(rng.integers(0, n + 1)),
                                        replace=False))
                     for _ in range(int(rng.integers(2, 4)))]
        elif kind == 1:  # nested top-k sets 1-3 positions apart
            n = max(n, 4)
            k = int(rng.integers(0, n - 2))
            infos = [seq.top_k(n, k), seq.top_k(n, k + int(rng.integers(1, 4)))]
            infos = infos[::-1] if rng.random() < 0.5 else infos
        elif kind == 2:  # disjoint sets
            perm = rng.permutation(n)
            cut = int(rng.integers(0, n + 1))
            infos = [np.sort(perm[:cut]),
                     np.sort(perm[cut:cut + int(rng.integers(0, n - cut + 1))])]
        else:  # all-frozen and full-rate blocks beside a random one
            infos = [np.arange(0), np.arange(n),
                     np.sort(rng.choice(n, int(rng.integers(0, n + 1)),
                                        replace=False))]
            rng.shuffle(infos)
        codes = tuple(ComponentCode(n=n, info_set=info, crc_len=crc(info))
                      for info in infos)
        rows = tuple(int(r) for r in rng.integers(1, 4, len(codes)))
        if rng.random() < 0.5:
            llr = rng.integers(-3, 4, (sum(rows), n)).astype(np.float64)
        else:
            llr = rng.normal(0.0, rng.uniform(0.5, 8.0), (sum(rows), n))
        yield RowBlocks(codes, rows), 1 << case % 4, llr

    for case in range(80):
        n = 1 << int(rng.integers(1, 5))
        pool = [np.sort(rng.choice(n, int(rng.integers(0, n + 1)), replace=False))
                for _ in range(int(rng.integers(2, 4)))]
        picks = np.sort(rng.integers(0, len(pool), int(rng.integers(3, 6))))
        codes = tuple(ComponentCode(n=n, info_set=pool[i], crc_len=crc(pool[i]))
                      for i in picks)
        rows = tuple(int(r) for r in rng.integers(0, 4, len(codes)))
        llr = rng.normal(0.0, rng.uniform(0.5, 8.0), (sum(rows), n))
        if case % 4 < 2:
            llr = np.round(llr)
        yield RowBlocks(codes, rows), 16 << case % 2, llr


def _first_mixed_fork(codes):
    """Index among the union's information leaves of the first leaf that
    is information for some blocks and frozen for others, or None."""
    union = np.unique(np.concatenate([code.info_set for code in codes]))
    shared = set(union.tolist())
    for code in codes:
        shared &= set(code.info_set.tolist())
    mixed = [j for j, leaf in enumerate(union) if leaf not in shared]
    return mixed[0] if mixed else None


def test_mixed_row_blocks_match_per_block_reference():
    # every row of a mixed call decodes exactly as its block's code alone
    cases = list(_mixed_block_cases())
    assert {lsize for _, lsize, _ in cases} == {1, 2, 4, 8, 16, 32}
    assert any(0 in blocks.rows for blocks, _, _ in cases)
    assert any(len({code.crc_len for code in blocks.codes}) > 1
               for blocks, _, _ in cases)
    # some nested pair differs at a fork taken before the list fills
    assert any((j := _first_mixed_fork(blocks.codes)) is not None
               and 1 << j < lsize
               for blocks, lsize, _ in cases[1::4])
    for blocks, lsize, llr in cases:
        payloads, *rest = scl_decode_batch(llr, blocks, lsize)
        assert len(payloads) == len(blocks.codes)
        lo = 0
        for code, rows, payload in zip(blocks.codes, blocks.rows, payloads):
            got = (payload, *(out[lo:lo + rows] for out in rest))
            # the reference cannot decode 0 rows; it gives the shapes and
            # dtypes of a 0-row block's outputs from one zero row
            ref = llr[lo:lo + rows] if rows else np.zeros((1, code.n))
            want = [w[:rows] for w in reference_scl_decode_batch(ref, code, lsize)]
            for name, g, w in zip(("payloads", "codewords", "crc_ok", "metrics"),
                                  got, want):
                assert g.shape == w.shape and g.dtype == w.dtype and np.array_equal(
                    g, w), (f"{name} differ at N={code.n} K={code.k} "
                            f"CRC={code.crc_len} L={lsize} blocks={blocks.rows}")
            lo += rows


def test_empty_batch_decodes_to_empty_outputs():
    # 0 rows give the outputs of one row cut to 0 rows, for a single code
    # and for row blocks that all have 0 rows
    a, b = _make_code(32, 20, CRC_LEN), _make_code(32, 8, 0)
    for code, one in ((a, a), (RowBlocks((a, b), (0, 0)), RowBlocks((a, b), (1, 0)))):
        got = scl_decode_batch(np.zeros((0, 32)), code, 4)
        want = scl_decode_batch(np.ones((1, 32)), one, 4)
        if isinstance(code, RowBlocks):
            got, want = (*got[0], *got[1:]), (*want[0], *want[1:])
        assert [(g.shape, g.dtype) for g in got] == [(w[:0].shape, w.dtype)
                                                     for w in want]


def test_row_blocks_describe_the_call():
    a = _make_code(64, 40, CRC_LEN)
    b = _make_code(64, 12, 0)
    blocks = RowBlocks((a, b), (3, 1))
    assert blocks.n == 64 and blocks.crc_len == CRC_LEN
    assert blocks.k * sum(blocks.rows) == 3 * 40 + 12
    with pytest.raises(ValueError, match="block length"):
        RowBlocks((a, _make_code(32, 12, 0)), (1, 1))
    with pytest.raises(ValueError, match="one row count per code"):
        RowBlocks((a, b), (1,))
    with pytest.raises(ValueError, match="block rows"):
        scl_decode_batch(np.zeros((3, 64)), blocks, 2)
