import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import multistage_reference
from mlcpcm import mlc_system, sim
from mlcpcm.constellation import (build_constellation, build_qam, labels_from_bits,
                                  level_llr_from_tables)
from mlcpcm.construction import construct_ga, construct_rf1, construct_rf2, five_g_sequence
from mlcpcm.mlc_system import component_codes, mlc_encode_batch, multistage_decode_batch
from mlcpcm.polar_codec import (ComponentCode, crc_attach, crc_len_for_k, polar_encode,
                                scl_decode_batch)
from mlcpcm.sim import load_mcs_table


def _payloads(cons, rng, frames=1):
    codes = component_codes(cons)
    out = []
    for code in codes:
        out.append(rng.integers(0, 2, (frames, code.payload_len), dtype=np.uint8))
    return out


def _noise(rng, shape, sigma):
    return sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_component_codes_reflect_construction():
    cons = construct_rf2(4, 64, 32, eps=0.1)
    codes = component_codes(cons)
    assert [c.crc_len for c in codes] == [16, 16, 0, 0]
    assert [c.payload_len for c in codes] == [21 - 16, 20 - 16, 12, 11]


def _assert_derived_from_info_sets(cons):
    sizes = [len(s) for s in cons.info_sets]
    assert cons.m == len(sizes) and cons.k_total == sum(sizes)
    assert cons.crc_lens == tuple(crc_len_for_k(k) for k in sizes)
    assert component_codes(cons) is cons.codes and len(cons.codes) == cons.m
    for code, s, crc in zip(cons.codes, cons.info_sets, cons.crc_lens):
        assert code.n == cons.n and code.crc_len == crc
        assert np.array_equal(code.info_set, s)


def test_construction_derives_m_k_crc_lens_and_codes_from_its_info_sets(monkeypatch):
    for n in (16, 256):
        for e in load_mcs_table():
            k = e.k_for(n)
            for cons in (construct_rf1(e.m, k, n), construct_rf2(e.m, k, n)):
                _assert_derived_from_info_sets(cons)
                assert (cons.m, cons.k_total) == (e.m, k)
    for snr in (0.0, 6.5, 15.0):
        cons = construct_ga(build_constellation(4), 512, 256, snr)
        _assert_derived_from_info_sets(cons)
        assert (cons.m, cons.k_total) == (4, 512)
    # a replace derives everything afresh from the new sets, not from the
    # allocation it keeps; a CRC is attached from 17 bits up
    seq = five_g_sequence()
    cons = replace(construct_rf2(4, 512, 256),
                   info_sets=tuple(seq.top_k(256, k) for k in (17, 16, 0)))
    _assert_derived_from_info_sets(cons)
    assert (cons.m, cons.k_total, cons.crc_lens) == (3, 33, (16, 0, 0))
    with pytest.raises(ValueError, match="sorted, unique"):
        replace(cons, info_sets=(np.array([3, 1]),))
    # a two-chunk run builds its construction's codes once and no others
    built = []
    post_init = ComponentCode.__post_init__

    def counted(code):
        built.append(code)
        post_init(code)

    monkeypatch.setattr(ComponentCode, "__post_init__", counted)
    monkeypatch.setattr(sim, "_BATCH_BYTES", 1)
    sim._construction.cache_clear()
    cfg = sim.SimConfig(method="rf2", m=4, n=16, k=32, snr_grid_db=(6.0,),
                        list_size=2, max_blocks=32, max_errors=32, seed=0)
    assert sim._batch_size(cfg.m, cfg.n, cfg.max_blocks) == 16
    assert sim.run_bler(cfg).points[0].blocks == 32
    assert len(built) == cfg.m


def test_hand_traced_qpsk_frame():
    # full-rate QPSK, N=4: no frozen bits, no CRC, so the symbols follow
    # directly from the two encoded rows interleaved MSB-first
    cons = construct_rf1(2, 8, 4)
    c = build_qam(2)
    pay = [np.array([[1, 0, 0, 1]], dtype=np.uint8),
           np.array([[0, 1, 1, 0]], dtype=np.uint8)]
    symbols, coded = mlc_encode_batch(pay, cons, c)
    want0 = polar_encode(pay[0][0])
    want1 = polar_encode(pay[1][0])
    assert np.array_equal(coded[0, 0], want0)
    assert np.array_equal(coded[0, 1], want1)
    labels = labels_from_bits(np.stack([want0, want1], axis=1), 2)
    assert np.allclose(symbols[0], c.points[labels])


@pytest.mark.parametrize("m,n,k", ((1, 32, 20), (2, 16, 14), (4, 32, 64), (6, 8, 20)))
def test_noiseless_round_trip(m, n, k):
    rng = np.random.default_rng(m * 100 + n)
    cons = construct_rf2(m, k, n, eps=0.1)
    c = build_constellation(m)
    pay = _payloads(cons, rng, frames=8)
    symbols, coded = mlc_encode_batch(pay, cons, c)
    dec, oks, frame_ok, cw = multistage_decode_batch(symbols, 1e-4, cons, c, 4)
    for k_lvl in range(m):
        assert np.array_equal(dec[k_lvl], pay[k_lvl])
    assert np.all(frame_ok) and np.all(oks)
    assert np.array_equal(cw, coded)


@pytest.mark.parametrize("m", (1, 2, 4))
def test_empty_batch_decodes_to_empty_outputs(m):
    # 0 frames give the outputs of one frame cut to 0 frames
    cons = construct_rf2(m, 16 * m, 32, eps=0.1)
    c = build_constellation(m)
    got = multistage_decode_batch(np.zeros((0, 32), complex), 0.5, cons, c, 4)
    want = multistage_decode_batch(np.ones((1, 32), complex), 0.5, cons, c, 4)
    got, want = (*got[0], *got[1:]), (*want[0], *want[1:])
    assert [(g.shape, g.dtype) for g in got] == [(w[:0].shape, w.dtype)
                                                 for w in want]


def test_m1_matches_plain_ca_scl_bit_for_bit():
    rng = np.random.default_rng(11)
    cons = construct_rf1(1, 144, 256)
    c = build_constellation(1)
    code = component_codes(cons)[0]
    frames = 200
    sigma = 0.8  # near the waterfall so both paths see decoding failures
    pay = [rng.integers(0, 2, (frames, code.payload_len), dtype=np.uint8)]
    symbols, coded = mlc_encode_batch(pay, cons, c)
    y = symbols + _noise(rng, symbols.shape, sigma)
    nv = 2 * sigma**2

    dec_mlc, oks, frame_ok, cw_mlc = multistage_decode_batch(y, nv, cons, c, 8)

    # the plain path: BPSK maps label 0 -> -1, so LLR = -4 Re(y) / N0
    llr = np.clip(-4.0 * y.real / nv, -300, 300)
    dec_ref, cw_ref, ok_ref, _ = scl_decode_batch(llr, code, 8)

    assert np.array_equal(dec_mlc[0], dec_ref)
    assert np.array_equal(cw_mlc[:, 0, :], cw_ref)
    assert np.array_equal(oks[:, 0], ok_ref)
    # sanity: this operating point produced both outcomes
    errs = (dec_ref != pay[0]).any(axis=1)
    assert 0 < int(errs.sum()) < frames


def test_iq_separability():
    # odd levels ride the in-phase axis only: perturbing the quadrature
    # component must not change their decoding decisions
    rng = np.random.default_rng(21)
    cons = construct_rf2(4, 40, 16, eps=0.1)
    c = build_qam(4)
    pay = _payloads(cons, rng, frames=4)
    symbols, _ = mlc_encode_batch(pay, cons, c)
    y = symbols + _noise(rng, symbols.shape, 0.3)
    y_q = y + 1j * 0.2 * np.random.default_rng(22).standard_normal(y.shape)
    dec_a, _, _, _ = multistage_decode_batch(y, 2 * 0.3**2, cons, c, 4,
                                             feedback_override={})
    dec_b, _, _, _ = multistage_decode_batch(y_q, 2 * 0.3**2, cons, c, 4,
                                             feedback_override={})
    # note: without overrides level 2+ sees re-encoded feedback, which couples
    # the axes through decisions; force genie feedback off by comparing only
    # level 0 here and the full chain in the dedicated test below
    assert np.array_equal(dec_a[0], dec_b[0])


def test_iq_separability_with_genie_feedback():
    rng = np.random.default_rng(23)
    cons = construct_rf2(4, 40, 16, eps=0.1)
    c = build_qam(4)
    pay = _payloads(cons, rng, frames=4)
    symbols, coded = mlc_encode_batch(pay, cons, c)
    y = symbols + _noise(rng, symbols.shape, 0.3)
    y_q = y + 1j * 0.25 * np.random.default_rng(24).standard_normal(y.shape)
    genie = {k: coded[:, k, :] for k in range(4)}
    dec_a, _, _, _ = multistage_decode_batch(y, 2 * 0.3**2, cons, c, 4,
                                             feedback_override=genie)
    dec_b, _, _, _ = multistage_decode_batch(y_q, 2 * 0.3**2, cons, c, 4,
                                             feedback_override=genie)
    # levels 0 and 2 are the in-phase subchannels
    assert np.array_equal(dec_a[0], dec_b[0])
    assert np.array_equal(dec_a[2], dec_b[2])


def test_error_propagation_is_directional():
    # feedback flows forward only, and for square Gray QAM it flows along
    # each axis: level 0 conditions level 2 (in-phase pair), level 1
    # conditions level 3 (quadrature pair), and nothing runs backwards
    rng = np.random.default_rng(31)
    cons = construct_rf1(4, 128, 64)
    c = build_qam(4)
    pay = _payloads(cons, rng, frames=30)
    symbols, coded = mlc_encode_batch(pay, cons, c)
    y = symbols + _noise(rng, symbols.shape, 0.12)
    nv = 2 * 0.12**2

    clean, _, _, _ = multistage_decode_batch(y, nv, cons, c, 4)
    assert all(np.array_equal(clean[k], pay[k]) for k in range(4))

    garbage = rng.integers(0, 2, (30, 64), dtype=np.uint8)
    bad0 = {0: coded[:, 0, :] ^ garbage}
    dec, _, _, _ = multistage_decode_batch(y, nv, cons, c, 4, feedback_override=bad0)
    assert int((dec[2] != pay[2]).any(axis=1).sum()) > 25
    assert np.array_equal(dec[1], clean[1])  # quadrature pair is immune
    assert np.array_equal(dec[3], clean[3])

    bad1 = {1: coded[:, 1, :] ^ garbage}
    dec, _, _, _ = multistage_decode_batch(y, nv, cons, c, 4, feedback_override=bad1)
    assert int((dec[3] != pay[3]).any(axis=1).sum()) > 25
    assert np.array_equal(dec[0], clean[0])  # decoded before the corruption
    assert np.array_equal(dec[2], clean[2])  # in-phase pair is immune


def test_frame_ok_matches_crc_verdicts():
    rng = np.random.default_rng(41)
    cons = construct_rf2(2, 80, 64, eps=0.1)
    c = build_qam(2)
    pay = _payloads(cons, rng, frames=150)
    symbols, _ = mlc_encode_batch(pay, cons, c)
    sigma = 0.42
    y = symbols + _noise(rng, symbols.shape, sigma)
    dec, oks, frame_ok, _ = multistage_decode_batch(y, 2 * sigma**2, cons, c, 2)
    assert np.array_equal(frame_ok, oks.all(axis=1))
    # at this SNR some frames fail and some succeed
    assert 0 < int(frame_ok.sum()) < 150
    # payload-equality errors imply at least one level got it wrong
    err = np.zeros(150, bool)
    for k in range(2):
        err |= (dec[k] != pay[k]).any(axis=1)
    assert int(err.sum()) > 0


def test_payload_length_validation():
    cons = construct_rf1(2, 24, 16)
    c = build_qam(2)
    bad = [np.zeros((1, 3), np.uint8), np.zeros((1, 1), np.uint8)]
    with pytest.raises(ValueError):
        mlc_encode_batch(bad, cons, c)


# name -> (construction, Es/N0 in dB, list size); each runs near its
# waterfall so that levels fail and the fed-back decisions are wrong at times
PAIRED_CASES = {
    "bpsk": (lambda: construct_rf2(1, 40, 64), 1.0, 4),
    "qpsk": (lambda: construct_rf2(2, 70, 64), 2.0, 4),
    # MCS 9 at N=256: each pair splits one bit apart
    "16qam-mcs9": (lambda: construct_rf2(4, load_mcs_table()[9].k_for(256), 256),
                   8.0, 8),
    "16qam-ga": (lambda: construct_ga(build_qam(4), 128, 64, 6.0), 6.0, 4),
    # levels 4 and 5 carry 8 and 7 bits and no CRC
    "64qam": (lambda: construct_rf2(6, 150, 64), 11.0, 2),
    "64qam-ga": (lambda: construct_ga(build_qam(6), 200, 64, 12.0), 12.0, 2),
    "256qam": (lambda: construct_rf2(8, 200, 32), 20.0, 4),
}


def _received(cons, c, snr_db, frames, rng, per_frame):
    """Payloads, coded rows, received symbols and noise variance of a batch;
    with ``per_frame`` the noise variance is a (frames, 1) column spread
    over 3 dB around ``snr_db``."""
    pay = _payloads(cons, rng, frames)
    symbols, coded = mlc_encode_batch(pay, cons, c)
    snr = snr_db + (rng.uniform(-1.5, 1.5, (frames, 1)) if per_frame else 0.0)
    nv = 10.0 ** (-snr / 10.0)
    y = symbols + _noise(rng, symbols.shape, np.sqrt(nv / 2.0))
    return pay, coded, y, nv


def _assert_same_outputs(got, want):
    got_pay, *got_rest = got
    want_pay, *want_rest = want
    assert len(got_pay) == len(want_pay)
    for g, w in zip([*got_pay, *got_rest], [*want_pay, *want_rest]):
        assert g.shape == w.shape and g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("name", PAIRED_CASES)
def test_paired_levels_match_level_by_level_reference(name):
    make, snr_db, lsize = PAIRED_CASES[name]
    cons = make()
    c = build_constellation(cons.m)
    counts = list(cons.allocation.counts)
    if name == "16qam-mcs9":
        assert counts == [185, 184, 124, 123]
    if name.endswith("-ga"):  # GA gives both levels of a pair one code
        assert all(np.array_equal(cons.info_sets[k], cons.info_sets[k + 1])
                   for k in range(0, cons.m, 2))
    if name == "64qam":
        assert counts[4:] == [8, 7] and cons.crc_lens[4:] == (0, 0)
    rng = np.random.default_rng(sum(map(ord, name)))
    failed = 0
    for per_frame in (False, True):
        pay, coded, y, nv = _received(cons, c, snr_db, 24, rng, per_frame)
        got = multistage_decode_batch(y, nv, cons, c, lsize)
        want = multistage_reference.multistage_decode_batch(y, nv, cons, c, lsize)
        _assert_same_outputs(got, want)
        failed += int((~got[1]).sum())
        # wrong feedback on an even (in-phase) and an odd (quadrature) level
        garbage = rng.integers(0, 2, coded[:, 0].shape, dtype=np.uint8)
        for levels in ({0}, {1}, {cons.m - 2, cons.m - 1}):
            override = {k: coded[:, k] ^ garbage for k in levels
                        if 0 <= k < cons.m}
            got = multistage_decode_batch(y, nv, cons, c, lsize,
                                          feedback_override=override)
            want = multistage_reference.multistage_decode_batch(
                y, nv, cons, c, lsize, feedback_override=override)
            _assert_same_outputs(got, want)
    assert failed > 0  # some level failed its CRC or ranked a wrong path


# m -> Es/N0 in dB near the waterfall of construct_rf2(m, 16 m, 32) at L=2
BLOCKED_SNR_DB = {1: -1.0, 2: 3.0, 4: 9.0, 6: 14.5, 8: 20.0}


@pytest.mark.parametrize("m", BLOCKED_SNR_DB)
def test_blocked_demap_matches_reference(m, monkeypatch):
    # each level's LLRs are formed B frames at a time, B the frames whose
    # widest subtree leaves (2^ceil(m/2) float64 values per symbol) fill
    # _DEMAP_BYTES; batches of one, just under, at, just over and several
    # blocks plus a partial one decode as the whole-batch reference does, at
    # scalar, per-frame and per-symbol noise variance, and feed the decoder,
    # bit for bit, the LLRs that level_llr_from_tables reads from the whole
    # batch's full trees
    n = 32
    cons = construct_rf2(m, 16 * m, n)
    c = build_constellation(m)
    block = max(mlc_system._DEMAP_BYTES // ((1 << (m + 1) // 2) * n * 8), 1)
    demap = mlc_system.demap_tables
    rule = mlc_system.subtree_llr
    decode = mlc_system.scl_decode_batch
    calls = []
    fed = []

    def counting(c, y, noise_var, k, prefix_labels):
        calls.append((k, len(y)))
        return rule(c, y, noise_var, k, prefix_labels)

    def recording(llrs, code, list_size):
        fed.append(llrs.copy())
        return decode(llrs, code, list_size)

    monkeypatch.setattr(mlc_system, "subtree_llr", counting)
    monkeypatch.setattr(mlc_system, "scl_decode_batch", recording)
    rng = np.random.default_rng(m)
    errors = 0
    for frames in (1, block - 1, block, block + 1, 3 * block + 5):
        pay = _payloads(cons, rng, frames)
        symbols, _ = mlc_encode_batch(pay, cons, c)
        nv = 10.0 ** (-BLOCKED_SNR_DB[m] / 10.0)
        spread = 10.0 ** rng.uniform(-0.15, 0.15, (frames, n))
        for noise_var in (nv, nv * spread[:, :1], nv * spread):
            y = symbols + _noise(rng, symbols.shape, np.sqrt(noise_var / 2.0))
            calls.clear()
            fed.clear()
            got = multistage_decode_batch(y, noise_var, cons, c, 2)
            want = multistage_reference.multistage_decode_batch(y, noise_var,
                                                                cons, c, 2)
            _assert_same_outputs(got, want)
            full = demap(c, y, noise_var)
            levels = [level_llr_from_tables(
                full, k + 1, labels_from_bits(got[3][:, :k].transpose(0, 2, 1), k))
                for k in range(m)]
            assert len(fed) == (m + 1) // 2
            for j, llrs in enumerate(fed):
                ref = np.concatenate(levels[2 * j:2 * j + 2])
                assert llrs.dtype == ref.dtype == np.float64
                assert np.array_equal(llrs.view(np.int64), ref.view(np.int64))
            errors += sum(int((g != p).any(axis=1).sum())
                          for g, p in zip(got[0], pay))
            blocks = [block] * (frames // block) + (
                [frames % block] if frames % block else [])
            assert calls == [(k, b) for k in range(1, m + 1) for b in blocks]
    assert errors > 0  # wrong decisions were fed forward


def test_demap_working_memory(monkeypatch):
    # a 155-frame 64QAM batch (rf2, N=256): until the first decoder call,
    # only depths 1 and 2 of each axis are held batch-wide, and the full
    # trees exist one block of frames at a time
    frames, n = 155, 256
    cons = construct_rf2(6, load_mcs_table()[15].k_for(n), n)
    c = build_qam(6)
    rng = np.random.default_rng(155)
    y = c.points[rng.integers(0, 64, (frames, n))] + _noise(rng, (frames, n), 0.1)
    kept = 2 * frames * n * (2 + 4) * 8

    class FirstCall(Exception):
        pass

    def stop(*args):
        raise FirstCall(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(mlc_system, "scl_decode_batch", stop)
    tracemalloc.start()
    try:
        with pytest.raises(FirstCall) as first:
            multistage_decode_batch(y, np.full((frames, 1), 0.02), cons, c, 8)
    finally:
        tracemalloc.stop()
    peak = first.value.args[0]
    # y's size, two float64 values per symbol, stands for the first pair's
    # LLRs. Demapping the whole batch at once peaks at 9.45 MiB here, against
    # this 5.24 MiB bound
    bound = kept + mlc_system._DEMAP_BYTES + y.nbytes
    assert peak < bound, (peak / 2**20, bound / 2**20)


def test_kept_tables_hold_per_prefix_llrs(monkeypatch):
    # the batch of test_demap_working_memory: depths 1 and 2 of each axis
    # are held as their per-prefix LLR tables, 1 + 2 entries per axis and
    # symbol instead of the 2 + 4 of the depths themselves
    frames, n = 155, 256
    cons = construct_rf2(6, load_mcs_table()[15].k_for(n), n)
    c = build_qam(6)
    rng = np.random.default_rng(155)
    y = c.points[rng.integers(0, 64, (frames, n))] + _noise(rng, (frames, n), 0.1)
    kept = 2 * frames * n * (1 + 2) * 8

    class FirstCall(Exception):
        pass

    def stop(*args):
        raise FirstCall(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(mlc_system, "scl_decode_batch", stop)
    tracemalloc.start()
    try:
        with pytest.raises(FirstCall) as first:
            multistage_decode_batch(y, np.full((frames, 1), 0.02), cons, c, 8)
    finally:
        tracemalloc.stop()
    peak = first.value.args[0]
    # as in test_demap_working_memory, y's size stands for the first pair's
    # LLRs. This reads 2.91 MiB against a 3.42 MiB bound; holding the depths
    # themselves peaks at 4.82 MiB
    bound = kept + mlc_system._DEMAP_BYTES + y.nbytes
    assert peak < bound, (peak / 2**20, bound / 2**20)


@pytest.mark.parametrize("m,index", ((6, 15), (8, 22)))
def test_decoder_calls_hold_no_demap_state(m, index, monkeypatch):
    # the 155-frame batch of test_demap_working_memory at 64QAM and 256QAM:
    # each level forms its LLRs from its own axis subtree and keeps nothing
    # for a later level, so at every decoder call the traced memory apart
    # from that call's LLRs (the prefix, the decided rows and the payloads
    # so far) stays under twice y's size, 1.21 MiB. Per-prefix tables kept
    # for the whole batch held 1.48 (64QAM) and 3.98 MiB (256QAM) at the
    # first call
    frames, n = 155, 256
    cons = construct_rf2(m, load_mcs_table()[index].k_for(n), n)
    c = build_qam(m)
    rng = np.random.default_rng(155)
    y = c.points[rng.integers(0, 1 << m, (frames, n))] + _noise(rng, (frames, n), 0.1)
    decode = mlc_system.scl_decode_batch
    held = []

    def measuring(llrs, code, list_size):
        held.append(tracemalloc.get_traced_memory()[0] - llrs.nbytes)
        return decode(llrs, code, list_size)

    monkeypatch.setattr(mlc_system, "scl_decode_batch", measuring)
    tracemalloc.start()
    try:
        multistage_decode_batch(y, np.full((frames, 1), 0.02), cons, c, 1)
    finally:
        tracemalloc.stop()
    assert len(held) == m // 2
    assert max(held) < 2 * y.nbytes, [h / 2**20 for h in held]


# one seeded batch per constellation, decoded near its waterfall; writes the
# decoder's input LLRs, the payloads, the CRC verdicts and whether numpy
# dispatches its X86_V4 (AVX-512) kernels to the .npz file named by argv[1]
DISPATCH_RUN = """
import sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from mlcpcm import mlc_system
from mlcpcm.constellation import build_constellation
from mlcpcm.construction import construct_rf2
out = {"x86_v4": np.array(bool(__cpu_features__.get("X86_V4")))}
decode = mlc_system.scl_decode_batch
def recording(llrs, code, list_size):
    out[f"m{m}_llrs{len(out)}"] = llrs.copy()
    return decode(llrs, code, list_size)
mlc_system.scl_decode_batch = recording
rng = np.random.default_rng(38)
for m in (1, 2, 4, 6, 8):
    n = 64
    cons = construct_rf2(m, m * n // 2, n)
    c = build_constellation(m)
    pay = [rng.integers(0, 2, (48, len(s) - cl), dtype=np.uint8)
           for s, cl in zip(cons.info_sets, cons.crc_lens)]
    x, _ = mlc_system.mlc_encode_batch(pay, cons, c)
    # Python floats: numpy's power kernel, too, is picked by dispatch
    nv = np.array([[10.0 ** (-(cons.design_snr_db + s) / 10.0)]
                   for s in rng.uniform(-1.0, 1.0, 48).tolist()])
    y = x + np.sqrt(nv / 2.0) * (rng.standard_normal(x.shape)
                                 + 1j * rng.standard_normal(x.shape))
    dec, oks, _, _ = mlc_system.multistage_decode_batch(y, nv, cons, c, 4)
    out.update({f"m{m}_payload{k}": d for k, d in enumerate(dec)})
    out[f"m{m}_crc_ok"] = oks
np.savez(sys.argv[1], **out)
"""


def _dispatch_run(path, disabled):
    env = dict(os.environ, PYTHONPATH=str(Path(mlc_system.__file__).resolve().parents[1]))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    subprocess.run([sys.executable, "-c", DISPATCH_RUN, str(path)], check=True, env=env,
                   timeout=120)
    return np.load(path)


def test_decode_does_not_depend_on_the_simd_dispatch(tmp_path):
    # numpy picks exp/log1p kernels by CPU at run time, so _boxplus's last
    # ulps differ with AVX-512 off; the subtree rule uses only ufuncs whose
    # bits do not, and the decisions hold
    default = _dispatch_run(tmp_path / "default.npz", None)
    off = _dispatch_run(tmp_path / "no-x86-v4.npz", "X86_V4")
    assert not off["x86_v4"]
    if not default["x86_v4"]:
        pytest.skip("numpy dispatches no X86_V4 kernels on this CPU")
    assert default.files == off.files
    assert sum("llrs" in key for key in default.files) == 1 + 1 + 2 + 3 + 4
    for key in default.files:
        if key != "x86_v4":
            a, b = default[key], off[key]
            assert a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8)), key
    # the batch is not trivial: some frames pass every CRC and some do not
    oks = np.concatenate([default[key].all(axis=1) for key in default.files if "crc" in key])
    assert oks.any() and not oks.all()
