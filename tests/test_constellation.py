import numpy as np
import pytest

from mlcpcm.constellation import (
    Constellation,
    build_bpsk,
    build_constellation,
    build_qam,
    demap_tables,
    gray_rank,
    labels_from_bits,
    level_llr,
    level_llr_from_tables,
    subtree_llr,
)

import demap_reference as reference
from demap_reference import bits_from_labels, gray_code, map_bits

MS = (1, 2, 4, 6, 8)


def _direct_level_llr(c: Constellation, y: complex, noise_var: float,
                      prefix: tuple[int, ...], k: int) -> float:
    # brute-force mixture ratio over labels consistent with the prefix
    num = 0.0
    den = 0.0
    for lab in range(1 << c.m):
        bits = [(lab >> (c.m - 1 - j)) & 1 for j in range(c.m)]
        if tuple(bits[: k - 1]) != tuple(prefix):
            continue
        p = np.exp(-abs(y - c.points[lab]) ** 2 / noise_var)
        if bits[k - 1] == 0:
            num += p
        else:
            den += p
    return float(np.log(num) - np.log(den))


def test_gray_code_values():
    assert list(gray_code(np.arange(8))) == [0, 1, 3, 2, 6, 7, 5, 4]
    j = np.arange(256)
    g = gray_code(j)
    assert np.array_equal(gray_rank(g), j)
    # consecutive ranks differ in exactly one bit
    diff = g[1:] ^ g[:-1]
    assert np.all(diff & (diff - 1) == 0) and np.all(diff > 0)


@pytest.mark.parametrize("m", MS)
def test_unit_energy_and_size(m):
    c = build_constellation(m)
    assert c.m == m and 1 << c.m == 2**m
    assert len(np.unique(c.points)) == 1 << c.m
    assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12


def test_bpsk_points():
    b = build_bpsk()
    assert np.allclose(b.points, [-1.0, 1.0])


def test_square_qam_axis_reconstruction():
    # label bits interleave the two axes (in-phase first); each axis is a
    # Gray-labelled PAM with amplitudes 2*rank - (L-1), jointly normalized
    for m in (2, 4, 6, 8):
        c = build_qam(m)
        half = m // 2
        lab = np.arange(1 << c.m)
        bits = bits_from_labels(lab, m)
        ai = labels_from_bits(bits[:, 0::2], half)
        aq = labels_from_bits(bits[:, 1::2], half)
        levels = 2.0 * gray_rank(ai) - (2**half - 1)
        levq = 2.0 * gray_rank(aq) - (2**half - 1)
        pts = levels + 1j * levq
        pts = pts / np.sqrt(np.mean(np.abs(pts) ** 2))
        assert np.allclose(c.points, pts, atol=1e-12)


def test_map_bits_matches_points():
    rng = np.random.default_rng(0)
    for m in MS:
        c = build_constellation(m)
        bits = rng.integers(0, 2, (50, m), dtype=np.uint8)
        lab = labels_from_bits(bits, m)
        assert np.allclose(map_bits(c, bits), c.points[lab])


def test_label_bit_round_trip():
    rng = np.random.default_rng(1)
    for m in MS:
        lab = rng.integers(0, 2**m, 200)
        assert np.array_equal(labels_from_bits(bits_from_labels(lab, m), m), lab)


def test_level_llr_direct_sum():
    rng = np.random.default_rng(2)
    for m in (2, 4, 6):
        c = build_qam(m)
        for _ in range(40):
            y = complex(rng.normal(), rng.normal())
            nv = float(rng.uniform(0.2, 2.0))
            k = int(rng.integers(1, m + 1))
            prefix = tuple(rng.integers(0, 2, k - 1))
            got = level_llr(c, y, nv, prefix)
            want = _direct_level_llr(c, y, nv, prefix, k)
            assert abs(got - want) < 1e-9


def test_level_llr_sign_on_clean_symbol():
    c = build_qam(4)
    rng = np.random.default_rng(3)
    for lab in rng.integers(0, 16, 8):
        y = complex(c.points[lab])
        bits = bits_from_labels(np.array([lab]), 4)[0]
        for k in range(1, 5):
            llr = level_llr(c, y, 0.05, tuple(bits[: k - 1]))
            assert (llr > 0) == (bits[k - 1] == 0)


def test_level_llr_refuses_a_prefix_that_is_not_bits():
    # packed as a label, (2, 0) read as (0, 0) at level 3 of 16QAM and
    # (3, 0) or (-1, 0) as (1, 0); an int64 cast read 0.5 as 0
    c = build_qam(4)
    for prefix in ((2, 0), (3, 0), (-1, 0), (0.5, 0), (1, 0.5), (float("nan"),)):
        with pytest.raises(ValueError, match="prefix bits must be 0 or 1"):
            level_llr(c, 0.3 + 0.1j, 0.5, prefix)
    want = level_llr(c, 0.3 + 0.1j, 0.5, (1, 0))
    for prefix in ((1.0, 0.0), (True, False), np.array([1, 0], dtype=np.int8)):
        assert level_llr(c, 0.3 + 0.1j, 0.5, prefix) == want


def test_tables_pairing_identity():
    c = build_qam(4)
    rng = np.random.default_rng(4)
    y = rng.normal(size=7) + 1j * rng.normal(size=7)
    tabs = demap_tables(c, y, 0.7)
    assert len(tabs) == 2
    for axis in tabs:
        assert len(axis) == c.m // 2 + 1
        for d in range(c.m // 2):
            assert np.allclose(
                axis[d], np.logaddexp(axis[d + 1][..., 0::2], axis[d + 1][..., 1::2])
            )


def test_tables_match_scalar_llr():
    c = build_qam(6)
    rng = np.random.default_rng(5)
    y = rng.normal(size=5) + 1j * rng.normal(size=5)
    tabs = demap_tables(c, y, 1.3)
    for k in (1, 3, 6):
        prefix = rng.integers(0, 2 ** (k - 1), size=5)
        got = level_llr_from_tables(tabs, k, prefix)
        for i in range(5):
            bits = tuple((int(prefix[i]) >> (k - 2 - j)) & 1 for j in range(k - 1))
            want = _direct_level_llr(c, complex(y[i]), 1.3, bits, k)
            assert abs(got[i] - want) < 1e-9


def test_tables_noise_var_broadcast():
    c = build_qam(2)
    rng = np.random.default_rng(6)
    y = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    nv = np.array([0.4, 1.0, 2.5])
    tabs = demap_tables(c, y, nv[:, None])
    for f in range(3):
        single = demap_tables(c, y[f], float(nv[f]))
        for axis, single_axis in zip(tabs, single, strict=True):
            for d in range(c.m // 2 + 1):
                assert np.allclose(axis[d][f], single_axis[d])


def _reference_gap(c, y, nv, seed):
    # largest |LLR - reference LLR| over all levels and random prefixes, and
    # the largest normalized distance max |y - x|^2 / N0 of the inputs
    rng = np.random.default_rng(seed)
    tabs = demap_tables(c, y, nv)
    ref = reference.demap_tables(c, y, nv)
    gap = 0.0
    for k in range(1, c.m + 1):
        prefix = rng.integers(0, 2 ** (k - 1), size=y.shape)
        got = level_llr_from_tables(tabs, k, prefix)
        want = reference.level_llr_from_tables(ref, k, prefix)
        gap = max(gap, float(np.max(np.abs(got - want))))
    dist = np.abs(y[..., None] - c.points) ** 2 / np.asarray(nv)[..., None]
    return gap, float(dist.max())


@pytest.mark.parametrize("m", MS)
def test_tables_match_reference(m):
    # per-axis tables against the frozen full-label demapper, random
    # received frames with per-frame N0 and random prefixes
    c = build_constellation(m)
    rng = np.random.default_rng(100 + m)
    for trial in range(30):
        f, n = 3, 40
        nv = np.exp(rng.uniform(np.log(0.01), np.log(2.0), f))[:, None]
        lab = rng.integers(0, 1 << c.m, (f, n))
        noise = rng.standard_normal((f, n)) + 1j * rng.standard_normal((f, n))
        y = c.points[lab] + np.sqrt(nv / 2.0) * noise
        gap, _ = _reference_gap(c, y, nv, seed=trial)
        assert gap <= 1e-12, (m, trial, gap)
    # extreme inputs: tiny N0 and symbols far outside the constellation
    for trial in range(30):
        nv = np.exp(rng.uniform(np.log(1e-3), np.log(2.0), 3))[:, None]
        y = rng.uniform(1.0, 20.0) * (rng.standard_normal((3, 40))
                                      + 1j * rng.standard_normal((3, 40)))
        gap, dist = _reference_gap(c, y, nv, seed=trial)
        assert gap <= 1e-13 * (1.0 + dist), (m, trial, gap, dist)


@pytest.mark.parametrize("m", MS)
def test_subtree_llr_is_the_tables_llr(m):
    # every level, random prefixes (also ones the symbols contradict),
    # scalar, per-frame and per-symbol N0 down to 1e-6, and samples far
    # outside the constellation: the same LLRs, bit for bit
    c = build_constellation(m)
    rng = np.random.default_rng(200 + m)
    f, n = 3, 50
    y = 3.0 * (rng.standard_normal((f, n)) + 1j * rng.standard_normal((f, n)))
    for nv in (0.3, np.exp(rng.uniform(-3.0, 1.0, (f, 1))),
               np.exp(rng.uniform(-3.0, 1.0, (f, n))), 1e-6):
        tabs = demap_tables(c, y, nv)
        for k in range(1, m + 1):
            prefix = rng.integers(0, 2 ** (k - 1), (f, n))
            # subtree_llr takes the bits of level k's axis alone
            axis_bits = bits_from_labels(prefix, k - 1)[..., (k - 1) % 2::2]
            got = subtree_llr(c, y, nv, k,
                              labels_from_bits(axis_bits, axis_bits.shape[-1]))
            want = level_llr_from_tables(tabs, k, prefix)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (nv, k)


def test_constellations_compare_and_hash_by_identity():
    # ndarray fields: field-wise equality would raise, and so would hashing
    a, b = build_qam(4), build_qam(4)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.amp_by_label, b.amp_by_label)


def test_llr_clip():
    c = build_bpsk()
    assert abs(level_llr(c, 80.0 + 0j, 1e-3)) <= 300.0
    assert abs(level_llr(c, -80.0 + 0j, 1e-3)) <= 300.0


def test_unsupported_orders_rejected():
    with pytest.raises(ValueError):
        build_constellation(3)
    with pytest.raises(ValueError):
        build_constellation(0)
