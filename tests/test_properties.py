import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcpcm.constellation import (
    bits_from_labels,
    build_qam,
    gray_code,
    gray_rank,
    labels_from_bits,
)
from mlcpcm.construction import pw_sequence, rate_fill
from mlcpcm.polar_codec import crc_attach, crc_check, polar_encode

SIZES = st.sampled_from([2, 4, 8, 16, 64, 256])
ROOT = Path(__file__).resolve().parents[1]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16 - 1))
def test_gray_rank_inverts_gray_code(j):
    assert int(gray_rank(np.array([gray_code(j)]))[0]) == j


@settings(max_examples=40, deadline=None)
@given(st.data(), SIZES)
def test_polar_encode_involution(data, n):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    u = np.array(bits, dtype=np.uint8)
    assert np.array_equal(polar_encode(polar_encode(u)), u)


@settings(max_examples=40, deadline=None)
@given(st.data(), SIZES)
def test_polar_encode_linear(data, n):
    a = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                 dtype=np.uint8)
    b = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                 dtype=np.uint8)
    assert np.array_equal(polar_encode(a ^ b), polar_encode(a) ^ polar_encode(b))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_crc_roundtrip_and_flip(data):
    k = data.draw(st.integers(1, 80))
    pay = np.array(data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)),
                   dtype=np.uint8)
    coded = crc_attach(pay)
    assert bool(crc_check(coded))
    pos = data.draw(st.integers(0, k + 15))
    coded[pos] ^= 1
    assert not bool(crc_check(coded))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rate_fill_sums_and_bounds(data):
    m = data.draw(st.integers(1, 8))
    n = data.draw(st.sampled_from([4, 16, 64, 256]))
    v = [data.draw(st.floats(0.0, 4.0, allow_nan=False)) for _ in range(m)]
    if not any(x > 0 for x in v):
        v[0] = 1.0
    k = data.draw(st.integers(0, m * n))
    counts = rate_fill(np.array(v), k, n)
    assert int(counts.sum()) == k
    assert np.all(counts >= 0) and np.all(counts <= n)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10))
def test_pw_sequence_nested_prefixes(p):
    # the beta-expansion order restricted to n is a prefix-stable filter
    n = 2**p
    seq = pw_sequence(n)
    assert sorted(seq.order) == list(range(n))
    if n >= 4:
        sub = seq.restrict(n // 2)
        assert list(sub) == [i for i in seq.order if i < n // 2]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([2, 4, 6, 8]), st.data())
def test_label_bit_round_trip(m, data):
    lab = data.draw(st.integers(0, 2**m - 1))
    arr = np.array([lab])
    assert int(labels_from_bits(bits_from_labels(arr, m), m)[0]) == lab


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 4, 6]), st.data())
def test_qam_neighbor_labels_differ_in_one_bit(m, data):
    # along either axis, adjacent points carry labels at Hamming distance 1
    c = build_qam(m)
    pts = c.points
    i = data.draw(st.integers(0, c.order - 1))
    x = pts[i]
    axis = data.draw(st.sampled_from(["re", "im"]))
    if axis == "re":
        cand = np.where(np.isclose(pts.imag, x.imag) & ~np.isclose(pts.real, x.real))[0]
        if cand.size == 0:
            return
        j = cand[np.argmin(np.abs(pts[cand].real - x.real))]
    else:
        cand = np.where(np.isclose(pts.real, x.real) & ~np.isclose(pts.imag, x.imag))[0]
        if cand.size == 0:
            return
        j = cand[np.argmin(np.abs(pts[cand].imag - x.imag))]
    diff = i ^ int(j)
    assert diff != 0 and diff & (diff - 1) == 0


def test_failing_drawn_test_exits_1_under_the_repo_warning_filters(tmp_path):
    """A failing hypothesis test fails as a test (exit 1), not as a pytest
    INTERNALERROR (exit 3), with every warning an error: on a failure
    hypothesis imports libcst, whose import warns."""
    pytest.importorskip("libcst")
    (tmp_path / "test_drawn.py").write_text(textwrap.dedent("""\
        from hypothesis import given, settings, strategies as st


        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 10
        """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_drawn.py"], cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 1, run.stdout + run.stderr
