"""Square QAM constellations with per-axis Gray labeling and bit-level soft demapping.

Labeling convention: an m-bit label (b_1, ..., b_m) is read MSB-first (b_1 is the
most significant bit) as an integer index into ``Constellation.points``. Odd
positions (b_1, b_3, ...) select the in-phase amplitude, even positions the
quadrature amplitude. Each axis uses the binary-reflected Gray code over
amplitudes in increasing order, so the 2-bit per-axis pattern is
(-3, -1, +1, +3) -> (00, 01, 11, 10). Average symbol energy is normalized to 1.
BPSK is the one-axis case: its single bit selects the in-phase amplitude.

Noise convention: ``noise_var`` is the total complex-noise variance
N0 = E[|n|^2], split N0/2 per real dimension. Bit-level LLRs are natural-log
ratios ln[Pr(y | b_k=0, prefix) / Pr(y | b_k=1, prefix)], positive LLR favoring
bit 0, clipped to +-300.

Demapping works per axis. Since |y - x|^2 = (Re y - a_I)^2 + (Im y - a_Q)^2,
the likelihood sum over all labels completing a prefix factors into an
in-phase sum over the in-phase completions and a quadrature sum over the
quadrature ones. Level k's bit sits on axis (k-1) % 2, so its two hypotheses
share the other axis's factor, which cancels in the LLR: the receiver needs
only 2^(m/2+1) log-sum-exp entries per axis and symbol instead of a
2^(m+1)-entry tree over full labels. Constellations without this product
structure (``axis_amps`` None) are not demapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LLR_CLIP = 300.0


def gray_code(j: int | np.ndarray) -> int | np.ndarray:
    """Binary-reflected Gray code of rank j."""
    return j ^ (j >> 1)


def gray_rank(g: np.ndarray) -> np.ndarray:
    """Inverse of gray_code: rank (amplitude index) of a Gray label."""
    g = np.asarray(g)
    j = g.copy()
    shift = 1
    while np.any(g >> shift):
        j ^= g >> shift
        shift += 1
    return j


@dataclass(frozen=True)
class Constellation:
    """A 2^m point complex constellation indexed by integer bit label.

    points[lab] is the symbol whose label bits (b_1, ..., b_m) form the integer
    lab MSB-first. axis_amps holds the per-axis amplitude set in increasing
    order for square QAM (None for constellations without product structure).
    """

    m: int
    points: np.ndarray
    name: str
    axis_amps: np.ndarray | None = field(default=None)

    @property
    def order(self) -> int:
        return 1 << self.m

    def axis_amp_by_label(self) -> np.ndarray:
        """Per-axis amplitudes indexed by axis Gray label (square QAM only)."""
        if self.axis_amps is None:
            raise ValueError("constellation has no per-axis structure")
        half = self.axis_amps.size
        ranks = gray_rank(np.arange(half))
        return self.axis_amps[ranks]


def _axis_label_bits(lab: np.ndarray, m: int, axis: int) -> np.ndarray:
    """Extract the axis label integer from m-bit symbol or prefix labels.

    axis=0 takes bits b_1, b_3, ... (in-phase), axis=1 takes b_2, b_4, ....
    """
    out = np.zeros_like(lab)
    for pos in range((m + 1 - axis) // 2):
        # bit b_{2*pos+1+axis} sits at MSB offset 2*pos+axis
        bit = (lab >> (m - 1 - (2 * pos + axis))) & 1
        out = (out << 1) | bit
    return out


def build_qam(m: int) -> Constellation:
    """Square 2^m-QAM, m even, unit average energy, per-axis Gray labels."""
    if m % 2 != 0 or m < 2:
        raise ValueError(f"square QAM needs even m >= 2, got {m}")
    half = 1 << (m // 2)
    raw = np.arange(half, dtype=np.float64) * 2.0 - (half - 1)  # -(M'-1) .. (M'-1)
    norm = np.sqrt(2.0 * np.mean(raw**2))  # unit total symbol energy
    amps = raw / norm

    labs = np.arange(1 << m)
    lab_i = _axis_label_bits(labs, m, axis=0)
    lab_q = _axis_label_bits(labs, m, axis=1)
    amp_by_lab = amps[gray_rank(np.arange(half))]
    points = amp_by_lab[lab_i] + 1j * amp_by_lab[lab_q]
    return Constellation(m=m, points=points, name=f"qam{1 << m}", axis_amps=amps)


def build_bpsk() -> Constellation:
    """Real +-1 constellation with the same axis-label rule: 0 -> -1, 1 -> +1."""
    points = np.array([-1.0 + 0.0j, 1.0 + 0.0j])
    return Constellation(m=1, points=points, name="bpsk",
                         axis_amps=np.array([-1.0, 1.0]))


def build_constellation(m: int) -> Constellation:
    return build_bpsk() if m == 1 else build_qam(m)


def map_bits(c: Constellation, bits: np.ndarray) -> complex:
    """Map an m-bit label (b_1, ..., b_m) to its constellation point."""
    bits = np.asarray(bits)
    if bits.shape[-1] != c.m:
        raise ValueError(f"expected {c.m} bits, got {bits.shape[-1]}")
    lab = labels_from_bits(bits, c.m)
    return c.points[lab]


def labels_from_bits(bits: np.ndarray, m: int) -> np.ndarray:
    """Pack bit vectors (..., m) into integer labels, b_1 as MSB."""
    weights = 1 << np.arange(m - 1, -1, -1)
    return np.asarray(bits, dtype=np.int64) @ weights


def bits_from_labels(lab: np.ndarray, m: int) -> np.ndarray:
    """Unpack integer labels into bit vectors (..., m), b_1 first."""
    lab = np.asarray(lab)
    shifts = np.arange(m - 1, -1, -1)
    return ((lab[..., None] >> shifts) & 1).astype(np.int8)


def pam_tables(amp_by_label: np.ndarray, y: np.ndarray,
               noise_var: float | np.ndarray) -> list[np.ndarray]:
    """Per-depth log-likelihood tables of real samples on one Gray-labeled axis.

    Returns T[0..h], h = log2(amp_by_label.size), where T[d] has shape
    y.shape + (2^d,) and
    T[d][..., p] = ln sum_{axis labels g with first d bits == p} exp(-(y - amp_g)^2 / N0).
    noise_var may be an array broadcastable against y.
    """
    scale = np.asarray(noise_var, dtype=np.float64)[..., None]
    t = -(y[..., None] - amp_by_label) ** 2 / scale
    tables = [t]
    while t.shape[-1] > 1:
        t = np.logaddexp(t[..., 0::2], t[..., 1::2])
        tables.append(t)
    return tables[::-1]


def demap_tables(c: Constellation, y: np.ndarray,
                 noise_var: float | np.ndarray) -> list[list[np.ndarray]]:
    """Per-axis log-likelihood tables for all bit levels of received symbols.

    Returns one ``pam_tables`` list per axis: the in-phase one over Re(y),
    then the quadrature one over Im(y) (BPSK has only the in-phase one).
    Axis depth d covers the axis's first d label bits, which are the symbol
    label's bits b_1, b_3, ... (in-phase) or b_2, b_4, ... (quadrature). The
    full-label table of the first k bits is the sum of the two axes' tables
    at depths ceil(k/2) and floor(k/2); level k's LLR needs only the axis
    carrying bit k, because the other axis adds the same term to both
    hypotheses. The tables are computed once per received block and reused
    across levels. noise_var may be an array broadcastable against y
    (per-frame values). Raises ValueError when ``c`` has no per-axis
    amplitudes.
    """
    amps = c.axis_amp_by_label()
    y = np.asarray(y, dtype=np.complex128)
    axes = (y.real,) if c.m == 1 else (y.real, y.imag)
    return [pam_tables(amps, part, noise_var) for part in axes]


def level_llr_from_tables(tables: list[list[np.ndarray]], k: int,
                          prefix_labels: np.ndarray) -> np.ndarray:
    """LLR of bit level k (1-based) given per-symbol integer prefix labels.

    prefix_labels hold the k-1 decided bits (b_1 as MSB); only the bits on
    the axis of level k, (k-1) % 2, select the table entry.
    """
    axis = (k - 1) % 2
    t = tables[axis][(k - 1) // 2 + 1]
    p = 2 * _axis_label_bits(np.asarray(prefix_labels), k - 1, axis)
    llr = np.take_along_axis(t, p[..., None], axis=-1)[..., 0]
    llr -= np.take_along_axis(t, (p + 1)[..., None], axis=-1)[..., 0]
    return np.clip(llr, -LLR_CLIP, LLR_CLIP, out=llr)


def prefix_llr_table(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-prefix LLR table of one ``pam_tables`` depth d >= 1.

    Entry p of the result, shape t.shape[:-1] + (2^(d-1),), is
    t[..., 2p] - t[..., 2p + 1]: the unclipped LLR of the axis's bit d given
    its first d - 1 bits p. It is written into ``out`` when given.
    """
    return np.subtract(t[..., 0::2], t[..., 1::2], out=out)


def level_llr_from_prefix_tables(tables: list[list[np.ndarray | None]], k: int,
                                 prefix_labels: np.ndarray) -> np.ndarray:
    """``level_llr_from_tables`` on per-prefix LLR tables.

    tables[axis][d] is ``prefix_llr_table`` of that axis's depth d, so the
    LLR is one gather at the axis prefix and the same clip. It forms the
    same difference of the same two entries, so the result is bit-identical.
    """
    axis = (k - 1) % 2
    t = tables[axis][(k - 1) // 2 + 1]
    p = _axis_label_bits(np.asarray(prefix_labels), k - 1, axis)
    llr = np.take_along_axis(t, p[..., None], axis=-1)[..., 0]
    return np.clip(llr, -LLR_CLIP, LLR_CLIP, out=llr)


def last_level_llr(c: Constellation, y: np.ndarray,
                   noise_var: float | np.ndarray, k: int,
                   prefix_labels: np.ndarray) -> np.ndarray:
    """LLR of bit level k (1-based), the last level on its axis, without tables.

    The last level of an axis has one label completion per hypothesis, so
    its LLR is the difference of two -(y - a)^2 / N0 terms. These are the
    two entries of the deepest ``demap_tables`` depth that
    ``level_llr_from_tables`` would read, formed per symbol by the same
    elementwise operations, so the result is bit-identical to it.
    """
    axis = (k - 1) % 2
    if (k - 1) // 2 + 1 != (c.m + 1 - axis) // 2:
        raise ValueError(f"level {k} is not the last level on its axis")
    amps = c.axis_amp_by_label()
    part = np.asarray(y, dtype=np.complex128)
    part = part.imag if axis else part.real
    scale = np.asarray(noise_var, dtype=np.float64)
    p = 2 * _axis_label_bits(np.asarray(prefix_labels), k - 1, axis)
    num = -(part - amps[p]) ** 2 / scale
    den = -(part - amps[p + 1]) ** 2 / scale
    return np.clip(num - den, -LLR_CLIP, LLR_CLIP)


def level_llr(c: Constellation, y: complex, noise_var: float,
              prefix: np.ndarray | tuple[int, ...] = ()) -> float:
    """Bit-level LLR for level k = len(prefix)+1 of a single received symbol.

    prefix holds the already decided bits (b_1, ..., b_{k-1}). The LLR
    marginalizes uniformly over the 2^(m-k) completions of each hypothesis.
    """
    prefix = np.asarray(prefix, dtype=np.int64).reshape(-1)
    k = prefix.size + 1
    if k > c.m:
        raise ValueError(f"prefix of length {prefix.size} leaves no level to demap")
    p = 0
    for b in prefix:
        p = (p << 1) | int(b)
    tables = demap_tables(c, np.asarray([y]), noise_var)
    out = level_llr_from_tables(tables, k, np.array([p]))
    return float(out[0])
