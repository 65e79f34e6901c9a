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
quadrature ones. Level k's bit is bit d = (k-1)//2 + 1 of axis (k-1) % 2,
so its two hypotheses share the other axis's factor, which cancels in the
LLR. Given the axis's first d - 1 decided bits, the completions form one
subtree of the axis's Gray labels: ``subtree_llr`` reduces its 2^(h-d+1)
leaves (h the axis's label bits) to the halves under bit 0 and bit 1, so a
level reads only its own subtree. This is the one demapping rule, of the
multistage decoder and ``level_llr`` alike; ``demap_tables`` and
``level_llr_from_tables``, its all-depth table form, are kept for the tests
and the benchmark tracer. Constellations without this product structure
(``axis_amps`` None) are not demapped.
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


def _leaf_terms(amps: np.ndarray, y: np.ndarray,
                noise_var: float | np.ndarray) -> np.ndarray:
    """-(y - a)^2 / N0 for the amplitudes a on the last axis of ``amps``,
    which broadcasts against y[..., None]; noise_var broadcasts against y.
    Formed in one array, with no temporary of its size."""
    t = y[..., None] - amps
    np.square(t, out=t)
    np.negative(t, out=t)
    return np.divide(t, np.asarray(noise_var, dtype=np.float64)[..., None], out=t)


def pam_tables(amp_by_label: np.ndarray, y: np.ndarray,
               noise_var: float | np.ndarray) -> list[np.ndarray]:
    """Per-depth log-likelihood tables of real samples on one Gray-labeled axis.

    Returns T[0..h], h = log2(amp_by_label.size), where T[d] has shape
    y.shape + (2^d,) and
    T[d][..., p] = ln sum_{axis labels g with first d bits == p} exp(-(y - amp_g)^2 / N0).
    noise_var may be an array broadcastable against y.
    """
    t = _leaf_terms(amp_by_label, y, noise_var)
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
    hypotheses. noise_var may be an array broadcastable against y
    (per-frame values). Raises ValueError when ``c`` has no per-axis
    amplitudes. The library does not call this: it forms every LLR with
    ``subtree_llr``, and the tests and the benchmark tracer read this form.
    """
    amps = c.axis_amp_by_label()
    y = np.asarray(y, dtype=np.complex128)
    axes = (y.real,) if c.m == 1 else (y.real, y.imag)
    return [pam_tables(amps, part, noise_var) for part in axes]


def level_llr_from_tables(tables: list[list[np.ndarray]], k: int,
                          prefix_labels: np.ndarray) -> np.ndarray:
    """LLR of bit level k (1-based) given per-symbol integer prefix labels.

    prefix_labels hold the k-1 decided bits (b_1 as MSB); only the bits on
    the axis of level k, (k-1) % 2, select the table entry. Bit-identical to
    ``subtree_llr``, and kept like ``demap_tables``.
    """
    axis = (k - 1) % 2
    t = tables[axis][(k - 1) // 2 + 1]
    p = 2 * _axis_label_bits(np.asarray(prefix_labels), k - 1, axis)
    llr = np.take_along_axis(t, p[..., None], axis=-1)[..., 0]
    llr -= np.take_along_axis(t, (p + 1)[..., None], axis=-1)[..., 0]
    return np.clip(llr, -LLR_CLIP, LLR_CLIP, out=llr)


def subtree_llr(c: Constellation, y: np.ndarray, noise_var: float | np.ndarray,
                k: int, prefix_labels: np.ndarray) -> np.ndarray:
    """LLR of bit level k (1-based) from its own axis subtree.

    Level k is bit d = (k-1)//2 + 1 of axis (k-1) % 2. Of the k-1 decided
    bits in prefix_labels (b_1 as MSB), the axis's first d - 1 form its
    prefix p, and the axis labels completing p are row p of the axis
    amplitudes split into 2^(d-1) rows. The row's leaves -(y_a - a)^2 / N0
    reduce pairwise with logaddexp to the halves under bit 0 and bit 1,
    whose difference, clipped, is the LLR. These are the operations, operands
    and order by which ``level_llr_from_tables`` reads the LLR from
    ``demap_tables``, so the result is bit-identical to it. y, prefix_labels
    and noise_var (broadcastable) share one shape.
    """
    axis = (k - 1) % 2
    p = _axis_label_bits(np.asarray(prefix_labels), k - 1, axis)
    rows = c.axis_amp_by_label().reshape(1 << (k - 1) // 2, -1)
    part = np.asarray(y, dtype=np.complex128)
    part = part.imag if axis else part.real
    t = _leaf_terms(np.take(rows, p, axis=0), part, noise_var)
    while t.shape[-1] > 2:
        t = np.logaddexp(t[..., 0::2], t[..., 1::2])
    llr = t[..., 0] - t[..., 1]
    return np.clip(llr, -LLR_CLIP, LLR_CLIP, out=llr)


def level_llr(c: Constellation, y: complex, noise_var: float,
              prefix: np.ndarray | tuple[int, ...] = ()) -> float:
    """Bit-level LLR for level k = len(prefix)+1 of a single received symbol.

    prefix holds the already decided bits (b_1, ..., b_{k-1}). The LLR
    marginalizes uniformly over the 2^(m-k) completions of each hypothesis,
    by ``subtree_llr``, the rule the multistage decoder uses for every frame.
    """
    prefix = np.asarray(prefix, dtype=np.int64).reshape(-1)
    k = prefix.size + 1
    if k > c.m:
        raise ValueError(f"prefix of length {prefix.size} leaves no level to demap")
    p = labels_from_bits(prefix, prefix.size)
    return float(subtree_llr(c, np.asarray([y]), noise_var, k, np.array([p]))[0])
