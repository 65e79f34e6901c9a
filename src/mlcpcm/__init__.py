"""Multilevel polar-coded modulation: constructions, codecs, and link simulation."""

from .constellation import (Constellation, build_bpsk, build_constellation,
                            build_qam, demap_tables, gray_code, level_llr,
                            level_llr_from_tables, map_bits)
from .construction import (CodeConstruction, RankSequence, construct_ga,
                           construct_rf1, construct_rf2, default_sequence,
                           finite_bl_values, five_g_sequence, ga_evolve,
                           load_rank_sequence, pw_sequence, rate_fill,
                           solve_snr_capacity, solve_snr_finite)
from .mp_analysis import (channel_capacity, finite_bl_rate, level_stats,
                          noise_sigma, per_level_error_prob, q_function,
                          q_inverse, subchannel_capacity, subchannel_dispersion)
from .mlc_system import mlc_encode_batch, multistage_decode_batch
from .polar_codec import (ComponentCode, RowBlocks, crc_attach, crc_check,
                          crc_len_for_k, polar_encode, scl_decode_batch)
from .sim import (McsEntry, MinSnrResult, SimConfig, SimCurve, SimPoint,
                  awgn_transmit, build_bler_lut, frame_rng, load_mcs_table,
                  min_required_snr, predict_bler, run_bler, run_throughput)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
