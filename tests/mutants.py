"""Mutation check: the tests must notice a change to each rule that has one
home in the library.

Each mutant replaces one exact text in one module of a temporary copy of
``src/`` and runs a pytest selection on that copy, which must then fail. The
check fails if a mutant survives, if its old text does not occur exactly
once in the module, or if a selection does not pass on the unmutated copy.
The pytest runs go out over one process per CPU this process may run on,
and the verdicts print in mutant order.

Run from anywhere: ``python tests/mutants.py``. Its name does not match
pytest's ``test_*.py``, so the test suite does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DERIVED = ("tests/test_mlc_system.py::"
           "test_construction_derives_m_k_crc_lens_and_codes_from_its_info_sets")

# (module in src/mlcpcm, exact old text, new text, pytest selection)
MUTANTS = (
    # K from a rate rounds half up
    ("sim.py", "int(np.floor(m * n * rate + 0.5))", "int(np.floor(m * n * rate))",
     ("tests/test_sim.py::test_k_for_rate_rounds_half_up",
      "tests/test_cli.py::test_construct_rate_rounds_half_up")),
    # N0 from Es/N0 clips the SNR, in the simulator and the analysis alike
    ("mp_analysis.py", "10.0 ** (-min(float(snr_db), SNR_CLIP_DB) / 10.0)",
     "10.0 ** (-float(snr_db) / 10.0)",
     ("tests/test_sim.py::test_snr_above_the_clip_transmits_and_decodes_as_the_clip",
      "tests/test_mp_analysis.py::test_level_stats_above_the_clip_are_those_at_the_clip")),
    # one fade floor for the instantaneous SNR and the decoder's noise variance
    ("sim.py", "_FADE_FLOOR = 1e-30", "_FADE_FLOOR = 0.1",
     ("tests/test_sim.py::test_throughput_scheduler_matches_per_chunk_reference",)),
    # GA evolves each distinct design mean once, then expands to the levels
    ("construction.py",
     "for ck in distinct])\n    rel = ga_evolve(2.0 / sigma**2, n)[inverse]",
     "for ck in distinct])[inverse]\n    rel = ga_evolve(2.0 / sigma**2, n)",
     ("tests/test_construction.py::test_construct_ga_evolves_each_distinct_design_mean_once",)),
    ("construction.py", "ga_evolve(2.0 / sigma**2, n)[inverse]",
     "ga_evolve(2.0 / sigma**2, n)[inverse[::-1]]",
     ("tests/test_construction.py::test_construct_ga_info_sets_pinned",)),
    # construction dispatch passes the rank sequence on
    ("sim.py", "construct_rf1(c.m, k, n, seq=seq)", "construct_rf1(c.m, k, n)",
     ("tests/test_cli.py::test_construct_ranks_by_the_given_sequence",)),
    ("sim.py", "construct_rf2(c.m, k, n, eps=eps, seq=seq)",
     "construct_rf2(c.m, k, n, eps=eps)",
     ("tests/test_cli.py::test_construct_ranks_by_the_given_sequence",)),
    # K = mN, a sum-rate no SNR reaches, skips the SNR solve and fills every
    # level to N, and each level's set is the top-k slice of its rank sequence
    ("construction.py", "if k_total == m * n:", "if k_total > m * n:",
     ("tests/test_construction.py::test_rf_full_rate_fills_every_level_in_level_order",)),
    ("construction.py", "self.restrict(n)[n - k:]", "self.restrict(n)[-k:]",
     ("tests/test_construction.py::test_top_k_nesting",)),
    # a construction derives its codes, m, K and CRC lengths from its
    # information sets alone, once
    ("construction.py", "crc_len=crc_len_for_k(len(s))", "crc_len=crc_len_for_k(len(s) - 1)",
     (DERIVED,)),
    ("construction.py", "m=len(codes)", "m=sum(1 for c in codes if c.k)", (DERIVED,)),
    ("construction.py", "k_total=sum(c.k for c in codes)",
     "k_total=sum(c.payload_len for c in codes)", (DERIVED,)),
    ("construction.py", "crc_lens=tuple(c.crc_len for c in codes)",
     "crc_lens=tuple(crc_len_for_k(c.payload_len) for c in codes)", (DERIVED,)),
    # RF-I is RF-II at eps = 0.5, and the capacity solve the finite one there
    ("construction.py", "construct_rf2(m, k_total, n, 0.5, seq)",
     "construct_rf2(m, k_total, n, 0.4999, seq)",
     ("tests/test_acceptance.py::test_criterion_2_solver_contracts",)),
    ("construction.py", "solve_snr_finite(c, target_sum_rate, 1, 0.5)",
     "solve_snr_finite(c, target_sum_rate, 1, 0.4999)",
     ("tests/test_construction.py::test_finite_solver_half_eps_degenerates",)),
    # the normal-approximation rate has one home
    ("mp_analysis.py", "return i - np.sqrt(v / n) * q_inverse(eps)",
     "return i + np.sqrt(v / n) * q_inverse(eps)",
     ("tests/test_construction.py::test_finite_bl_values_composition",)),
    # every SNR above the clip shares the clip's statistics entry
    ("mp_analysis.py", "key = (c.name, min(float(snr_db), SNR_CLIP_DB))",
     "key = (c.name, float(snr_db))",
     ("tests/test_mp_analysis.py::test_level_stats_above_the_clip_share_the_clip_entry",)),
    # every block of a stage update runs, the partial last one included, in
    # the g update too; the contract's one-frame blocks reach the demapper
    ("polar_codec.py", "for lo in range(0, half, step):",
     "for lo in range(0, half - half % step, step):",
     ("tests/test_polar_codec.py::test_blocked_boxplus_matches_boxplus",
      "tests/test_polar_codec.py::test_decoder_matches_frozen_reference_on_large_batches")),
    ("polar_codec.py", "            _g(a, b, u[lo:hi], out[lo:hi])",
     "            if hi - lo == step:\n                _g(a, b, u[lo:hi], out[lo:hi])",
     ("tests/test_polar_codec.py::test_blocked_boxplus_matches_boxplus",
      "tests/test_polar_codec.py::test_decoder_matches_frozen_reference_on_large_batches")),
    ("mlc_system.py", "y[lo:lo + step], noise_var[lo:lo + step]",
     "y[lo:lo + step + 1], noise_var[lo:lo + step + 1]",
     ("tests/test_contract.py::test_contract_holds_at_any_demap_and_boxplus_block"
      "[one-frame-demap-blocks]",)),
    # each level's LLRs come from its own axis's samples, prefix and subtree,
    # bit for bit
    ("constellation.py", "part = part.imag if axis else part.real",
     "part = part.real if axis else part.imag",
     ("tests/test_mlc_system.py::test_blocked_demap_matches_reference[4]",)),
    ("constellation.py", "_axis_label_bits(np.asarray(prefix_labels), k - 1, axis)\n    rows",
     "_axis_label_bits(np.asarray(prefix_labels), k - 1, 1 - axis)\n    rows",
     ("tests/test_mlc_system.py::test_blocked_demap_matches_reference[4]",)),
    ("constellation.py", "t = _leaf_terms(np.take(rows, p, axis=0), part, noise_var)",
     "t = np.nextafter(_leaf_terms(np.take(rows, p, axis=0), part, noise_var), 0.0)",
     ("tests/test_mlc_system.py::test_blocked_demap_matches_reference[4]",)),
    # level_llr forms its LLR by the same subtree rule, from its packed prefix
    ("constellation.py", "part = part.imag if axis else part.real",
     "part = part.real if axis else part.imag",
     ("tests/test_constellation.py::test_level_llr_direct_sum",
      "tests/test_constellation.py::test_level_llr_sign_on_clean_symbol")),
    ("constellation.py", "p = labels_from_bits(prefix, prefix.size)",
     "p = labels_from_bits(prefix[::-1], prefix.size)",
     ("tests/test_constellation.py::test_level_llr_direct_sum",)),
    # the decoder's survivor selection: a stable sort, the frozen rows' junk
    # children at +inf, and the real path count clamped at the list size
    ("polar_codec.py", 'keys.argsort(axis=1, kind="stable")',
     'keys.argsort(axis=1, kind="quicksort")',
     ("tests/test_polar_codec.py::test_decoder_matches_frozen_reference_on_frozen_patterns",
      "tests/test_polar_codec.py::test_mixed_row_blocks_match_per_block_reference")),
    ("polar_codec.py", "pm2[frozen_row, :, 1] = np.inf",
     "pm2[frozen_row, :, 1] += 0.0",
     ("tests/test_polar_codec.py::test_mixed_row_blocks_match_per_block_reference",)),
    ("polar_codec.py", "np.minimum(before, int(list_size).bit_length())",
     "np.minimum(before, stages + 1)",
     ("tests/test_polar_codec.py::test_mixed_row_blocks_match_per_block_reference",)),
    # the check-node rule adds the |a+b| correction and subtracts the |a-b| one
    ("polar_codec.py", "for op in (np.add, np.subtract):",
     "for op in (np.subtract, np.add):",
     ("tests/test_polar_codec.py::test_boxplus_matches_sign_product_bitwise",)),
    # a g update takes the path count of its own left sums, not of its
    # input, which below the top stage are the top stage's left sums
    ("polar_codec.py", "(above if u is None else u).shape[-1]", "above.shape[-1]",
     ("tests/test_polar_codec.py::"
      "test_decoder_matches_frozen_reference_on_partial_top_blocks",)),
    # a call's pool leaves no child process behind
    ("sim.py", "            for proc in (pool._processes or {}).values():\n"
     "                proc.terminate()\n"
     "            pool.shutdown(cancel_futures=True)\n",
     "            pass\n",
     ("tests/test_sim.py::test_min_required_snr_guard_leaves_no_children",
      "tests/test_sim.py::test_min_required_snr_shuts_down_the_pools_it_held")),
    # throughput batches: full at the batch limit, the partial ones flushed,
    # each frame at its own mean SNR
    ("sim.py", "if len(batch) == limit[mcs]:", "if len(batch) == limit[mcs] + 1:",
     ("tests/test_sim.py::test_throughput_batches_fill_across_points",)),
    ("sim.py", "    for mcs, batch in pending.items():\n        yield cfg, mcs, batch",
     "    for mcs, batch in ():\n        yield cfg, mcs, batch",
     ("tests/test_sim.py::test_throughput_scheduler_matches_per_chunk_reference",)),
    ("sim.py", "[cfg.snr_grid_db[i] for i in point]", "[cfg.snr_grid_db[0] for i in point]",
     ("tests/test_sim.py::test_throughput_scheduler_matches_per_chunk_reference",)),
    # an MCS entry's setup: the CLI reports the library's refusals as usage
    # errors, the search echoes every simulated field but the grid, and the
    # anchor is the capacity-matched SNR of the sum-rate K/N
    ("cli.py", "res = _checked(min_required_snr, mcs=mcs,", "res = min_required_snr(mcs=mcs,",
     ("tests/test_cli.py::test_bad_input_is_a_usage_error",)),
    ("cli.py", "lut = _checked(build_bler_lut, cfg.method,", "lut = build_bler_lut(cfg.method,",
     ("tests/test_cli.py::test_bad_input_is_a_usage_error",)),
    ("sim.py", 'if key != "snr_grid_db"})', 'if key not in ("snr_grid_db", "eps")})',
     ("tests/test_cli.py::test_minsnr_json_config_echoes_the_probes_simconfig",
      "tests/test_sim.py::test_search_and_lut_take_their_settings_from_simconfig")),
    ("sim.py", "solve_snr_capacity(build_constellation(mcs.m), cfg.k / n)",
     "solve_snr_capacity(build_constellation(mcs.m), mcs.rate)",
     ("tests/test_sim.py::test_run_throughput_golden",)),
    # the SNR solve refuses a sum-rate outside its margins before bracketing
    ("construction.py", "if not RATE_MARGIN <= target_sum_rate <=",
     "if not 0.0 <= target_sum_rate <=",
     ("tests/test_cli.py::test_bad_input_is_a_usage_error",)),
    # the level statistics read each sent label's own prefix
    ("mp_analysis.py", "(labels >> (depth - k))[:, None]",
     "((labels + 1) % half >> (depth - k))[:, None]",
     ("tests/test_mp_analysis.py::test_chain_rule_against_direct_quadrature",
      "tests/test_mp_analysis.py::test_bpsk_equals_biawgn")),
    # Cephes ndtri: the upper-tail branch point, the far-tail coefficients
    # and the order of the tail product z * P1(z) / Q1(z)
    ("mp_analysis.py", "if y > 1.0 - _EXP_M2:", "if y >= 1.0 - _EXP_M2:",
     ("tests/test_mp_analysis.py::test_q_inverse_matches_scipy_bitwise",)),
    ("mp_analysis.py", "6.23974539184983293730E-9", "6.23984539184983293730E-9",
     ("tests/test_mp_analysis.py::test_q_inverse_matches_scipy_bitwise",)),
    ("mp_analysis.py", "x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)",
     "x1 = z * (_polevl(z, _P1) / _polevl(z, _Q1))",
     ("tests/test_mp_analysis.py::test_q_inverse_matches_scipy_bitwise",)),
    # the search's look-ahead: only below the bracket in the backfill, and
    # only on the workers a probe's own chunks leave idle
    ("sim.py", "if t not in cache and t < below]", "if t not in cache]",
     ("tests/test_sim.py::test_min_required_snr_backfill_speculates_below_bracket",
      "tests/test_sim.py::test_min_required_snr_backfill_sends_look_ahead_below_bracket")),
    ("sim.py", "ahead[:max(workers - len(chunks), 0)]", "ahead[:workers - 1]",
     ("tests/test_sim.py::test_min_required_snr_chunked_probes_do_not_speculate",
      "tests/test_sim.py::test_min_required_snr_chunked_probes_submit_no_look_ahead")),
    # the probe cache holds only the probes the walk asks for, not the
    # look-ahead it sent out; a probe of several chunks spreads them over the
    # pool's workers instead of running them in the calling process
    ("sim.py", "                                        if t not in cache and t < below])\n",
     "                                        if t not in cache and t < below])\n"
     "                cache.update((t, point(0, t)) for t in nxt if t not in cache)\n",
     ("tests/test_sim.py::test_min_required_snr_speculation_never_shows[9.6]",)),
    ("sim.py", "flags = _in_order(pool and submit,",
     "flags = _in_order(len(chunks) == 1 and pool and submit or None,",
     ("tests/test_sim.py::test_min_required_snr_chunked_probes_do_not_speculate",)),
    # the search strides 1 dB across the flat top at a target of 0.1, and
    # not at all above a target of 1/3; its anchor looks ahead 1 dB only up
    # to a target of 1/30
    ("sim.py", "1.0 if 30 * target_bler <= 1.0 else step", "1.0 if far <= 1.0 else step",
     ("tests/test_sim.py::test_min_required_snr_anchor_looks_ahead_on_the_grid_at_target_0_1",)),
    ("sim.py", "min(30 * target_bler, 0.9)", "min(30 * target_bler, 1.1)",
     ("tests/test_sim.py::test_min_required_snr_worker_invariant[flat-top]",)),
    ("sim.py", "3 * target_bler)", "0 * target_bler)",
     ("tests/test_sim.py::test_min_required_snr_matches_the_frozen_walk[rf2-16-0.5]",
      "tests/test_sim.py::test_min_required_snr_matches_the_frozen_walk[ga-16-0.5]")),
    # a row frozen at a leaf ranks its real paths' bit-0 children first
    ("polar_codec.py", "rank = np.where(c < 2 * r, (c & 1) * r + (c >> 1), c)",
     "rank = np.where(c < 2 * r, c, c)",
     ("tests/test_polar_codec.py::test_mixed_row_blocks_match_per_block_reference",)),
    # the odd level of a pair reads its prefix bits at the odd positions
    ("mlc_system.py", "prefix[lo:lo + step] << j)", "prefix[lo:lo + step])",
     ("tests/test_mlc_system.py::test_paired_levels_match_level_by_level_reference",)),
)


def _copy(dest: Path) -> Path:
    """A copy of the sources and tests under ``dest``, to run in."""
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)
    return dest


def _pytest(tree: Path, selection: tuple[str, ...], basetemp: Path) -> int:
    """Exit code of pytest on ``selection``, importing the package from ``tree``
    and keeping its temporary files under ``basetemp``, its own."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         f"--basetemp={basetemp}", *selection], cwd=tree, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _mutant(tree: Path, module: str, old: str, new: str,
            selection: tuple[str, ...]) -> tuple[str | None, str | None]:
    """(verdict line, failure) of one mutant, tested in its copy ``tree``;
    a mutant whose old text is not found once gets no verdict line."""
    _copy(tree)
    path = tree / "src" / "mlcpcm" / module
    text = path.read_text()
    found = text.count(old)
    if found != 1:
        return None, f"{module}: {old!r} found {found} times, not once"
    path.write_text(text.replace(old, new))
    code = _pytest(tree, selection, tree / "pytest")
    verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error (exit {code})")
    return (f"{verdict:>16}  {module}: {old!r} -> {new!r}",
            None if code == 1 else f"{module}: {old!r} -> {new!r} {verdict}")


def _cpus() -> int:
    # the CPUs this process may run on, not all of the machine's
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main() -> int:
    failures = []
    with (tempfile.TemporaryDirectory() as tmp,
          ThreadPoolExecutor(_cpus()) as pool):
        # each thread waits on one pytest process
        clean = _copy(Path(tmp) / "clean")
        selections = list(dict.fromkeys(sel for *_, sel in MUTANTS))
        checks = [pool.submit(_pytest, clean, selection, Path(tmp) / f"clean{i}")
                  for i, selection in enumerate(selections)]
        runs = [pool.submit(_mutant, Path(tmp) / f"mutant{i}", *mutant)
                for i, mutant in enumerate(MUTANTS)]
        for selection, check in zip(selections, checks):
            code = check.result()
            if code != 0:
                failures.append(f"unmutated copy fails (exit {code}): {' '.join(selection)}")
        for run in runs:
            line, failure = run.result()
            if line is not None:
                print(line, flush=True)
            if failure is not None:
                failures.append(failure)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(f"{len(MUTANTS)} mutants, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
