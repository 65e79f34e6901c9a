"""Mutation check: the tests must notice a change to each rule that has one
home in the library.

Each mutant replaces one exact text in one module of a temporary copy of
``src/`` and runs a pytest selection on that copy, which must then fail. The
check fails if a mutant survives, if its old text does not occur exactly
once in the module, or if a selection does not pass on the unmutated copy.

Run from anywhere: ``python tests/mutants.py``. Its name does not match
pytest's ``test_*.py``, so the test suite does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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
    # the contract's small blocks reach the blocked boxplus and demapper
    ("polar_codec.py", "for r in range(0, a.size, _BLOCK):",
     "for r in range(0, a.size - a.size % _BLOCK, _BLOCK):",
     ("tests/test_contract.py::test_contract_holds_at_any_demap_and_boxplus_block"
      "[boxplus-blocks-of-100]",)),
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
)


def _copy(dest: Path) -> Path:
    """A copy of the sources and tests under ``dest``, to run in."""
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)
    return dest


def _pytest(tree: Path, selection: tuple[str, ...]) -> int:
    """Exit code of pytest on ``selection``, importing the package from ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *selection], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        clean = _copy(Path(tmp) / "clean")
        for selection in dict.fromkeys(sel for *_, sel in MUTANTS):
            code = _pytest(clean, selection)
            if code != 0:
                failures.append(f"unmutated copy fails (exit {code}): {' '.join(selection)}")
        for i, (module, old, new, selection) in enumerate(MUTANTS):
            tree = _copy(Path(tmp) / f"mutant{i}")
            path = tree / "src" / "mlcpcm" / module
            text = path.read_text()
            found = text.count(old)
            if found != 1:
                failures.append(f"{module}: {old!r} found {found} times, not once")
                continue
            path.write_text(text.replace(old, new))
            code = _pytest(tree, selection)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error (exit {code})")
            print(f"{verdict:>16}  {module}: {old!r} -> {new!r}")
            if code != 1:
                failures.append(f"{module}: {old!r} -> {new!r} {verdict}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(f"{len(MUTANTS)} mutants, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
