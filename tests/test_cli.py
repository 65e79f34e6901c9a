import csv
import json

import pytest

from mlcpcm.cli import main


def test_analyze_prints_level_table(capsys):
    assert main(["analyze", "--m", "4", "--snr-db", "6"]) == 0
    out = capsys.readouterr().out
    assert "capacity_total" in out and "i_w4" in out and "v_w4" in out
    assert out.count("\n") == 2  # header + one grid row


def test_analyze_requires_grid(capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "--m", "4"])


def test_construct_reports_allocation(capsys):
    assert main(["construct", "--m", "4", "--n", "32", "--k", "64"]) == 0
    out = capsys.readouterr().out
    assert "7.876679607123" in out
    for frag in ("21", "20", "12", "11"):
        assert frag in out


def test_construct_rate_flag(capsys):
    assert main(["construct", "--m", "2", "--n", "16", "--rate", "0.5",
                 "--method", "rf1"]) == 0
    out = capsys.readouterr().out
    assert "16" in out


def test_construct_ga_needs_snr(capsys):
    with pytest.raises(SystemExit):
        main(["construct", "--m", "2", "--n", "16", "--k", "8", "--method", "ga"])
    assert main(["construct", "--m", "2", "--n", "16", "--k", "8",
                 "--method", "ga", "--snr-db", "3"]) == 0


def test_bler_json_output(tmp_path, capsys):
    out = tmp_path / "curve.json"
    assert main(["bler", "--method", "rf1", "--m", "2", "--n", "32", "--k", "24",
                 "--snr-db", "1", "4", "--max-blocks", "50", "--max-errors", "50",
                 "--list-size", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["metric"] == "bler"
    assert len(data["points"]) == 2
    assert data["config"]["k"] == 24


def test_bler_csv_output(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["bler", "--method", "rf2", "--m", "2", "--n", "32", "--k", "24",
                 "--snr-start", "1", "--snr-stop", "4", "--snr-step", "3",
                 "--max-blocks", "40", "--max-errors", "40",
                 "--list-size", "2", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "snr_db"
    assert len(rows) == 3


def test_config_file_merge(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "rf1", "m": 2, "n": 32, "k": 24,
                               "snr_grid_db": [2.0], "list_size": 2,
                               "max_blocks": 30, "max_errors": 30}))
    assert main(["bler", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "2.0" in out


def test_minsnr_smoke(capsys):
    assert main(["minsnr", "--mcs-index", "1", "--target-bler", "0.2",
                 "--n", "32", "--method", "rf1", "--list-size", "2",
                 "--max-blocks", "200", "--max-errors", "40"]) == 0
    out = capsys.readouterr().out
    assert "snr" in out.lower()


def test_throughput_csv(tmp_path):
    out = tmp_path / "tp.csv"
    assert main(["throughput", "--method", "rf2", "--n", "32",
                 "--snr-db", "2", "10", "--max-blocks", "60",
                 "--list-size", "2", "--mcs", "0", "3",
                 "--lut-blocks", "80", "--lut-errors", "30",
                 "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "snr_db" and len(rows) == 3


def test_throughput_at_largest_seed(tmp_path):
    # the stored-table seed wraps to 0 instead of leaving [0, 2^64)
    out = tmp_path / "tp.json"
    assert main(["throughput", "--method", "rf2", "--n", "16",
                 "--snr-db", "6", "--max-blocks", "8", "--list-size", "1",
                 "--mcs", "0", "--lut-blocks", "8", "--lut-errors", "4",
                 "--seed", str(2**64 - 1), "--out", str(out)]) == 0
    assert out.exists()


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
