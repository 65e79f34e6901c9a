import csv
import dataclasses
import json

import numpy as np
import pytest

from mlcpcm.cli import main
from mlcpcm.construction import construct_rf1, construct_rf2, pw_sequence
from mlcpcm.sim import SimConfig, load_mcs_table


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


@pytest.mark.parametrize("method,construct", (("rf1", construct_rf1),
                                               ("rf2", construct_rf2)))
def test_construct_ranks_by_the_given_sequence(capsys, method, construct):
    def info_sets(seq):
        assert main(["construct", "--m", "4", "--n", "64", "--k", "64",
                     "--method", method, "--seq", seq]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        return [line.partition("A=")[2] for line in lines]

    want = construct(4, 64, 64, seq=pw_sequence(64)).info_sets
    assert info_sets("pw") == [" ".join(map(str, a)) for a in want]
    assert info_sets("pw") != info_sets("5g")


def test_construct_without_seq_ranks_by_pw_beyond_the_5g_coverage(capsys):
    def output(*flags):
        assert main(["construct", "--m", "2", "--n", "2048", "--rate", "0.5",
                     *flags]) == 0
        return capsys.readouterr().out

    assert output() == output("--seq", "pw")


def test_construct_rate_rounds_half_up(capsys):
    # 2 x 16 x 0.765625 = 24.5 information bits round to 25
    assert main(["construct", "--m", "2", "--n", "16", "--rate", "0.765625",
                 "--method", "rf1"]) == 0
    assert " k=25 " in capsys.readouterr().out


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


@pytest.mark.parametrize("text,message", (
    (json.dumps({"method": "rf1", "m": 2, "n": 32, "k": 24, "snr_grid_db": [2.0],
                 "list-size": 2, "max_erors": 5}),
     "unexpected keyword argument 'list-size'"),
    ("[2, 32]", "--config must hold a JSON object"),
    ('{"m": 2,}', "--config: Expecting property name"),
))
def test_config_file_rejects_bad_files(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["bler", "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mlcpcm bler") and message in err


@pytest.mark.parametrize("key,value", (("n", 32.0), ("list_size", 2.0),
                                       ("max_blocks", 10.5), ("m", True)))
def test_config_file_rejects_non_integer_fields(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    raw = {"method": "rf1", "m": 2, "n": 32, "k": 24, "snr_grid_db": [2.0],
           "list_size": 2, "max_blocks": 30, "max_errors": 30}
    cfg.write_text(json.dumps(dict(raw, **{key: value})))
    with pytest.raises(SystemExit) as exc:
        main(["bler", "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mlcpcm bler") and f"{key} must be an integer" in err


def test_minsnr_smoke(capsys):
    assert main(["minsnr", "--mcs-index", "1", "--target-bler", "0.2",
                 "--n", "32", "--method", "rf1", "--list-size", "2",
                 "--max-blocks", "200", "--max-errors", "40"]) == 0
    out = capsys.readouterr().out
    assert "snr" in out.lower()


MINSNR_ARGS = ["minsnr", "--mcs-index", "1", "--target-bler", "0.2",
               "--n", "32", "--method", "rf1", "--list-size", "2",
               "--max-blocks", "200", "--max-errors", "40"]


def test_minsnr_prints_probes(capsys):
    assert main(MINSNR_ARGS) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "required snr" in lines[0]
    assert lines[1].split() == ["snr_db", "bler", "blocks", "errors"]
    rows = [line.split() for line in lines[2:]]
    assert len(rows) >= 2
    snrs = [float(r[0]) for r in rows]
    assert snrs == sorted(snrs)
    for snr, bler, blocks, errors in rows:
        assert float(bler) == pytest.approx(int(errors) / int(blocks), rel=1e-5)


def test_minsnr_json_output(tmp_path, capsys):
    out = tmp_path / "minsnr.json"
    assert main(MINSNR_ARGS + ["--out", str(out)]) == 0
    text = capsys.readouterr().out
    data = json.loads(out.read_text())
    assert f"required snr {data['snr_db']:.3f} dB" in text
    assert data["warned"] is False
    assert data["config"]["mcs_index"] == 1 and data["config"]["n"] == 32
    assert len(data["probes"]) >= 2
    for p in data["probes"]:
        assert p["value"] == p["errors"] / p["blocks"]
        assert f"{p['snr_db']:8.2f}" in text


def test_minsnr_json_config_echoes_the_probes_simconfig(tmp_path):
    # every SimConfig field the probes simulate, grid aside, in field order,
    # then the search's own target and entry
    out = tmp_path / "minsnr.json"
    assert main(MINSNR_ARGS + ["--out", str(out)]) == 0
    mcs = load_mcs_table()[1]
    probe = SimConfig(method="rf1", m=mcs.m, n=32, k=mcs.k_for(32),
                      snr_grid_db=(0.0,), list_size=2, max_blocks=200,
                      max_errors=40)
    echo = [(key, value) for key, value in dataclasses.asdict(probe).items()
            if key != "snr_grid_db"]
    config = json.loads(out.read_text())["config"]
    assert list(config.items()) == echo + [("target_bler", 0.2), ("mcs_index", 1)]


def test_minsnr_csv_output(tmp_path, capsys):
    out = tmp_path / "minsnr.csv"
    assert main(MINSNR_ARGS + ["--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["snr_db", "bler", "blocks", "errors"]
    # printed: result line, header, one line per probe, "wrote ..."
    assert len(rows) - 1 == len(printed) - 3
    assert [float(r[0]) for r in rows[1:]] == \
           [float(line.split()[0]) for line in printed[2:-1]]


def test_bler_throughput_and_minsnr_echo_the_same_defaults(tmp_path, capsys):
    # without --method and --n all three run and echo rf2 at N = 256
    tails = {"bler": ["--m", "2", "--k", "64", "--snr-db", "30"],
             "throughput": ["--snr-db", "30", "--mcs", "0", "--lut-blocks", "1",
                            "--lut-errors", "1"],
             "minsnr": ["--mcs-index", "0", "--target-bler", "0.5"]}
    echoed = []
    for command, tail in tails.items():
        out = tmp_path / f"{command}.json"
        assert main([command, "--list-size", "1", "--max-blocks", "1", *tail,
                     "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        echoed.append((config["method"], config["n"]))
    assert echoed == [("rf2", 256)] * 3


def test_minsnr_default_list_size(capsys):
    # without --list-size the search runs at the default list size 8
    assert main(["minsnr", "--mcs-index", "1", "--target-bler", "0.2",
                 "--n", "32", "--method", "rf1", "--max-blocks", "40",
                 "--max-errors", "20"]) == 0
    assert "required snr" in capsys.readouterr().out


@pytest.mark.parametrize("flags", (["--config", "cfg.json"], ["--snr-db", "3"],
                                   ["--snr-start", "0", "--snr-stop", "4"],
                                   ["--snr-step", "0.25"], ["--k", "32"],
                                   ["--m", "4"]))
def test_minsnr_rejects_flags_it_cannot_honour(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(MINSNR_ARGS + flags)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", (
    ([], "m must be 1 or an even number >= 2, got 0"),
    (["--m", "2", "--n", "24"], "n must be a power of two"),
    (["--m", "2", "--k", "65"], "k must lie in [0, m n] = [0, 64]"),
))
def test_bler_rejects_bad_m_n_k_as_usage_error(capsys, flags, message):
    with pytest.raises(SystemExit) as exc:
        main(["bler", "--n", "32", "--k", "24", "--snr-db", "1"] + flags)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mlcpcm bler") and message in err


@pytest.mark.parametrize("argv,message", (
    (["analyze", "--m", "4", "--snr-start", "0", "--snr-stop", "2",
      "--snr-step", "0"], "--snr-step must be positive"),
    (["bler", "--m", "4", "--n", "32", "--k", "64", "--snr-start", "0",
      "--snr-stop", "2", "--snr-step", "0"], "--snr-step must be positive"),
    (["analyze", "--m", "4", "--snr-start", "0"], "--snr-stop required"),
    (["analyze", "--m", "4", "--snr-start", "1", "--snr-stop", "0"],
     "--snr-stop lies below --snr-start"),
    (["analyze", "--m", "3", "--snr-db", "1"], "square QAM needs even m"),
    (["construct", "--m", "4", "--n", "32", "--k", "500"],
     "target sum-rate 15.625 outside"),
    (["construct", "--m", "3", "--n", "32", "--k", "40"],
     "square QAM needs even m"),
    (["construct", "--m", "4", "--n", "100", "--k", "40"],
     "n must be a power of two, got 100"),
    (["bler", "--m", "2", "--n", "32", "--k", "24", "--snr-db", "1",
      "--out", "x.txt"], "must end in .csv or .json"),
    (["bler", "--m", "2", "--n", "32", "--snr-db", "1"], "bler needs k >= 1"),
    (["bler", "--m", "2", "--n", "32", "--k", "24"], "an SNR grid is required"),
    (["minsnr", "--mcs-index", "99", "--target-bler", "0.1"],
     "--mcs-index must lie in [0, 27], got 99"),
    (["minsnr", "--mcs-index", "1", "--target-bler", "0.1", "--list-size", "3"],
     "list size must be a power of two"),
    (["minsnr", "--mcs-index", "1", "--target-bler", "0.1", "--n", "24"],
     "n must be a power of two, got 24"),
    (["minsnr", "--mcs-index", "1", "--target-bler", "0.1", "--eps", "2"],
     "eps must lie in (0, 1), got 2.0"),
    (["minsnr", "--mcs-index", "1", "--target-bler", "2"],
     "argument --target-bler: must lie in (0, 1)"),
    (["throughput", "--snr-db", "6", "--mcs", "0", "77"],
     "--mcs [77] not in the MCS table"),
    (["throughput", "--snr-db", "6", "--lut-blocks", "0"],
     "argument --lut-blocks: must be an integer >= 1"),
    (["throughput", "--mcs", "0"], "an SNR grid is required"),
    (["construct", "--m", "4", "--n", "32", "--k", "50", "--method", "rf1",
      "--eps", "2"], "--eps applies to --method rf2 only"),
    (["construct", "--m", "4", "--n", "32", "--k", "50", "--snr-db", "3"],
     "--snr-db applies to --method ga only"),
    (["construct", "--m", "4", "--n", "32", "--k", "50", "--method", "ga",
      "--snr-db", "3", "--seq", "pw"], "--seq applies to --method rf1 and rf2"),
    (["analyze", "--m", "4", "--snr-db", "6", "--eps", "0.2"], "--eps needs --n"),
    (["analyze", "--m", "4", "--snr-db", "6", "--snr-stop", "8"],
     "--snr-stop and --snr-step need --snr-start"),
    (["minsnr", "--mcs-index", "1", "--target-bler", "0.1", "--mcs-table",
      "no-such-table.csv"], "--mcs-table: [Errno 2] No such file"),
    # at N = 1 MCS 0 carries no information bit, which its anchor solve refuses
    (["minsnr", "--mcs-index", "0", "--target-bler", "0.1", "--n", "1"],
     "target sum-rate 0.0 outside"),
    (["throughput", "--snr-db", "5", "--n", "1", "--mcs", "0"],
     "target sum-rate 0.0 outside"),
    # the 5G sequence covers N <= 1024 and is not swapped for PW beyond
    (["construct", "--m", "2", "--n", "2048", "--rate", "0.5", "--seq", "5g"],
     "N=2048 exceeds sequence coverage 1024"),
    # a config file's string grid, which simulated 3 and 7 dB
    (["bler", "--config", "{cfg}", "--m", "2", "--n", "16", "--k", "10"],
     "SNR grid must be a sequence of real numbers, got '37'"),
))
def test_bad_input_is_a_usage_error(tmp_path, capsys, argv, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"snr_grid_db": "37"}))
    with pytest.raises(SystemExit) as exc:
        main([a.format(cfg=cfg) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: mlcpcm {argv[0]}") and message in err


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


THROUGHPUT_ARGS = ["throughput", "--n", "16", "--snr-db", "6",
                   "--max-blocks", "8", "--list-size", "1", "--mcs", "0",
                   "--lut-blocks", "8", "--lut-errors", "4"]


@pytest.mark.parametrize("argv", (
    ["analyze", "--m", "4", "--snr-db", "6", "--workers", "7"],
    ["analyze", "--m", "4", "--snr-db", "6", "--config", "cfg.json"],
    ["construct", "--m", "4", "--n", "32", "--k", "64", "--max-blocks", "3"],
    ["construct", "--m", "4", "--n", "32", "--k", "64", "--snr-start", "1"],
    THROUGHPUT_ARGS + ["--m", "4"],
    THROUGHPUT_ARGS + ["--k", "64"],
    THROUGHPUT_ARGS + ["--rate", "0.5"],
    THROUGHPUT_ARGS + ["--max-errors", "5"],
))
def test_ignored_flags_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: mlcpcm {argv[0]}")
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


@pytest.mark.parametrize("raw,message", (
    ({"m": 4, "k": 9}, "--config may not set m, k: set per frame by the MCS table"),
    ({"k": 999}, "--config may not set k: set per frame by the MCS table"),
    ({"max_errors": 5},
     "--config may not set max_errors: throughput simulates every frame"),
))
def test_throughput_config_refuses_m_and_k(tmp_path, capsys, raw, message):
    # run_throughput takes m and k from the MCS table and simulates every
    # frame, so a config that sets m, k or max_errors would be echoed into
    # the output of a run that read none of them
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    with pytest.raises(SystemExit) as exc:
        main(THROUGHPUT_ARGS + ["--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mlcpcm throughput") and message in err


BLER_ARGS = ["bler", "--m", "2", "--n", "16", "--k", "10", "--snr-db", "3",
             "--max-errors", "5"]


@pytest.mark.parametrize("argv,message", (
    (BLER_ARGS + ["--max-blocks", "0"], "block and error budgets must be at least 1"),
    (BLER_ARGS + ["--list-size", "0"], "list size must be a power of two"),
    (["bler", "--config", "{cfg}", "--n", "16", "--k", "10", "--snr-db", "3",
      "--m", "0"], "m must be 1 or an even number >= 2, got 0"),
    (MINSNR_ARGS + ["--n", "0"], "n must be a power of two, got 0"),
))
def test_explicit_zero_reaches_validation(tmp_path, capsys, argv, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 2}))
    with pytest.raises(SystemExit) as exc:
        main([a.format(cfg=cfg) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: mlcpcm {argv[0]}") and message in err


@pytest.mark.parametrize("argv,message", (
    (["bler", "--m", "2", "--n", "16", "--k", "8", "--snr-start", "nan",
      "--snr-stop", "3"], "argument --snr-start: must be finite, got 'nan'"),
    (["bler", "--m", "2", "--n", "16", "--k", "8", "--snr-start", "0",
      "--snr-stop", "inf"], "argument --snr-stop: must be finite, got 'inf'"),
    (["bler", "--m", "2", "--n", "16", "--k", "8", "--snr-start=-inf",
      "--snr-stop", "3"], "argument --snr-start: must be finite, got '-inf'"),
    (["bler", "--m", "2", "--n", "16", "--k", "8", "--snr-start", "0",
      "--snr-stop", "3", "--snr-step", "inf"],
     "argument --snr-step: must be finite, got 'inf'"),
    (["bler", "--config", "{cfg}", "--m", "2", "--n", "16", "--k", "8"],
     "SNR grid points must be finite, got nan"),
    (["throughput", "--snr-db", "inf", "--mcs", "0"],
     "argument --snr-db: must be finite, got 'inf'"),
    (["analyze", "--m", "4", "--snr-db", "inf"],
     "argument --snr-db: must be finite, got 'inf'"),
    (["construct", "--m", "4", "--n", "16", "--k", "8", "--method", "ga",
      "--snr-db", "nan"], "argument --snr-db: must be finite, got 'nan'"),
    (["construct", "--m", "4", "--n", "16", "--rate", "nan"],
     "argument --rate: must lie in (0, 1], got 'nan'"),
    (["bler", "--m", "2", "--n", "16", "--rate", "inf", "--snr-db", "1"],
     "argument --rate: must lie in (0, 1], got 'inf'"),
    (["construct", "--method", "rf1", "--m", "3", "--n", "16", "--k", "48"],
     "square QAM needs even m >= 2, got 3"),
    # an SNR whose N0 overflows, which ended in an OverflowError traceback
    (["bler", "--m", "2", "--n", "16", "--k", "8", "--snr-db", "-4000"],
     "SNR grid point -4000.0 dB is too low"),
    (["throughput", "--snr-db", "-4000", "--mcs", "0"],
     "SNR grid point -4000.0 dB is too low"),
    (["analyze", "--m", "4", "--snr-db", "-4000"],
     "Es/N0 of -4000.0 dB has no finite N0"),
    (["construct", "--m", "4", "--n", "16", "--k", "8", "--method", "ga",
      "--snr-db", "-4000"], "Es/N0 of -4000.0 dB has no finite N0"),
))
def test_invalid_snr_rate_and_m_are_usage_errors(tmp_path, capsys, argv, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"snr_grid_db": [0.0, NaN]}')
    with pytest.raises(SystemExit) as exc:
        main([a.format(cfg=cfg) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    last = err.splitlines()[-1]  # after the usage lines, a one-line message
    assert err.startswith(f"usage: mlcpcm {argv[0]}")
    assert last.startswith(f"mlcpcm {argv[0]}: error: ") and message in last


def test_snr_grid_is_bounded_before_it_is_built(monkeypatch, capsys):
    # 10^9 points, 8 GB of float64, are refused as a usage error before
    # np.arange would allocate them
    def arange(*args, **kwargs):
        raise AssertionError(f"np.arange{args} was called")

    monkeypatch.setattr(np, "arange", arange)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--m", "4", "--snr-start", "0", "--snr-stop", "1e9",
              "--snr-step", "1"])
    assert exc.value.code == 2
    assert "more than 100000 points" in capsys.readouterr().err


def test_analyze_above_the_snr_clip_prints_finite_values(capsys):
    # above about 3240 dB N0 underflowed to 0 and every statistic was NaN
    assert main(["analyze", "--m", "4", "--snr-db", "200", "4000"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert "nan" not in " ".join(rows).lower()
    assert rows[0].split()[1:] == rows[1].split()[1:]


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
