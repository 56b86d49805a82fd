import json
from pathlib import Path

import numpy as np
import pytest

from latdist.cli import main, parse_value_list

DATA_DIR = Path(__file__).parent / "data"


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_vectors(tmp_path, rows):
    path = tmp_path / "vectors.jsonl"
    path.write_text("\n".join(json.dumps(list(r)) for r in rows) + "\n")
    return path


class TestParsing:
    def test_value_lists(self):
        assert parse_value_list("0.05") == [0.05]
        assert parse_value_list("0.05,0.2") == [0.05, 0.2]
        assert parse_value_list("lin:0:1:3") == [0.0, 0.5, 1.0]
        assert len(parse_value_list("log:0.001:0.5:7")) == 7

    def test_bad_specs(self):
        with pytest.raises(Exception):
            parse_value_list("lin:0:1")


class TestBudgetCommand:
    def test_reference_row(self, capsys):
        code, out, _ = run(
            ["budget", "-k", "50", "--k-top", "5", "--beta-s", "0.05"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# config = ")
        json.loads(lines[0].removeprefix("# config = "))
        assert lines[1] == "beta_s,J_uq_bits,J_lq_bits,J_slq_bits,ell_lq,ell_slq"
        fields = lines[2].split(",")
        assert float(fields[1]) == pytest.approx(996.578428, rel=1e-6)
        assert fields[2] == "189" and fields[3] == "37"
        assert fields[4] == "250" and fields[5] == "26"

    def test_sweep_is_monotone(self, capsys):
        code, out, _ = run(
            ["budget", "-k", "50", "--k-top", "5", "--beta-s", "log:0.001:0.3:12"],
            capsys,
        )
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines()[2:]]
        for col in (1, 2, 3):
            values = [float(r[col]) for r in rows]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_empty_grid_is_usage_error(self, capsys):
        code, _, err = run(["budget", "-k", "50", "--k-top", "5", "--beta-s", ""], capsys)
        assert code == 2
        assert "error" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run(["budget", "--k-top", "5"], capsys)
        assert code == 2
        assert "--k" in err

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["tradeoff", "--scheme", "vector-banana", "-k", "10",
                  "--gamma0-db", "5", "--b-hz", "1e5", "--beta-t", "0.05"])
        assert exc.value.code == 2

    def test_json_format(self, capsys):
        code, out, _ = run(
            ["budget", "-k", "50", "--k-top", "5", "--beta-s", "0.05", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["J_slq_bits"] == 37
        assert doc["config"]["k"] == 50


class TestTradeoffCommand:
    def test_columns_and_config_echo(self, capsys):
        code, out, _ = run(
            [
                "tradeoff", "--scheme", "slq", "-k", "20", "--k-top", "4",
                "--gamma0-db", "5", "--b-hz", "320000", "--beta-t", "0.05",
                "--grid-points", "10",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        cfg = json.loads(lines[0].removeprefix("# config = "))
        assert cfg["beta_t"] == 0.05 and cfg["scheme"] == "slq"
        assert "jobs" not in cfg
        assert lines[1] == "beta_t,beta_s,J_bits,epsilon_target,n,latency_ms,feasible,hull_member"
        assert len(lines) == 12

    def test_rejects_multiple_beta_t(self, capsys):
        code, _, err = run(
            [
                "tradeoff", "--scheme", "lq", "-k", "10", "--gamma0-db", "5",
                "--b-hz", "1e5", "--beta-t", "0.05,0.1",
            ],
            capsys,
        )
        assert code == 2

    def test_undefined_budget_is_usage_error(self, capsys):
        # UQ needs k >= 2; this used to report every grid point infeasible (exit 3).
        code, out, err = run(
            [
                "tradeoff", "--scheme", "uq", "-k", "1", "--gamma0-db", "5",
                "--b-hz", "1e5", "--beta-t", "0.1",
            ],
            capsys,
        )
        assert code == 2 and out == ""
        assert "needs k >= 2" in err

    def test_json_contains_best_and_latency_seconds(self, capsys):
        code, out, _ = run(
            [
                "tradeoff", "--scheme", "lq", "-k", "10", "--gamma0-db", "5",
                "--b-hz", "1e5", "--beta-t", "0.05", "--grid-points", "20",
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        best = doc["best"]
        assert best["latency_s"] == pytest.approx(best["latency_ms"] / 1e3)
        assert len(doc["rows"]) == 20


class TestHullCommand:
    HULL_ARGS = [
        "hull", "--scheme", "slq", "-k", "50", "--k-top", "5",
        "--gamma0-db", "5", "--b-hz", "320000", "--beta-t", "lin:0.05:0.3:6",
        "--grid-points", "150",
    ]

    def test_matches_golden_file(self, capsys):
        code, out, _ = run(self.HULL_ARGS, capsys)
        assert code == 0
        assert out == (DATA_DIR / "golden_hull.csv").read_text()

    def test_jobs_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(self.HULL_ARGS + ["--jobs", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--b-hz", "inf"), ("--b-hz", "nan"), ("--gamma0-db", "nan"), ("--gamma0-db", "inf")],
    )
    def test_non_finite_channel_is_usage_error(self, capsys, flag, value):
        args = list(self.HULL_ARGS)
        args[args.index(flag) + 1] = value
        code, out, err = run(args, capsys)
        assert code == 2 and out == ""
        assert "must be finite and positive" in err

    def test_overflowing_snr_is_usage_error(self, capsys):
        # 4000 dB overflows 10 ** (dB / 10); this used to print a traceback.
        code, out, err = run(
            ["hull", "--scheme", "lq", "-k", "10", "--gamma0-db", "4000",
             "--b-hz", "1e5", "--beta-t", "0.1"],
            capsys,
        )
        assert code == 2 and out == ""
        assert "4000.0 dB overflows" in err

    def test_infeasible_exit_code(self, capsys):
        code, _, err = run(
            [
                "hull", "--scheme", "slq", "-k", "20", "--k-top", "5",
                "--delta", "0.5", "--gamma0-db", "5", "--b-hz", "1e5",
                "--beta-t", "0.05,0.1",
            ],
            capsys,
        )
        assert code == 3
        assert "infeasible" in err

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "hull.csv"
        code, stdout, _ = run(self.HULL_ARGS + ["--output", str(out_path)], capsys)
        assert code == 0 and stdout == ""
        assert out_path.read_text() == (DATA_DIR / "golden_hull.csv").read_text()


class TestCodecCommands:
    def test_quantize_dequantize_roundtrip(self, tmp_path, capsys):
        rng = np.random.default_rng(70)
        rows = rng.dirichlet(np.ones(6), size=4)
        vectors = write_vectors(tmp_path, rows)
        payload_path = tmp_path / "payloads.csv"
        code, _, _ = run(
            [
                "quantize", "--scheme", "slq", "-k", "6", "--k-top", "2",
                "--ell", "40", "--input", str(vectors),
                "--output", str(payload_path),
            ],
            capsys,
        )
        assert code == 0
        lines = payload_path.read_text().strip().splitlines()
        assert lines[1] == "payload_hex"
        assert len(lines) == 6
        code, out, _ = run(
            [
                "dequantize", "--scheme", "slq", "-k", "6", "--k-top", "2",
                "--ell", "40", "--input", str(payload_path), "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["vectors"]) == 4
        for original, decoded in zip(rows, doc["vectors"]):
            decoded = np.array(decoded)
            assert abs(decoded.sum() - 1) < 1e-9
            assert np.count_nonzero(decoded) <= 2

    def test_quantize_derives_ell_from_beta_s(self, tmp_path, capsys):
        vectors = write_vectors(tmp_path, [[0.18, 0.52, 0.3]])
        code, out, _ = run(
            [
                "quantize", "--scheme", "lq", "-k", "3", "--beta-s", "0.15",
                "--input", str(vectors), "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["ell"] == 5
        assert len(doc["payloads"]) == 1

    def test_uniform_roundtrip(self, tmp_path, capsys):
        vectors = write_vectors(tmp_path, [[0.3, 0.7]])
        payloads = tmp_path / "p.csv"
        run(
            [
                "quantize", "--scheme", "uq", "-k", "2", "--bits-per-entry", "8",
                "--input", str(vectors), "--output", str(payloads),
            ],
            capsys,
        )
        code, out, _ = run(
            [
                "dequantize", "--scheme", "uq", "-k", "2", "--bits-per-entry", "8",
                "--input", str(payloads),
            ],
            capsys,
        )
        assert code == 0
        values = [float(x) for x in out.strip().splitlines()[-1].split(",")]
        assert values[0] == pytest.approx(0.3, abs=0.01)

    def test_missing_coder_parameters(self, tmp_path, capsys):
        vectors = write_vectors(tmp_path, [[0.5, 0.5]])
        code, _, err = run(
            ["quantize", "--scheme", "lq", "-k", "2", "--input", str(vectors)],
            capsys,
        )
        assert code == 2
        assert "--ell or --beta-s" in err


class TestSimulateCommand:
    ARGS = [
        "simulate", "--scheme", "lq", "-k", "8", "--beta-s", "0.1",
        "--eps-target", "0.2", "--trials", "400", "--seed", "9",
    ]

    def test_report_fields(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["bound"] == pytest.approx(0.28)
        assert doc["within_bound"] is True
        assert doc["config"]["seed"] == 9

    def test_jobs_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--jobs", "2"])
        assert exc.value.code == 2


class TestStatsCommand:
    def test_curve_and_recommendation(self, tmp_path, capsys):
        rng = np.random.default_rng(71)
        weights = 1.0 / np.arange(1, 11) ** 3
        rows = rng.dirichlet(weights * 40, size=200)
        path = write_vectors(tmp_path, rows)
        code, out, _ = run(
            ["stats", "--input", str(path), "--delta-target", "0.05"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "k_top,delta_avg"
        data_rows = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(data_rows) == 10
        deltas = [float(r.split(",")[1]) for r in data_rows]
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))
        rec_line = next(ln for ln in lines if ln.startswith("# recommended_k_top"))
        assert int(rec_line.split("=")[1]) >= 1

    def test_json_format(self, tmp_path, capsys):
        path = write_vectors(tmp_path, [[0.9, 0.05, 0.05], [0.8, 0.1, 0.1]])
        code, out, _ = run(
            ["stats", "--input", str(path), "--delta-target", "0.1", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["recommended_k_top"] == 2
        assert doc["config"]["k"] == 3


    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_row_is_usage_error(self, tmp_path, capsys, bad):
        path = tmp_path / "vectors.jsonl"
        path.write_text(f"[0.5, 0.5]\n[{bad}, 1.0]\n")
        code, out, err = run(["stats", "--input", str(path)], capsys)
        assert code == 2 and out == ""
        assert "must be finite" in err


class TestConfigFile:
    def test_flags_override_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"k": 50, "k_top": 5, "beta_s": "0.1"}))
        code, out, _ = run(
            ["budget", "--config", str(cfg_path), "--beta-s", "0.05"], capsys
        )
        assert code == 0
        row = out.strip().splitlines()[2]
        assert row.split(",")[0] == "0.05"

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"k": 50, "k_top": 5, "bogus": 1}))
        code, _, err = run(["budget", "--config", str(cfg_path)], capsys)
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("tradeoff", {"scheme": "lq", "k": 10, "gamma0_db": 5, "b_hz": 1e5, "beta_t": 0.05}),
            ("hull", {"scheme": "lq", "k": 10, "gamma0_db": 5, "b_hz": 1e5, "beta_t": "0.05,0.1"}),
            ("simulate", {"scheme": "lq", "k": 8, "beta_s": 0.1, "eps_target": 0.2, "trials": 10}),
        ],
    )
    def test_jobs_key_rejected(self, tmp_path, capsys, command, cfg):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(dict(cfg, jobs=2)))
        code, out, err = run([command, "--config", str(cfg_path)], capsys)
        assert code == 2 and out == ""
        assert "unknown config keys" in err and "jobs" in err
