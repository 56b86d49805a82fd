import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latdist
from latdist.cli import main, parse_value_list
from latdist.ingest import top_mass_curve

DATA_DIR = Path(__file__).parent / "data"


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def exit_code(argv):
    """main's exit code, also when argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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

    def test_scheme_flag_rejected(self, capsys):
        # budget prices all three coders; the flag used to be accepted and ignored.
        argv = ["budget", "--scheme", "uq", "-k", "50", "--k-top", "5", "--beta-s", "0.05"]
        assert exit_code(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "k_top, delta", [("3", "nan"), ("3", "2"), ("3", "inf"), ("30", "0.5")],
        ids=["delta-nan", "delta-two", "delta-inf", "k-top-above-k"],
    )
    def test_sparse_coder_it_cannot_build_is_usage_error(self, capsys, k_top, delta):
        # These used to exit 0 with an empty J_slq_bits column, because the
        # sparse coder was checked only at a beta_s above delta.
        code, out, _ = run(
            ["budget", "-k", "10", "--k-top", k_top, "--beta-s", "0.1,0.5", "--delta", delta],
            capsys,
        )
        assert code == 2 and out == ""

    def test_sparse_column_empty_at_or_below_delta(self, capsys):
        code, out, _ = run(
            ["budget", "-k", "10", "--k-top", "3", "--beta-s", "0.1,0.5", "--delta", "0.9"],
            capsys,
        )
        assert code == 0
        assert [row.split(",")[3] for row in out.strip().splitlines()[2:]] == ["", ""]

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

    @pytest.mark.parametrize(
        "channel, message",
        [
            (["--gamma0-db", "-400"], "capacity 0.0 is not positive"),
            (["--channel", "fading-csi", "--coherence", "20", "--gamma0-db", "-3225"],
             "capacity 0.0 is not positive"),
            (["--channel", "fading-nocsi", "--coherence", "20", "--gamma0-db", "-7"],
             "the high-SNR model does not apply"),
        ],
        ids=["awgn", "fading-csi", "fading-nocsi"],
    )
    def test_non_positive_rate_is_infeasible(self, capsys, channel, message):
        # AWGN and receiver-CSI capacities that rounded to 0 used to be blamed
        # on the high-SNR model, which only the no-CSI family has.
        code, out, err = run(
            ["tradeoff", "--scheme", "lq", "-k", "10", *channel, "--b-hz", "10000",
             "--beta-t", "0.1"],
            capsys,
        )
        assert code == 3 and out == ""
        assert err.startswith("infeasible: ") and message in err
        assert ("high-SNR" in err) == ("fading-nocsi" in channel)

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

    @pytest.mark.parametrize(
        "flag, value",
        [("--grid-points", "0"), ("--eps-cap", "nan"), ("--eps-cap", "0"), ("--eps-cap", "-1")],
    )
    def test_unusable_sweep_setting_is_usage_error(self, capsys, flag, value):
        # These used to mark every grid point infeasible (exit 3).
        code, out, err = run(
            [
                "tradeoff", "--scheme", "lq", "-k", "10", "--gamma0-db", "5",
                "--b-hz", "1e5", "--beta-t", "0.1", flag, value,
            ],
            capsys,
        )
        assert code == 2 and out == ""
        assert "error:" in err

    @pytest.mark.parametrize("beta_t", ["inf", "nan", "1.5", "0", "-0.1"])
    def test_budget_outside_unit_interval_is_usage_error(self, beta_t):
        # A fresh process with warnings as errors. tradeoff used to lay its
        # grid below the budget first: inf raised numpy's RuntimeWarning, and
        # inf, NaN and 1.5 were refused for a beta_s grid the user never gave.
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(latdist.__file__).resolve().parents[1]),
            "PYTHONWARNINGS": "error",
        }
        done = subprocess.run(
            [sys.executable, "-m", "latdist.cli", "tradeoff", "--scheme", "lq", "-k", "10",
             "--gamma0-db", "5", "--b-hz", "1e5", "--beta-t", beta_t],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == f"error: beta_t must lie in (0, 1], got {float(beta_t)}\n"

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

    @pytest.mark.parametrize(
        "tail",
        [
            ["--beta-t", "0.1,nan"],
            ["--beta-t", "inf"],
            ["--beta-t", "0.1,1.2"],
            ["--beta-t", "0.1", "--grid-points", "0"],
            ["--beta-t", "0.1", "--eps-cap", "nan"],
        ],
        ids=["nan-beta-t", "inf-beta-t", "beta-t-above-one", "empty-grid", "nan-eps-cap"],
    )
    def test_unusable_sweep_setting_is_usage_error(self, capsys, tail):
        # A NaN beta_t used to print the row nan,nan,nan,nan,0,inf,false,false
        # and a beta_t above 1 an infeasible row, both with exit 0; the other
        # settings used to exit 3 as infeasible.
        code, out, err = run(
            ["hull", "--scheme", "lq", "-k", "10", "--gamma0-db", "5", "--b-hz", "1e5", *tail],
            capsys,
        )
        assert code == 2 and out == ""
        assert "error:" in err

    def test_infeasible_exit_code(self, capsys):
        # Every error target on 40 points below these budgets exceeds the cap.
        code, _, err = run(
            [
                "hull", "--scheme", "lq", "-k", "10", "--gamma0-db", "5", "--b-hz", "1e5",
                "--beta-t", "0.3,0.5", "--grid-points", "40", "--eps-cap", "0.001",
            ],
            capsys,
        )
        assert code == 3
        assert "infeasible" in err

    @pytest.mark.parametrize("command", ["tradeoff", "hull"])
    def test_budget_at_tail_floor_is_usage_error(self, capsys, command):
        # hull used to report this beta_t as infeasible (exit 3).
        code, out, err = run(
            [
                command, "--scheme", "slq", "-k", "20", "--k-top", "5", "--delta", "0.5",
                "--gamma0-db", "5", "--b-hz", "1e5", "--beta-t", "0.1",
            ],
            capsys,
        )
        assert code == 2 and out == ""
        assert "no admissible source distortion" in err

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

    def test_uniform_nonzero_padding_is_usage_error(self, tmp_path, capsys):
        # ffff used to decode exactly as ff80: the 7 padding bits were dropped.
        # A payload the coder refuses used to be reported without its line.
        payloads = tmp_path / "p.csv"
        for text, line, message in [
            ("ffff\n", 1, "the 7 padding bits must be zero"),
            ("ff80\n# note\nff8000\n", 3, "expected 2 payload bytes, got 3"),
        ]:
            payloads.write_text(text)
            code, out, err = run(
                ["dequantize", "--scheme", "uq", "-k", "3", "--bits-per-entry", "3",
                 "--input", str(payloads)],
                capsys,
            )
            assert code == 2 and out == ""
            assert err == f"error: {payloads}:{line}: {message}\n"

    def test_dequantize_skips_indented_comments(self, tmp_path, capsys):
        # "  # note" was refused as an invalid payload line, while the
        # dataset reader skipped it.
        pinned = (DATA_DIR / "quantize_lq.csv").read_text()
        payloads = tmp_path / "payloads.csv"
        payloads.write_text("  # note\n" + pinned + "\n\t# end\n")
        code, out, err = run(WIRE_RUNS["dequantize_lq.csv"][:-1] + [str(payloads)], capsys)
        assert code == 0 and err == ""
        assert out == (DATA_DIR / "dequantize_lq.csv").read_text()

    def test_invalid_payload_names_its_line(self, tmp_path, capsys):
        payloads = tmp_path / "payloads.csv"
        payloads.write_text("payload_hex\n\n  # note\nzz\n")
        code, out, err = run(
            ["dequantize", "--scheme", "lq", "-k", "3", "--ell", "5", "--input", str(payloads)],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: {payloads}:4: invalid payload line 'zz': ")

    def test_missing_coder_parameters(self, tmp_path, capsys):
        vectors = write_vectors(tmp_path, [[0.5, 0.5]])
        code, _, err = run(
            ["quantize", "--scheme", "lq", "-k", "2", "--input", str(vectors)],
            capsys,
        )
        assert code == 2
        assert "--ell or --beta-s" in err


    @pytest.mark.parametrize(
        "coder, message",
        [
            (["--scheme", "lq", "-k", "100", "--beta-s", "1e-17"], "got 2500000000000000000"),
            (["--scheme", "lq", "-k", "100", "--ell", str(2**53 + 1)], "<= 2**53"),
            (["--scheme", "slq", "-k", "100", "--k-top", "5", "--ell", str(2**63)], "<= 2**53"),
            (["--scheme", "uq", "-k", "100", "--beta-s", "1e-10"], "<= 62, got 80"),
            (["--scheme", "uq", "-k", "100", "--bits-per-entry", "64"], "<= 62, got 64"),
        ],
        ids=["lq-budget-ell", "lq-ell-past-float", "slq-ell-2-63", "uq-budget-width",
             "uq-width-64"],
    )
    def test_coder_past_its_limit_is_usage_error(self, capsys, coder, message):
        # The first wrote payloads that decode to other points (exit 0); the
        # others ended in an OverflowError traceback (exit 1).
        code, out, err = run(
            ["quantize", *coder, "--input", str(DATA_DIR / "vectors_k100.jsonl")], capsys
        )
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["quantize", "--scheme", "lq", "-k", "3", "--beta-s", "5", "--ell", "5",
              "--input", "vectors.jsonl"], "source distortion must be in (0, 1), got 5.0"),
            (["dequantize", "--scheme", "uq", "-k", "3", "--beta-s", "nan",
              "--bits-per-entry", "9", "--input", "quantize_uq.csv"],
             "source distortion must be in (0, 1), got nan"),
            (["quantize", "--scheme", "uq", "-k", "3", "--beta-s", "0", "--bits-per-entry", "9",
              "--input", "vectors.jsonl"], "source distortion must be in (0, 1), got 0.0"),
            (["dequantize", "--scheme", "slq", "-k", "3", "--k-top", "2", "--delta", "0.15",
              "--beta-s", "0.15", "--ell", "5", "--input", "quantize_slq.csv"],
             "source distortion 0.15 must exceed tail mass 0.15"),
        ],
        ids=["lq-beta-5", "uq-beta-nan", "uq-beta-0", "slq-beta-at-delta"],
    )
    def test_refused_beta_s_with_given_setting_is_usage_error(
        self, monkeypatch, capsys, argv, message
    ):
        # With --ell or --bits-per-entry given, beta_s went unchecked: each
        # exited 0 and echoed it, nan as a NaN that JSON does not allow.
        monkeypatch.chdir(DATA_DIR)
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert message in err

    def test_overflowing_entries_give_one_error_line(self, tmp_path):
        # A fresh process, so that numpy's warnings reach stderr. The refusal
        # used to follow an overflow RuntimeWarning, and end in a traceback
        # when warnings were errors.
        vectors = write_vectors(tmp_path, [[1e308] * 3])
        env = {**os.environ, "PYTHONPATH": str(Path(latdist.__file__).resolve().parents[1])}
        argv = ["quantize", "--scheme", "lq", "-k", "3", "--beta-s", "0.15", "--input", str(vectors)]
        for flags in ([], ["-W", "error::RuntimeWarning"]):
            done = subprocess.run(
                [sys.executable, *flags, "-m", "latdist.cli", *argv],
                env=env, capture_output=True, text=True,
            )
            assert done.returncode == 2 and done.stdout == ""
            assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1

    def test_dequantize_width_past_its_limit_is_usage_error(self, tmp_path, capsys):
        # Three 63-bit fields fill 24 bytes.
        payloads = tmp_path / "payloads.csv"
        payloads.write_text("payload_hex\n" + "00" * 24 + "\n")
        code, out, err = run(
            ["dequantize", "--scheme", "uq", "-k", "3", "--bits-per-entry", "63",
             "--input", str(payloads)],
            capsys,
        )
        assert code == 2 and out == ""
        assert "<= 62, got 63" in err

    @pytest.mark.parametrize(
        "coder, payload, message",
        [
            # C(2**53 + 3, 2) needs 105 bits: 14 zero bytes are its index 0.
            (["--scheme", "lq", "-k", "3", "--ell", str(2**53 + 1)], "00" * 14, "<= 2**53"),
            (["--scheme", "uq", "-k", "3", "--bits-per-entry", "99"], "", "<= 62, got 99"),
            (["--scheme", "lq", "-k", "3", "--ell", "0"], "", "ell must be >= 1"),
        ],
        ids=["lq-ell-past-float", "uq-width-99-no-payloads", "lq-ell-0-no-payloads"],
    )
    def test_dequantize_coder_past_its_limit_is_usage_error(
        self, tmp_path, capsys, coder, payload, message
    ):
        # The coder is refused before any payload is read, as quantize refuses
        # it; the first printed a vector, the others exited 0.
        payloads = tmp_path / "payloads.csv"
        payloads.write_text("payload_hex\n" + (payload + "\n" if payload else ""))
        code, out, err = run(["dequantize", *coder, "--input", str(payloads)], capsys)
        assert code == 2 and out == ""
        assert message in err


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

    def test_negative_seed_is_usage_error(self, capsys):
        # numpy's seeding takes nonnegative seeds only; the run is refused
        # before its first trial.
        code, out, err = run(self.ARGS[:-1] + ["-1"], capsys)
        assert code == 2 and out == ""
        assert "seed must be >= 0, got -1" in err

    def test_jobs_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--jobs", "2"])
        assert exc.value.code == 2

    def test_format_flag_rejected(self, capsys):
        # The report is always JSON; --format csv used to be accepted and ignored.
        assert exit_code(self.ARGS + ["--format", "csv"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "eps, width", [("0", "0"), ("0.5", "0"), ("0", "-3")],
        ids=["zero-width-eps0", "zero-width-eps-half", "negative-width"],
    )
    def test_width_the_coder_refuses_is_usage_error(self, capsys, eps, width):
        # The first ran to a report for a 0-bit coder (exit 0), the second
        # failed in the middle of the run, and the third on a negative shift.
        code, out, err = run(
            ["simulate", "--scheme", "uq", "-k", "4", "--beta-s", "0.1", "--eps-target", eps,
             "--bits-per-entry", width, "--trials", "50"],
            capsys,
        )
        assert code == 2 and out == ""
        assert "bits_per_entry must be >= 1" in err

    def test_refused_delta_with_given_ell_is_usage_error(self, capsys):
        # With --ell given, delta 1.5 used to run to a report (exit 0) that echoed it.
        code, out, err = run(
            ["simulate", "--scheme", "slq", "-k", "10", "--k-top", "3", "--delta", "1.5",
             "--source-tail-mass", "0.1", "--ell", "5", "--beta-s", "0.1",
             "--eps-target", "0.1", "--trials", "10"],
            capsys,
        )
        assert code == 2 and out == ""
        assert "tail mass must be in [0, 1)" in err

    @pytest.mark.parametrize(
        "coder, message",
        [
            (["--scheme", "lq", "-k", "10", "--beta-s", "3", "--ell", "5"],
             "source distortion must be in (0, 1)"),
            (["--scheme", "slq", "-k", "10", "--k-top", "3", "--delta", "0.2",
              "--beta-s", "0.1", "--ell", "5"],
             "source distortion 0.1 must exceed tail mass 0.2"),
        ],
        ids=["lq-beta-above-one", "slq-beta-below-delta"],
    )
    def test_refused_beta_s_with_given_ell_is_usage_error(self, capsys, coder, message):
        # With --ell given, beta_s was never checked: the first ran to a report
        # with bound 2.8 (exit 0).
        code, out, err = run(
            ["simulate", *coder, "--eps-target", "0.1", "--trials", "20"], capsys
        )
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize(
        "coder, message",
        [
            (["--scheme", "lq", "-k", "3", "--ell", str(2**63)], "ell must be >= 1 and <= 2**53"),
            (["--scheme", "lq", "-k", "3", "--ell", str(2**53 + 1)], "<= 2**53"),
            (["--scheme", "uq", "-k", "3", "--bits-per-entry", "64", "--error-model",
              "adversarial"], "<= 62, got 64"),
            (["--scheme", "slq", "-k", "1", "--k-top", "1"], "need k >= 2, got 1"),
        ],
        ids=["lq-ell-2-63", "lq-ell-past-float", "uq-width-64", "slq-one-class"],
    )
    def test_coder_past_its_limit_is_usage_error(self, capsys, coder, message):
        # The first and third ended in an OverflowError traceback (exit 1),
        # the second ran with counts rounded past float precision (exit 0),
        # and the last failed at its first trial with another message.
        code, out, err = run(
            ["simulate", *coder, "--beta-s", "0.1", "--eps-target", "0.1", "--trials", "20"],
            capsys,
        )
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("tail", ["nan", "2", "-0.1"])
    def test_unusable_source_tail_mass_is_usage_error(self, capsys, tail):
        # nan used to end in an OverflowError traceback (exit 1), and 2 passed
        # (exit 0) whenever no trial happened to draw a tail of 1 or more, as
        # with this seed.
        code, out, err = run(
            [
                "simulate", "--scheme", "slq", "-k", "10", "--k-top", "3", "--beta-s", "0.1",
                "--eps-target", "0.2", "--trials", "1", "--seed", "3",
                "--source-tail-mass", tail,
            ],
            capsys,
        )
        assert code == 2 and out == ""
        assert "source tail mass must be in [0, 1)" in err


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


    @pytest.mark.parametrize(
        "flag, value", [("--k", "2"), ("--delta", "0.5")], ids=["k", "delta"],
    )
    def test_partial_flag_is_rejected(self, tmp_path, capsys, flag, value):
        # Prefix matching used to run --k as --k-top and --delta as --delta-target.
        path = write_vectors(tmp_path, [[0.5, 0.3, 0.2]])
        assert exit_code(["stats", "--input", str(path), flag, value]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "bad", ["NaN", "Infinity", pytest.param("1" + "0" * 400, id="10**400")]
    )
    def test_non_finite_row_is_usage_error(self, tmp_path, capsys, bad):
        path = tmp_path / "vectors.jsonl"
        path.write_text(f"[0.5, 0.5]\n[{bad}, 1.0]\n")
        code, out, err = run(["stats", "--input", str(path)], capsys)
        assert code == 2 and out == ""
        assert "must be finite" in err

    def test_non_numeric_entry_is_usage_error(self, tmp_path, capsys):
        # A bool used to load as 1 and 0, and the stats ran with exit 0.
        path = tmp_path / "vectors.jsonl"
        path.write_text("[0.5, 0.5]\n[true, false]\n")
        code, out, err = run(["stats", "--input", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {path}:2: expected numbers, got true\n"

    @pytest.mark.parametrize("k_top", ["0", "101"])
    def test_k_top_out_of_range_is_usage_error(self, capsys, k_top):
        path = DATA_DIR / "vectors_k100.jsonl"
        code, out, err = run(["stats", "--input", str(path), "--k-top", k_top], capsys)
        assert code == 2 and out == ""
        assert err == "error: k_top values must lie in [1, 100]\n"

    @pytest.mark.parametrize("k_top", [[], ["--k-top", "5"]], ids=["curve", "k-top"])
    def test_one_curve_per_run(self, monkeypatch, capsys, k_top):
        # The curve, the recommendation and the tail check each used to sort
        # the dataset, in three calls that built two curves.
        built = []

        def spy(ds):
            built.append(ds)
            return top_mass_curve(ds)

        monkeypatch.setattr("latdist.cli.top_mass_curve", spy)
        monkeypatch.setattr("latdist.ingest.top_mass_curve", spy)
        code, out, err = run(["stats", "--input", str(DATA_DIR / "vectors_k100.jsonl"), *k_top],
                             capsys)
        assert code == 0 and err == ""
        assert len(built) == 1


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

    TRADEOFF = {"scheme": "lq", "k": 10, "gamma0_db": 5, "b_hz": 1e5, "beta_t": 0.1,
                "grid_points": 20}

    @pytest.mark.parametrize(
        "entry",
        [{"refine": "false"}, {"k": 10.9}, {"grid_points": 20.5},
         {"channel": "fading-csi", "coherence": 20.7}],
        ids=["refine-string", "fractional-k", "fractional-grid-points", "fractional-coherence"],
    )
    def test_value_the_flag_refuses_is_usage_error(self, tmp_path, capsys, entry):
        # These used to skip the flag parsers: "false" ran the refine, since
        # bool("false") is True, and the fractions ran truncated while the
        # echo showed them unparsed.
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({**self.TRADEOFF, **entry}))
        assert exit_code(["tradeoff", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().out == ""

    def test_refused_value_names_the_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({**self.TRADEOFF, "k": 10.9}))
        assert exit_code(["tradeoff", "--config", str(cfg_path), "--grid-points", "30"]) == 2
        err = capsys.readouterr().err
        assert "invalid int value: '10.9'" in err
        assert str(cfg_path) in err

    @pytest.mark.parametrize("content", ["5", "[]", '"x"'], ids=["number", "list", "string"])
    def test_file_must_hold_an_object(self, tmp_path, capsys, content):
        # 5 used to raise a TypeError, [] was ignored, and "x" was read as a key.
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(content)
        code, out, err = run(
            ["budget", "-k", "50", "--k-top", "5", "--beta-s", "0.05", "--config", str(cfg_path)],
            capsys,
        )
        assert code == 2 and out == ""
        assert "config file must hold a JSON object" in err


# The README example of each subcommand, run in a directory holding
# tests/data/vectors.jsonl and these payloads.
PAYLOADS = "payload_hex\n05\n0d\n02\n"
SLQ_PLAN = ["--scheme", "slq", "-k", "100", "--k-top", "5", "--gamma0-db", "5", "--b-hz", "320000"]
README_RUNS = {
    "budget": ["budget", "-k", "50", "--k-top", "5", "--beta-s", "log:0.001:0.5:50"],
    "tradeoff": ["tradeoff", *SLQ_PLAN, "--beta-t", "0.05"],
    "hull": ["hull", *SLQ_PLAN, "--beta-t", "lin:0.02:0.5:25"],
    "quantize": ["quantize", "--scheme", "lq", "-k", "3", "--beta-s", "0.15",
                 "--input", "vectors.jsonl"],
    "dequantize": ["dequantize", "--scheme", "lq", "-k", "3", "--ell", "5",
                   "--input", "payloads.csv"],
    "simulate": ["simulate", "--scheme", "lq", "-k", "8", "--beta-s", "0.1",
                 "--eps-target", "0.2", "--trials", "100000", "--seed", "42"],
    "stats": ["stats", "--input", "vectors.jsonl", "--delta-target", "0.01"],
}

# sha256 of each run's stdout; simulate writes JSON only.
PINNED_SHA256 = {
    "budget-csv": "8469ff4477558f23fe8d79bb6c919a7ecfe50a004223c1171f05698ad33b1f3f",
    "budget-json": "a26aab00a7d9e9daa99330c2f0104deea1f18e461660557557e6947017375990",
    "tradeoff-csv": "0485565ef7fac32e228fb6021258714b4ca8f582a51c2f6a550b4f04ed906428",
    "tradeoff-json": "f91f29c00cab08e5494beb55597a5a623c4626effa86d9ed1292ece098430212",
    "hull-csv": "eb6994be058543814ff11f75bed297fef174d351bdb8e14b5cd456cd8fa10279",
    "hull-json": "1e61b75ad12715fc7a3083909e417da031e8e62db50a15237b3ac1d054841981",
    "quantize-csv": "88708c0d575dfd8e68e4eca6a7be5151828cd1f16d731e9a5e43a6b82136b676",
    "quantize-json": "5895aeb7dda594ab63593cb20e15d546b7b9bafd0f08dade634e306428f4f4c5",
    "dequantize-csv": "c4386483ac08537bbdbe8ae3c2d604b97b0c7c737b59fbdde062c0e468daf044",
    "dequantize-json": "0ad02e0abf8cb0323cce95e0e3c9eb9a8c770cb5dfd53190c3fb19fb2833f6fb",
    "simulate": "b8bc4b42de50fb08b21d5e96fc5a12808aa0e2dc235f565b48d7b6ee65ee2947",
    "stats-csv": "22df94431aff88142e996f0c81a0f0c686bb45a10b7af19df27c7efd4576b08f",
    "stats-json": "a58500f536d9d3afd806498ff72ec8aa7926ac3fbc87c3d90b4030cc36e8df65",
}


@pytest.fixture
def readme_dir(tmp_path, monkeypatch):
    (tmp_path / "vectors.jsonl").write_text((DATA_DIR / "vectors.jsonl").read_text())
    (tmp_path / "payloads.csv").write_text(PAYLOADS)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("case", sorted(PINNED_SHA256))
def test_reference_outputs_are_pinned(readme_dir, capsys, case):
    command, _, fmt = case.partition("-")
    argv = README_RUNS[command] + (["--format", fmt] if fmt else [])
    code, out, err = run(argv, capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SHA256[case]


# Wire bytes of the README's quantize commands and what they dequantize to,
# two fading hulls, a refined AWGN hull, a k=100 dataset's stats and simulate
# reports, pinned as files in tests/data; CI compares the installed entry
# point with them.
# The LQ k=100 files hold 383-bit indices, far wider than a machine word.
SLQ_CODER = ["--scheme", "slq", "-k", "3", "--k-top", "2", "--delta", "0.01", "--beta-s", "0.15"]
SLQ_K100 = ["--scheme", "slq", "-k", "100", "--k-top", "5", "--delta", "0.01", "--beta-s", "0.05"]
WIRE_RUNS = {
    "quantize_lq.csv": ["quantize", "--scheme", "lq", "-k", "3", "--beta-s", "0.15",
                        "--input", "vectors.jsonl"],
    "dequantize_lq.csv": ["dequantize", "--scheme", "lq", "-k", "3", "--ell", "5",
                          "--input", "quantize_lq.csv"],
    "quantize_slq.csv": ["quantize", *SLQ_CODER, "--input", "vectors.jsonl"],
    "dequantize_slq.csv": ["dequantize", *SLQ_CODER, "--input", "quantize_slq.csv"],
    "quantize_lq_k100.csv": ["quantize", "--scheme", "lq", "-k", "100", "--beta-s", "0.05",
                             "--input", "vectors_k100.jsonl"],
    "dequantize_lq_k100.csv": ["dequantize", "--scheme", "lq", "-k", "100", "--ell", "500",
                               "--input", "quantize_lq_k100.csv"],
    "quantize_slq_k100.csv": ["quantize", *SLQ_K100, "--input", "vectors_k100.jsonl"],
    "dequantize_slq_k100.csv": ["dequantize", *SLQ_K100, "--input", "quantize_slq_k100.csv"],
    "quantize_uq.csv": ["quantize", "--scheme", "uq", "-k", "3", "--beta-s", "0.15",
                        "--input", "vectors.jsonl"],
    "dequantize_uq.csv": ["dequantize", "--scheme", "uq", "-k", "3", "--bits-per-entry", "9",
                          "--input", "quantize_uq.csv"],
    "quantize_uq_k100.csv": ["quantize", "--scheme", "uq", "-k", "100", "--beta-s", "0.05",
                             "--input", "vectors_k100.jsonl"],
    "dequantize_uq_k100.csv": ["dequantize", "--scheme", "uq", "-k", "100", "--beta-s", "0.05",
                               "--input", "quantize_uq_k100.csv"],
    # The top-mass curve and k_top recommendation of a k=100 dataset.
    "stats_k100.csv": ["stats", "--input", "vectors_k100.jsonl"],
    "stats_k100.json": ["stats", "--input", "vectors_k100.jsonl", "--format", "json"],
    # One row of that curve, picked by --k-top, and the same summary.
    "stats_k100_ktop5.csv": ["stats", "--input", "vectors_k100.jsonl", "--k-top", "5"],
    "stats_k100_ktop5.json": ["stats", "--input", "vectors_k100.jsonl", "--k-top", "5",
                              "--format", "json"],
    # The fading families' normal approximations, 25 feasible budgets each.
    "hull_fading_csi.csv": ["hull", "--scheme", "lq", "-k", "100", "--channel", "fading-csi",
                            "--coherence", "20", "--gamma0-db", "10", "--b-hz", "320000",
                            "--beta-t", "lin:0.02:0.5:25"],
    "hull_fading_nocsi.csv": ["hull", "--scheme", "slq", "-k", "1000", "--k-top", "10",
                              "--channel", "fading-nocsi", "--coherence", "20",
                              "--gamma0-db", "25", "--b-hz", "320000",
                              "--beta-t", "lin:0.02:0.5:25"],
    # The refined AWGN blocklengths of 25 budgets, 1000 grid points each.
    "hull_refined.csv": ["hull", "--scheme", "lq", "-k", "100", "--gamma0-db", "5",
                         "--b-hz", "320000", "--beta-t", "lin:0.02:0.5:25", "--refine"],
    # A few bits at an SNR of 1/100: 119 of 200 refine seeds are NaN and start
    # from 1, and the walk takes 20 passes.
    "tradeoff_lq_k3_refined.csv": ["tradeoff", "--scheme", "lq", "-k", "3", "--gamma0-db", "0",
                                   "--b-hz", "1000000", "--beta-t", "0.4", "--grid-points", "200",
                                   "--refine"],
    # The README simulate run at 20,000 trials: the per-(seed, trial) streams.
    "simulate_lq_k8.json": ["simulate", "--scheme", "lq", "-k", "8", "--beta-s", "0.1",
                            "--eps-target", "0.2", "--trials", "20000", "--seed", "42"],
    # Garbled SLQ payloads whose subset indices, below C(1000, 10), are past 2**63.
    "simulate_slq_k1000.json": ["simulate", "--scheme", "slq", "-k", "1000", "--k-top", "10",
                                "--delta", "0.001", "--beta-s", "0.05", "--eps-target", "0.25",
                                "--trials", "2000", "--seed", "3"],
    # Sparse sources with no tail, each failure decoded as the farthest vertex.
    "simulate_slq_adversarial.json": ["simulate", "--scheme", "slq", "-k", "100", "--k-top", "5",
                                      "--delta", "0", "--error-model", "adversarial",
                                      "--beta-s", "0.05", "--eps-target", "0.25",
                                      "--trials", "2000", "--seed", "5"],
}


# Each run once to stdout, and once to a file that --output names.
@pytest.mark.parametrize(
    "name, to_file",
    [
        pytest.param(name, to_file, id=name + ("-output" if to_file else ""))
        for to_file in (False, True)
        for name in sorted(WIRE_RUNS)
    ],
)
def test_wire_files_are_pinned(monkeypatch, tmp_path, capsys, name, to_file):
    monkeypatch.chdir(DATA_DIR)
    target = tmp_path / name
    code, out, err = run(WIRE_RUNS[name] + (["--output", str(target)] if to_file else []), capsys)
    assert code == 0 and err == ""
    pinned = (DATA_DIR / name).read_bytes()
    if to_file:
        assert out == "" and target.read_bytes() == pinned
    else:
        assert out.encode() == pinned


# The same options as flags and as a config file. Between them they use
# every conversion: a bare switch for true, nothing for false and null, a
# comma list for a list, and the value's text for the rest.
PARITY = [
    ("budget", ["-k", "50", "--k-top", "5", "--delta", "0.001", "--beta-s", "0.05,0.1"],
     {"k": 50, "k_top": 5, "delta": 0.001, "beta_s": [0.05, 0.1]}),
    ("tradeoff", ["--scheme", "lq", "-k", "10", "--gamma0-db", "5", "--b-hz", "100000",
                  "--beta-t", "0.1", "--grid-points", "50", "--refine"],
     {"scheme": "lq", "k": 10, "gamma0_db": 5, "b_hz": 100000, "beta_t": 0.1,
      "grid_points": 50, "refine": True}),
    ("hull", ["--scheme", "slq", "-k", "20", "--k-top", "4", "--channel", "fading-csi",
              "--coherence", "20", "--gamma0-db", "10", "--b-hz", "320000",
              "--beta-t", "0.05,0.1", "--grid-points", "40", "--grid-mode", "log",
              "--format", "json"],
     {"scheme": "slq", "k": 20, "k_top": 4, "channel": "fading-csi", "coherence": 20,
      "gamma0_db": 10, "b_hz": 320000, "beta_t": [0.05, 0.1], "grid_points": 40,
      "grid_mode": "log", "format": "json", "refine": False}),
    ("quantize", ["--scheme", "lq", "-k", "3", "--beta-s", "0.15", "--input", "vectors.jsonl"],
     {"scheme": "lq", "k": 3, "k_top": None, "beta_s": 0.15, "input": "vectors.jsonl"}),
    ("dequantize", ["--scheme", "lq", "-k", "3", "--ell", "5", "--input", "payloads.csv",
                    "--format", "json"],
     {"scheme": "lq", "k": 3, "ell": 5, "input": "payloads.csv", "format": "json"}),
    ("simulate", ["--scheme", "slq", "-k", "10", "--k-top", "3", "--beta-s", "0.1",
                  "--eps-target", "0.2", "--trials", "50", "--seed", "3",
                  "--error-model", "adversarial", "--source-tail-mass", "0"],
     {"scheme": "slq", "k": 10, "k_top": 3, "beta_s": 0.1, "eps_target": 0.2, "trials": 50,
      "seed": 3, "error_model": "adversarial", "source_tail_mass": 0}),
    ("stats", ["--input", "vectors.jsonl", "--delta-target", "0.05", "--k-top", "2"],
     {"input": "vectors.jsonl", "delta_target": 0.05, "k_top": 2}),
]


@pytest.mark.parametrize("command, flags, cfg", PARITY, ids=[c[0] for c in PARITY])
def test_config_file_matches_flags(readme_dir, capsys, command, flags, cfg):
    # A file value used to echo unparsed: "gamma0_db": 5 as 5, not 5.0.
    Path("run.json").write_text(json.dumps(cfg))
    by_flags = run([command, *flags], capsys)
    by_file = run([command, "--config", "run.json"], capsys)
    assert by_flags[0] == 0 and by_flags == by_file


@pytest.mark.parametrize("command", sorted(README_RUNS))
def test_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: latdist {command}")


SCIPY_PROBE = """
import sys
import latdist.cli
if sys.argv[1:]:
    assert latdist.cli.main(sys.argv[1:]) == 0
print("scipy" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["quantize", "--scheme", "lq", "-k", "3", "--beta-s", "0.15"],
        ["tradeoff", "--scheme", "lq", "-k", "3", "--gamma0-db", "5", "--b-hz", "1e5",
         "--beta-t", "0.1", "--grid-points", "5"],
        ["hull", "--scheme", "lq", "-k", "100", "--gamma0-db", "5", "--b-hz", "320000",
         "--beta-t", "lin:0.02:0.5:5", "--grid-points", "50", "--refine"],
        ["hull", "--scheme", "lq", "-k", "100", "--channel", "fading-csi", "--coherence", "20",
         "--gamma0-db", "10", "--b-hz", "320000", "--beta-t", "lin:0.02:0.5:5",
         "--grid-points", "50"],
    ],
    ids=["import", "quantize", "tradeoff", "hull-refine", "hull-fading-csi"],
)
def test_cli_never_loads_scipy(tmp_path, argv):
    # A fresh process: Q and its inverse come from the standard library.
    if argv[:1] == ["quantize"]:
        argv = argv + ["--input", str(write_vectors(tmp_path, [[0.18, 0.52, 0.3]]))]
    env = {**os.environ, "PYTHONPATH": str(Path(latdist.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines()[-1] == "False"
