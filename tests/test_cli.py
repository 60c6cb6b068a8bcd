import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import cfmac.delta_curve
from cfmac.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestStats:
    def test_adder2(self, capsys):
        code, out, _ = run(capsys, "stats", "--channel", "adder2")
        assert code == 0
        doc = json.loads(out)
        assert doc["c_sum"] == pytest.approx(1.5, abs=1e-6)
        assert doc["v1"] == pytest.approx(0.25, abs=1e-6)
        assert doc["v2"] == 0.0

    def test_xor(self, capsys):
        code, out, _ = run(capsys, "stats", "--channel", "xor:0.11")
        doc = json.loads(out)
        assert code == 0
        assert doc["c_sum"] == pytest.approx(0.50016, abs=1e-4)
        assert doc["v1"] == 0.0
        assert doc["v2"] == pytest.approx(0.89065, abs=1e-4)

    def test_malformed_channel_file(self, tmp_path, capsys):
        bad = tmp_path / "chan.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "stats", "--channel", str(bad))
        assert code == 3
        assert "line" in err

    def test_missing_channel_file(self, capsys):
        code, _, err = run(capsys, "stats", "--channel", "no_such_file.json")
        assert code == 3
        assert "no_such_file.json" in err

    def test_nan_kernel_is_an_input_error(self, tmp_path, capsys):
        doc = {
            "x1_size": 2,
            "x2_size": 1,
            "y_size": 2,
            "kernel": [[[0.5, 0.5]], [[float("nan"), 1.0]]],
        }
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "stats", "--channel", str(path))
        assert code == 3
        assert "(1, 0, 0) is nan" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "doc, match",
        [
            ([[0.5, 0.5], [0.5, 0.5]], "expected an object, got list"),
            ({"p": [0.5, 0.5]}, "malformed distribution spec: missing field 'p1'"),
            ({"p12": [[0.5, "x"], [0, 0]]}, "malformed distribution spec"),
        ],
    )
    def test_malformed_dist_file_is_an_input_error(self, tmp_path, capsys, doc, match):
        path = tmp_path / "dist.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "stats", "--channel", "adder2", "--dist", str(path))
        assert code == 3 and out == ""
        assert match in err and err.count("\n") == 1

    def test_channel_file_round_trip(self, tmp_path, capsys):
        doc = {
            "x1_size": 2,
            "x2_size": 2,
            "y_size": 2,
            "kernel": [[[0.89, 0.11], [0.11, 0.89]], [[0.11, 0.89], [0.89, 0.11]]],
        }
        path = tmp_path / "xor.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "stats", "--channel", str(path))
        assert code == 0
        assert json.loads(out)["v1"] == 0.0


class TestFig1:
    def test_defaults_header_and_first_value(self, capsys):
        code, out, _ = run(capsys, "fig1", "--kmax-log2", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "log2_k,quantile,lemma1_lower,lemma1_upper"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(-3.2900, abs=1e-4)
        assert first[2] == "NA"

    def test_quantiles_strictly_increasing(self, capsys):
        code, out, _ = run(capsys, "fig1", "--kmax-log2", "8")
        vals = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
        assert code == 0
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_bad_eps(self, capsys):
        code, _, err = run(capsys, "fig1", "--eps", "1.5")
        assert code == 3
        assert err

    def test_overflowing_quantile_bracket_is_an_input_error(self, capsys):
        # K = 4 at V1 = 8e307: 2 V1 ln K overflows, after K = 1 and 2 solve
        code, out, err = run(capsys, "fig1", "--v1", "8e307", "--v2", "8e307", "--kmax-log2", "2")
        assert code == 3 and out == ""
        assert "V1 = 8e+307, V2 = 8e+307, K = 4" in err and err.count("\n") == 1


class TestDelta:
    def test_unconverged_refinement_exits_4(self, capsys, monkeypatch):
        def stalled(objective, x0, *rest):
            return np.array(x0), 9, 0

        monkeypatch.setattr(cfmac.delta_curve, "_slsqp", stalled)
        code, out, err = run(capsys, "delta", "--channel", "adder2", "--a-grid", "0.1")
        assert code == 4
        assert out == ""
        assert "numeric failure" in err


    @pytest.mark.parametrize("a", ["nan", "inf"])
    def test_non_finite_budget_exits_3(self, capsys, a):
        code, out, err = run(capsys, "delta", "--channel", "adder2", "--a-grid", a)
        assert code == 3
        assert out == ""
        assert "finite" in err


class TestRates:
    def test_adder_examples(self, capsys):
        code, out, _ = run(capsys, "rates", "--channel", "adder2", "--n", "1000", "--k", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,K,eps,thm2,thm3,baseline,best,regime"
        rows = {int(line.split(",")[1]): line.split(",") for line in lines[1:]}
        assert set(rows) == {1, 2}  # baseline K=1 always included
        assert float(rows[1][6]) == pytest.approx(1.4632, abs=5e-4)
        assert float(rows[2][6]) == pytest.approx(1.4797, abs=5e-4)

    def test_xor_rows_equal_across_k(self, capsys):
        code, out, _ = run(
            capsys, "rates", "--channel", "xor:0.11", "--n", "500", "--k", "1,2,8"
        )
        assert code == 0
        bests = {line.split(",")[6] for line in out.strip().split("\n")[1:]}
        assert len(bests) == 1

    def test_zero_dispersion_rates_are_the_capacity(self, capsys):
        # xor:0 is deterministic, so V1 = V2 = 0 and S_K is the point mass at 0
        code, out, _ = run(capsys, "rates", "--channel", "xor:0", "--n", "100", "--k", "1,2,16")
        assert code == 0
        rows = {int(row[1]): row for row in (l.split(",") for l in out.strip().split("\n")[1:])}
        assert set(rows) == {1, 2, 16}
        assert rows[1][3] == "NA"  # K = 1 is the baseline alone
        assert [float(rows[k][3]) for k in (2, 16)] == [1.0, 1.0]  # thm2
        assert [float(rows[k][5]) for k in (1, 2, 16)] == [1.0, 1.0, 1.0]  # baseline

    @pytest.mark.parametrize("channel, c", [("xor:0.5", 0.0), ("xor:1", 1.0)])
    def test_other_zero_dispersion_channels_give_their_capacity(self, capsys, channel, c):
        code, out, _ = run(capsys, "rates", "--channel", channel, "--n", "100", "--k", "1,2")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [float(row[6]) for row in rows] == [c, c]  # best


class TestSimulate:
    CONFIG = {
        "channel": "adder2",
        "dist": {"p1": [0.5, 0.5], "p2": [0.5, 0.5]},
        "n": 20, "m1_count": 2, "m2_count": 2, "k": 2,
        "mode": "iid", "trials": 2000, "seed": 5,
    }

    def test_deterministic_report(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        code1, out1, _ = run(capsys, "simulate", "--config", str(cfg))
        code2, out2, _ = run(capsys, "simulate", "--config", str(cfg))
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["trials"] == 2000

    def test_validate_bound_verdict(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        code, out, _ = run(
            capsys, "simulate", "--config", str(cfg),
            "--validate-bound", "--bound-samples", "5000",
        )
        doc = json.loads(out)
        assert code == 0
        assert "fbl_bound" in doc
        assert doc["bound_dominates_ci_lower"] is True

    def test_a_type_constraint_field_is_ignored(self, tmp_path, capsys):
        # an iid config whose thresholds carry a joint-type target: the decoder
        # follows the mode, so the field changes nothing and the bound holds
        doc = {
            **self.CONFIG, "channel": "xor:0.11", "k": 4, "seed": 1,
            "thresholds": {"c12": 6.160964047443681, "c1": 3.1609640474436813,
                           "c2": 3.1609640474436813},
        }
        outs = []
        for thresholds in (
            doc["thresholds"],
            {**doc["thresholds"], "type_constraint": [[0.25, 0.25], [0.25, 0.25]]},
        ):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({**doc, "thresholds": thresholds}))
            code, out, _ = run(
                capsys, "simulate", "--config", str(cfg),
                "--validate-bound", "--bound-samples", "5000",
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        report = json.loads(outs[1])
        assert "type_constraint" not in report["config"]["thresholds"]
        assert report["p_hat"] < 0.5
        assert report["bound_dominates_ci_lower"] is True

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_bound_without_samples_is_an_input_error(self, tmp_path, capsys, samples):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        code, out, err = run(
            capsys, "simulate", "--config", str(cfg), "--validate-bound", "--bound-samples", samples,
        )
        assert code == 3 and out == ""
        assert f"mc_samples must be at least 1, got {samples}" in err

    def test_missing_config(self, capsys):
        code, _, err = run(capsys, "simulate", "--config", "missing.json")
        assert code == 3
        assert "missing.json" in err

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda doc: [doc], "expected an object, got list"),
            (lambda doc: {**doc, "n": None}, "malformed simulation config"),
            (lambda doc: {k: v for k, v in doc.items() if k != "k"}, "missing field 'k'"),
            (lambda doc: {**doc, "dist": {"p1": [0.5, 0.5]}}, "missing field 'p2'"),
            (
                lambda doc: {**doc, "k": 0, "thresholds": {"c12": 1, "c1": 1, "c2": 1}},
                "k must be at least 1, got 0",
            ),
            (lambda doc: {**doc, "n": 20.7}, "field 'n': expected an integer, got 20.7"),
            (lambda doc: {**doc, "n": True}, "field 'n': expected an integer, got True"),
            (lambda doc: {**doc, "trials": 1.5}, "field 'trials': expected an integer, got 1.5"),
            (lambda doc: {**doc, "seed": "5"}, "field 'seed': expected an integer, got '5'"),
        ],
    )
    def test_malformed_config_is_an_input_error(self, tmp_path, capsys, edit, match):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(edit(self.CONFIG)))
        code, out, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 3 and out == ""
        assert match in err and err.count("\n") == 1

    def test_config_directory_is_an_input_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--config", str(tmp_path))
        assert code == 3
        assert "config file not found" in err

    def test_manifest_records_stream_version(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "sim.json"
        code, _, _ = run(capsys, "--out", str(out), "simulate", "--config", str(cfg))
        assert code == 0
        manifest = json.loads((tmp_path / "sim.json.manifest.json").read_text())
        assert manifest["stream_version"] == 9

    def test_manifest_records_library_versions(self, tmp_path, capsys):
        # the stream's Generator methods may change between NumPy releases
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "sim.json"
        code, _, _ = run(capsys, "--out", str(out), "simulate", "--config", str(cfg))
        assert code == 0
        manifest = json.loads((tmp_path / "sim.json.manifest.json").read_text())
        assert manifest["numpy_version"] == np.__version__
        assert manifest["scipy_version"] == scipy.__version__

    @pytest.mark.parametrize("flag", [[], ["--units", "nats"]])
    def test_manifest_units_are_the_configs(self, tmp_path, capsys, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CONFIG, "units": "nats"}))
        out = tmp_path / "sim.json"
        code, _, _ = run(capsys, *flag, "--out", str(out), "simulate", "--config", str(cfg))
        assert code == 0
        assert json.loads(out.read_text())["config"]["units"] == "nats"
        manifest = json.loads((tmp_path / "sim.json.manifest.json").read_text())
        assert manifest["units"] == "nats"

    def test_units_flag_contradicting_the_config_is_an_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.CONFIG, "units": "nats"}))
        code, out, err = run(capsys, "--units", "bits", "simulate", "--config", str(cfg))
        assert code == 3 and out == ""
        assert err == "cfmac: --units bits contradicts the config's units 'nats'\n"

    def test_negative_seed_is_an_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        code, out, err = run(capsys, "--seed", "-1", "simulate", "--config", str(cfg))
        assert code == 3
        assert out == ""
        assert "seed -1 " in err and "Traceback" not in err


class TestInvcdf:
    def test_quantile(self, capsys):
        code, out, _ = run(
            capsys, "invcdf", "--v1", "1", "--v2", "1", "--k", "1", "--eps", "0.01"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["quantile"] == pytest.approx(-3.2900, abs=1e-4)

    def test_variance_sum_overflow_is_an_input_error(self, capsys):
        code, out, err = run(
            capsys, "invcdf", "--v1", "1e308", "--v2", "1e308", "--k", "4", "--eps", "0.5"
        )
        assert code == 3 and out == ""
        assert "finite sum, got 1e+308, 1e+308" in err and err.count("\n") == 1

    def test_overflowing_quantile_bracket_is_an_input_error(self, capsys):
        code, out, err = run(
            capsys, "invcdf", "--v1", "8e307", "--v2", "8e307", "--k", "4", "--eps", "0.5"
        )
        assert code == 3 and out == ""
        assert "V1 = 8e+307, V2 = 8e+307, K = 4" in err and err.count("\n") == 1
        assert "nan" not in err.lower()

    def test_eps_below_the_cdf_floor_is_an_input_error(self):
        # S_K's quadrature never reads below Phi(-12) = 1.78e-33, so a bracket
        # search for F(lo) <= eps could not end; a subprocess, so that a hang
        # fails the test rather than the suite
        src = str(Path(cfmac.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "cfmac.cli", "invcdf", "--v1", "1", "--v2", "1", "--k", "2",
             "--eps", "1e-40"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert "eps = 1e-40 lies below 1.776482112077653e-33" in proc.stderr
        assert proc.stderr.count("\n") == 1


class TestOutputsAndManifest:
    def test_csv_references_manifest_and_round_trips(self, tmp_path, capsys):
        out_path = tmp_path / "fig1.csv"
        code, _, _ = run(capsys, "--out", str(out_path), "fig1", "--kmax-log2", "3")
        assert code == 0
        text = out_path.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "# manifest: fig1.csv.manifest.json"
        manifest = json.loads((tmp_path / "fig1.csv.manifest.json").read_text())
        assert manifest["command"] == "fig1"
        assert manifest["outputs"] == [str(out_path)]
        # round trip: parse every float and re-emit with repr
        rebuilt = [lines[0], lines[1]]
        for line in lines[2:]:
            k, q, lo, hi = line.split(",")
            lo_txt = lo if lo == "NA" else repr(float(lo))
            rebuilt.append(f"{int(k)},{repr(float(q))},{lo_txt},{repr(float(hi))}")
        assert "\n".join(rebuilt) + "\n" == text

    def test_json_references_manifest_and_round_trips(self, tmp_path, capsys):
        out_path = tmp_path / "q.json"
        code, _, _ = run(
            capsys, "--out", str(out_path),
            "invcdf", "--v1", "1", "--v2", "0.5", "--k", "16", "--eps", "0.05",
        )
        assert code == 0
        text = out_path.read_text()
        doc = json.loads(text)
        assert doc["manifest"] == "q.json.manifest.json"
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text

    @pytest.mark.parametrize(
        "argv, units",
        [
            (["stats", "--channel", "adder2"], "bits"),
            (["--units", "nats", "stats", "--channel", "adder2"], "nats"),
            (["--units", "nats", "delta", "--channel", "adder2", "--a-grid", "0"], "nats"),
            (["--units", "nats", "rates", "--channel", "adder2", "--n", "100", "--k", "1"], "nats"),
            (["rates", "--channel", "adder2", "--n", "100", "--k", "1"], "bits"),
            (["fig1", "--kmax-log2", "1"], None),
            (["--units", "nats", "invcdf", "--v1", "1", "--v2", "1", "--k", "2", "--eps", "0.1"],
             None),
        ],
    )
    def test_manifest_units_are_the_outputs(self, tmp_path, capsys, argv, units):
        out_path = tmp_path / "out"
        code, _, _ = run(capsys, "--out", str(out_path), *argv)
        assert code == 0
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        assert manifest.get("units") == units

    def test_units_flag(self, capsys):
        import math

        _, out_bits, _ = run(capsys, "--units", "bits", "stats", "--channel", "adder2")
        _, out_nats, _ = run(capsys, "--units", "nats", "stats", "--channel", "adder2")
        c_bits = json.loads(out_bits)["c_sum"]
        c_nats = json.loads(out_nats)["c_sum"]
        assert c_nats == pytest.approx(c_bits * math.log(2.0), abs=1e-9)
