import json

import pytest

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

    def test_missing_config(self, capsys):
        code, _, err = run(capsys, "simulate", "--config", "missing.json")
        assert code == 3
        assert "missing.json" in err

    def test_manifest_records_stream_version(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "sim.json"
        code, _, _ = run(capsys, "--out", str(out), "simulate", "--config", str(cfg))
        assert code == 0
        manifest = json.loads((tmp_path / "sim.json.manifest.json").read_text())
        assert manifest["stream_version"] == 2

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

    def test_units_flag(self, capsys):
        import math

        _, out_bits, _ = run(capsys, "--units", "bits", "stats", "--channel", "adder2")
        _, out_nats, _ = run(capsys, "--units", "nats", "stats", "--channel", "adder2")
        c_bits = json.loads(out_bits)["c_sum"]
        c_nats = json.loads(out_nats)["c_sum"]
        assert c_nats == pytest.approx(c_bits * math.log(2.0), abs=1e-9)
