import json

import numpy as np
import pytest

from nonsig.behavior import behavior_to_json_dict, named
from nonsig.boundary import BoundaryCurve, FeasibleSet, ScanConfig, ScanMode, scan
from nonsig.cli import dispatch
from nonsig.runio import (
    ParseError,
    read_curve_csv,
    read_manifest,
    sha256_file,
    write_curve_csv,
)

TSIRELSON = 2 * np.sqrt(2)


@pytest.fixture(scope="module")
def small_curve():
    cfg = ScanConfig(
        set=FeasibleSet.C, mode=ScanMode.MAX, s_lo=2.0, s_hi=2.8, grid_points=8,
        restarts=6, seed=13,
    )
    return scan(cfg)


class TestCurveCsv:
    def test_roundtrip_is_lossless(self, tmp_path, small_curve):
        path = tmp_path / "curve.csv"
        write_curve_csv(path, small_curve)
        back = read_curve_csv(path)
        assert np.array_equal(back.s, small_curve.s)
        assert np.array_equal(back.i, small_curve.i)
        assert np.array_equal(back.argopt_vectors(), small_curve.argopt_vectors())
        assert [p.converged for p in back.points] == [p.converged for p in small_curve.points]

    def test_decreasing_s_rejected(self, tmp_path, small_curve):
        path = tmp_path / "bad.csv"
        write_curve_csv(path, small_curve)
        lines = path.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="strictly increasing"):
            read_curve_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            read_curve_csv(path)

    def test_malformed_row_carries_line_number(self, tmp_path, small_curve):
        path = tmp_path / "trunc.csv"
        write_curve_csv(path, small_curve)
        lines = path.read_text().splitlines()
        lines[3] = "not,a,number," + lines[3]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=":4"):
            read_curve_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError, match="header"):
            read_curve_csv(path)

    def test_sym_inference(self, tmp_path):
        cfg = ScanConfig(
            set=FeasibleSet.SYM, mode=ScanMode.MIN, s_lo=2.9, s_hi=3.2, grid_points=4,
            restarts=6, seed=14,
        )
        path = tmp_path / "sym.csv"
        write_curve_csv(path, scan(cfg))
        assert read_curve_csv(path).config.set is FeasibleSet.SYM


class TestCliCommands:
    def test_curve_endpoints(self, capsys):
        assert dispatch(["curve", "--id", "ns_max", "--grid", "5"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "s,i"
        first = rows[1].split(",")
        last = rows[-1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(0.1225562489, abs=1e-9)
        assert float(last[0]) == 4.0
        assert float(last[1]) == pytest.approx(1.0, abs=1e-12)

    def test_scan_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = dispatch([
            "scan", "--set", "c", "--mode", "max", "--lo", "2.0", "--hi", "2.6",
            "--n", "5", "--restarts", "4", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()
        manifest = read_manifest(tmp_path / "scan.csv.manifest.json")
        assert manifest.seed == 3
        assert manifest.outputs["scan.csv"] == sha256_file(out)

    def test_scan_deterministic_bytes(self, tmp_path):
        args = ["scan", "--set", "c", "--mode", "min", "--lo", "2.0", "--hi", "2.4",
                "--n", "4", "--restarts", "4", "--seed", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert dispatch(args + ["--out", str(a)]) == 0
        assert dispatch(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sample_full_columns(self, tmp_path):
        out = tmp_path / "samples.csv"
        assert dispatch(["sample", "--n", "50", "--seed", "2", "--full", "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header == ["s", "i", "a0", "a1", "b0", "b1", "c00", "c01", "c10", "c11"]
        assert len(out.read_text().splitlines()) == 51

    def test_check_bell(self, capsys, monkeypatch, tmp_path):
        doc = tmp_path / "bell.json"
        doc.write_text(json.dumps(behavior_to_json_dict(named("bell").behavior)))
        assert dispatch(["check", "--in", str(doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ns_valid"] and not out["local"] and out["npa1"] and out["qtilde"]

    def test_check_invalid_behavior_exits_one(self, capsys, tmp_path):
        doc = tmp_path / "bad.json"
        doc.write_text(json.dumps({
            "marginals_a": [1.0, 0.0], "marginals_b": [1.0, 0.0],
            "correlations": [[-1.0, 0.0], [0.0, 0.0]],
        }))
        assert dispatch(["check", "--in", str(doc)]) == 1
        assert json.loads(capsys.readouterr().out) == {"ns_valid": False}

    def test_check_non_finite_exits_one(self, capsys, tmp_path):
        doc = tmp_path / "nan.json"
        doc.write_text('{"marginals_a":[0,0],"marginals_b":[0,0],"correlations":[[NaN,0],[0,0]]}')
        assert dispatch(["check", "--in", str(doc)]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"ns_valid": False}
        assert "finite" in captured.err

    def test_check_garbage_json(self, tmp_path):
        doc = tmp_path / "junk.json"
        doc.write_text("{nope")
        assert dispatch(["check", "--in", str(doc)]) == 1

    def test_unknown_flag_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["curve", "--wat"])
        assert exc.value.code == 64

    def test_infeasible_scan_exits_one(self, tmp_path):
        rc = dispatch([
            "scan", "--set", "ns", "--mode", "max", "--lo", "0.0", "--hi", "5.0",
            "--n", "4", "--restarts", "2", "--seed", "0", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 1

    def test_scan_without_restarts_exits_one(self, tmp_path, capsys):
        for restarts in ("0", "-1"):
            rc = dispatch([
                "scan", "--set", "ns", "--mode", "max", "--lo", "1", "--hi", "2",
                "--n", "3", "--restarts", restarts, "--out", str(tmp_path / "x.csv"),
            ])
            assert rc == 1
            assert "restart" in capsys.readouterr().err

    def test_repro_explicit_zero_overrides_are_rejected(self, tmp_path, capsys):
        cases = [
            (["fig5", "--n", "0"], 1),
            (["fig6", "--points", "0"], 1),
            (["fig3", "--restarts", "0"], 1),
            (["fig4", "--points", "0"], 1),
            (["fig6", "--points", "30", "--k", "0"], 2),
            (["fig7", "--points", "30", "--k", "0"], 2),
        ]
        for argv, code in cases:
            assert dispatch(["repro", *argv, "--outdir", str(tmp_path)]) == code, argv
            assert capsys.readouterr().err.strip(), argv
        assert not (tmp_path / "fig5_quantum.csv").exists()

    def test_inflect_and_exit_codes(self, tmp_path, capsys):
        # synthetic cubic scan file: inflection at 2.8
        s = np.linspace(2.5, 3.1, 301)
        i = 0.3 + 0.1 * (s - 2.8) ** 3
        from nonsig.behavior import Correlators
        from nonsig.boundary import ScanPoint

        pts = [
            ScanPoint(s=float(sv), i=float(iv), argopt=Correlators.from_vector(np.zeros(8)), converged=True)
            for sv, iv in zip(s, i)
        ]
        cfg = ScanConfig(set=FeasibleSet.NS, mode=ScanMode.MIN, s_lo=2.5, s_hi=3.1, grid_points=301)
        path = tmp_path / "cubic.csv"
        write_curve_csv(path, BoundaryCurve(points=tuple(pts), config=cfg))
        assert dispatch(["inflect", "--in", str(path), "--k", "20"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["s_star"] == pytest.approx(2.8, abs=20 * (s[1] - s[0]) + 1e-9)
        # a straight line has no concavity change: analysis error, exit 2
        flat = tmp_path / "flat.csv"
        pts = [
            ScanPoint(s=float(sv), i=float(0.1 * sv), argopt=Correlators.from_vector(np.zeros(8)), converged=True)
            for sv in s
        ]
        write_curve_csv(flat, BoundaryCurve(points=tuple(pts), config=cfg))
        assert dispatch(["inflect", "--in", str(flat), "--k", "20"]) == 2

    def test_trajectory_cli(self, tmp_path, capsys):
        s = np.linspace(2.9, 3.4, 6)
        from nonsig.behavior import Correlators
        from nonsig.boundary import ScanPoint

        pts = []
        for sv in s:
            m = sv / 4
            vec = np.array([0, 0, 0, 0, m, m, m, -m])
            pts.append(ScanPoint(s=float(sv), i=0.4, argopt=Correlators.from_vector(vec), converged=True))
        cfg = ScanConfig(set=FeasibleSet.SYM, mode=ScanMode.MIN, s_lo=2.9, s_hi=3.4, grid_points=6)
        path = tmp_path / "sym.csv"
        write_curve_csv(path, BoundaryCurve(points=tuple(pts), config=cfg))
        assert dispatch(["trajectory", "--in", str(path)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "s,a0,a1,c00,c01,c11"
        assert len(rows) == 7


class TestRepro:
    def test_fig3_small_is_deterministic(self, tmp_path):
        base = ["repro", "fig3", "--seed", "5", "--points", "6", "--restarts", "4"]
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert dispatch(base + ["--outdir", str(d1)]) == 0
        assert dispatch(base + ["--outdir", str(d2)]) == 0
        for name in ("fig3_ns_max.csv", "fig3_ns_min.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        manifest = read_manifest(d1 / "fig3_manifest.json")
        assert set(manifest.outputs) == {"fig3_ns_max.csv", "fig3_ns_min.csv"}

    def test_fig5_small(self, tmp_path):
        out = tmp_path / "f5"
        assert dispatch(["repro", "fig5", "--seed", "1", "--n", "500", "--outdir", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {"fig5_quantum.csv", "fig5_mixtures.csv", "fig5_qc_curve.csv", "fig5_manifest.json"} <= names
        mix_rows = (out / "fig5_mixtures.csv").read_text().splitlines()
        assert mix_rows[0] == "s,i,qtilde_pass"
        flags = {row.split(",")[2] for row in mix_rows[1:]}
        assert flags == {"0", "1"}  # both classes appear in the mixture cloud
