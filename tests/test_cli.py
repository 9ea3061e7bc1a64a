import contextlib
import csv
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from nonsig.behavior import _correlators_from_tables, _tables_from_correlators, behavior_to_json_dict, named
from nonsig.boundary import BoundaryCurve, FeasibleSet, ScanConfig, ScanMode, scan
from nonsig.cli import _cloud_rows, _write_cloud, dispatch
from nonsig.functionals import _mi_correlators, _mi_tables, _s_max_ab
from nonsig.quantum import _SAMPLE_CHUNK, _pauli_correlators, _random_bloch, _random_states, sample_chunks
from nonsig.runio import (
    SCAN_HEADER,
    ParseError,
    read_curve_csv,
    read_manifest,
    sha256_file,
    write_curve_csv,
    write_table_csv,
    write_xy_csv,
)

TSIRELSON = 2 * np.sqrt(2)


@pytest.fixture(scope="module")
def small_curve():
    cfg = ScanConfig(
        set=FeasibleSet.C, mode=ScanMode.MAX, s_lo=2.0, s_hi=2.8, grid_points=8,
        restarts=6, seed=13,
    )
    return scan(cfg)


def reference_csv(path, header, rows, digits):
    """Reference output: csv.writer with one ``format`` string per field."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(float(v), f".{digits}g") for v in row])


class TestFloatCsv:
    SPECIAL = [0.0, -0.0, 5e-324, 1e-300, 1 / 3, 2 * np.sqrt(2), -1.5, -1 / 7, -1e-300, -5e-324, 1e300]

    def columns(self, rows, k):
        special = np.resize(self.SPECIAL, rows * k)
        rng = np.random.default_rng([rows, k])
        noise = rng.standard_normal(rows * k) * 10.0 ** rng.integers(-300, 300, rows * k)
        return np.where(np.arange(rows * k) % 3 == 0, noise, special).reshape(rows, k)

    @pytest.mark.parametrize("digits", [12, 17])
    @pytest.mark.parametrize("rows", [1, 9000])  # 9000 spans two full blocks and a partial one
    def test_writers_match_csv_module(self, tmp_path, digits, rows):
        ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
        xy = self.columns(rows, 2)
        reference_csv(ref, ["s", "i"], xy, digits)
        write_xy_csv(out, xy[:, 0], xy[:, 1], digits=digits)
        assert out.read_bytes() == ref.read_bytes()
        for k in (2, 3):
            table = self.columns(rows, k)
            header = ["s", "i", "q"][:k]
            reference_csv(ref, header, table, digits)
            write_table_csv(out, header, table, digits=digits)
            assert out.read_bytes() == ref.read_bytes()
        assert b"\r\n" in ref.read_bytes()

    def test_scan_writer_matches_csv_module(self, tmp_path, small_curve):
        ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
        with open(ref, "w", newline="\n") as fh:
            writer = csv.writer(fh)
            writer.writerow(SCAN_HEADER)
            for p in small_curve.points:
                fields = [format(p.s, ".17g"), format(p.i, ".17g"), str(int(p.converged))]
                writer.writerow(fields + [format(v, ".17g") for v in p.argopt.vector()])
        write_curve_csv(out, small_curve)
        assert out.read_bytes() == ref.read_bytes()


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

    def test_non_utf8_bytes_carry_line_number(self, tmp_path, small_curve):
        path = tmp_path / "latin.csv"
        write_curve_csv(path, small_curve)
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2][:5] + b"\xff\xfe" + lines[2][5:]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError, match=":3: not UTF-8 text"):
            read_curve_csv(path)

    def test_oversized_field_carries_line_number(self, tmp_path, small_curve):
        path = tmp_path / "long.csv"
        write_curve_csv(path, small_curve)
        lines = path.read_text().splitlines()
        lines[2] = "1" * 200_000 + lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=":3: field larger than field limit"):
            read_curve_csv(path)

    @pytest.mark.parametrize("column", ["s", "i", "c01"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_field_carries_line_number(self, tmp_path, small_curve, column, value):
        path = tmp_path / "nan.csv"
        write_curve_csv(path, small_curve)
        lines = path.read_text().splitlines()
        row = lines[2].split(",")
        row[SCAN_HEADER.index(column)] = value
        lines[2] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f":3: non-finite {column}$"):
            read_curve_csv(path)

    @pytest.mark.parametrize("value", ["2", "-1", "10"])
    def test_converged_other_than_0_or_1_carries_line_number(self, tmp_path, small_curve, capsys, value):
        path = tmp_path / "conv.csv"
        write_curve_csv(path, small_curve)
        lines = path.read_text().splitlines()
        row = lines[2].split(",")
        row[SCAN_HEADER.index("converged")] = value
        lines[2] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f":3: converged must be 0 or 1, got '{value}'$"):
            read_curve_csv(path)
        assert dispatch(["inflect", "--in", str(path)]) == 1
        assert "converged must be 0 or 1" in capsys.readouterr().err

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
        assert read_curve_csv(path).set is FeasibleSet.SYM


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
        doc.write_text(json.dumps(behavior_to_json_dict(named("bell"))))
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

    @pytest.mark.parametrize(
        "text",
        [
            "{nope",
            "[" * 100000 + "]" * 100000,
            '{"marginals_a": [1' + "0" * 5000 + ', 0], "marginals_b": [0, 0], "correlations": [[0, 0], [0, 0]]}',
        ],
        ids=["syntax", "deep_nesting", "long_int_literal"],
    )
    def test_check_garbage_json(self, capsys, tmp_path, text):
        doc = tmp_path / "junk.json"
        doc.write_text(text)
        assert dispatch(["check", "--in", str(doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid JSON: ")

    @pytest.mark.parametrize(
        "first, message",
        [
            ("1" + "0" * 400, "int too large to convert to float"),
            ("true", "components must be JSON numbers"),
        ],
        ids=["huge_int", "bool"],
    )
    def test_check_rejects_non_float_components(self, capsys, tmp_path, first, message):
        doc = tmp_path / "doc.json"
        doc.write_text(
            f'{{"marginals_a": [{first}, 0], "marginals_b": [0, 0], "correlations": [[0, 0], [0, 0]]}}'
        )
        assert dispatch(["check", "--in", str(doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"malformed behavior document: {message}\n"

    @pytest.mark.parametrize("cmd", ["inflect", "trajectory", "check"])
    def test_non_utf8_input_exits_one(self, capsys, tmp_path, cmd):
        path = tmp_path / "latin1.txt"
        path.write_bytes("s,i\n2.9,0.5\n3.0,0.5\u00e9\n".encode("latin-1"))
        assert dispatch([cmd, "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not UTF-8 text" in captured.err

    @pytest.mark.parametrize("column, value", [("i", "nan"), ("i", "inf"), ("s", "nan")])
    def test_inflect_non_finite_field_exits_one(self, capsys, tmp_path, column, value):
        path = tmp_path / "scan.csv"
        path.write_text(mutable_scan_csv())
        lines = path.read_text().splitlines()
        row = lines[3].split(",")
        row[SCAN_HEADER.index(column)] = value
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        assert dispatch(["inflect", "--in", str(path), "--k", "2"]) == 1
        assert capsys.readouterr().err == f"validation error: {path}:4: non-finite {column}\n"

    def test_unknown_flag_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["curve", "--wat"])
        assert exc.value.code == 64

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--id", "ns_max", "--grid", str(2**62)],
            ["repro", "fig6", "--points", str(2**62)],
            ["repro", "fig5", "--n", str(2**62)],
            ["sample", "--n", str(2**62), "--out", "cloud.csv"],
            ["scan", "--set", "ns", "--mode", "min", "--lo", "2", "--hi", "3", "--n", "3",
             "--restarts", str(2**62), "--out", "scan.csv"],
        ],
        ids=["curve_grid", "repro_points", "repro_n", "sample_n", "scan_restarts"],
    )
    def test_oversized_count_exits_64(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            dispatch(argv)
        assert exc.value.code == 64
        assert f"{2**62} is too large" in capsys.readouterr().err

    def test_out_of_memory_exits_one(self, capsys, monkeypatch):
        def exhausted(curve_id, n):
            raise MemoryError("Unable to allocate 8.00 EiB")

        monkeypatch.setattr("nonsig.cli.curve_grid", exhausted)
        assert dispatch(["curve", "--id", "ns_max", "--grid", "10"]) == 1
        out = capsys.readouterr()
        assert out.err == "out of memory: Unable to allocate 8.00 EiB\n"
        assert out.out == ""

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

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        cases = [
            ["scan", "--set", "ns", "--mode", "min", "--lo", "2.5", "--hi", "3", "--n", "3",
             "--restarts", "2", "--seed", "-1", "--out", str(tmp_path / "scan.csv")],
            ["sample", "--n", "10", "--seed", "-1", "--out", str(tmp_path / "cloud.csv")],
            ["repro", "fig5", "--n", "10", "--seed", "-1", "--outdir", str(tmp_path / "f5")],
            ["repro", "fig6", "--points", "30", "--k", "5", "--seed", "-1", "--outdir", str(tmp_path / "f6")],
        ]
        for argv in cases:
            assert dispatch(argv) == 1, argv
            assert "seed must be >= 0" in capsys.readouterr().err, argv
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_repro_explicit_zero_overrides_are_rejected(self, tmp_path, capsys, monkeypatch):
        scans = []
        monkeypatch.setattr("nonsig.cli.scan", scans.append)
        cases = [
            (["fig5", "--n", "0"], 1),
            (["fig6", "--points", "0"], 1),
            (["fig3", "--restarts", "0"], 1),
            (["fig4", "--points", "0"], 1),
            (["fig6", "--points", "30", "--k", "0"], 2),
            (["fig7", "--points", "30", "--k", "0"], 2),
            (["fig6", "--points", "30", "--k", "15"], 2),  # 2k + 1 = 31 points needed
            (["fig7", "--points", "30", "--k", "15"], 2),
        ]
        for argv, code in cases:
            assert dispatch(["repro", *argv, "--outdir", str(tmp_path)]) == code, argv
            assert capsys.readouterr().err.strip(), argv
        assert not (tmp_path / "fig5_quantum.csv").exists()
        assert scans == []  # every bad override is rejected before the scan

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
        path = tmp_path / "cubic.csv"
        write_curve_csv(path, BoundaryCurve(points=tuple(pts), set=FeasibleSet.NS))
        assert dispatch(["inflect", "--in", str(path), "--k", "20"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["s_star"] == pytest.approx(2.8, abs=20 * (s[1] - s[0]) + 1e-9)
        # a straight line has no concavity change: analysis error, exit 2
        flat = tmp_path / "flat.csv"
        pts = [
            ScanPoint(s=float(sv), i=float(0.1 * sv), argopt=Correlators.from_vector(np.zeros(8)), converged=True)
            for sv in s
        ]
        write_curve_csv(flat, BoundaryCurve(points=tuple(pts), set=FeasibleSet.NS))
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
        path = tmp_path / "sym.csv"
        write_curve_csv(path, BoundaryCurve(points=tuple(pts), set=FeasibleSet.SYM))
        assert dispatch(["trajectory", "--in", str(path)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "s,a0,a1,c00,c01,c11"
        assert len(rows) == 7

    def test_one_row_scan_file(self, tmp_path, capsys):
        # a single row carries no score range: only its own score may be checked
        from nonsig.behavior import Correlators
        from nonsig.boundary import ScanPoint

        m = 3.5 / 4
        point = ScanPoint(s=3.5, i=0.4, argopt=Correlators.from_vector([0, 0, 0, 0, m, m, m, -m]), converged=True)
        path = tmp_path / "one.csv"
        write_curve_csv(path, BoundaryCurve(points=(point,), set=FeasibleSet.SYM))
        assert dispatch(["trajectory", "--in", str(path)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 2
        assert float(rows[1].split(",")[0]) == 3.5
        assert dispatch(["inflect", "--in", str(path), "--k", "1"]) == 2
        assert "too short" in capsys.readouterr().err


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**300, max_value=10**500)
    | st.floats()
    | st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def mutated_bell_documents(draw):
    """The valid Bell document with one field, row or component replaced or removed."""
    doc = behavior_to_json_dict(named("bell"))
    key = draw(st.sampled_from(sorted(doc)))
    where = draw(st.sampled_from(["field", "row", "component", "delete"]))
    if where == "delete":
        del doc[key]
    elif where == "field" or key != "correlations" and where == "component":
        doc[key] = draw(JSON_VALUES)
    elif where == "row":
        doc[key][draw(st.integers(0, 1))] = draw(JSON_VALUES)
    else:
        doc[key][draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(JSON_VALUES)
    return doc


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestCheckProperty:
    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES | mutated_bell_documents())
    def test_check_exits_cleanly_on_any_document(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_text(json.dumps(doc))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = dispatch(["check", "--in", str(path)])
        assert rc in (0, 1)
        if out.getvalue():
            json.loads(out.getvalue(), parse_constant=_reject_constant)
        if rc == 1:
            assert err.getvalue()


def mutable_scan_csv() -> str:
    """A 12-point symmetric scan whose i has one concavity change, at s = 3.15:
    both ``inflect --k 2`` and ``trajectory`` succeed on it."""
    s = np.linspace(2.9, 3.4, 12)
    m = s / 4
    zero = np.zeros_like(s)
    rows = np.column_stack([s, 0.5 + (s - 3.15) ** 3, np.ones_like(s), zero, zero, zero, zero, m, m, m, -m])
    lines = [",".join(SCAN_HEADER)] + [",".join(format(v, ".17g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


BAD_FIELDS = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "1e999", "", " ", "x"])


@st.composite
def mutated_scan_csvs(draw):
    """The valid scan CSV after one to three of: garbage bytes written in,
    a field set to NaN, inf or junk, a row made ragged, a row dropped or
    duplicated."""
    lines = mutable_scan_csv().encode().split(b"\n")[:-1]
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1)) if lines else 0
        kind = draw(st.sampled_from(["bytes", "field", "ragged", "drop", "dup"]))
        if not lines:
            break
        if kind == "bytes":
            line = lines[at]
            cut = draw(st.integers(0, len(line)))
            lines[at] = line[:cut] + draw(st.binary(min_size=1, max_size=4)) + line[cut + draw(st.integers(0, 2)):]
        elif kind == "field":
            fields = lines[at].split(b",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(BAD_FIELDS).encode()
            lines[at] = b",".join(fields)
        elif kind == "ragged":
            fields = lines[at].split(b",")
            lines[at] = b",".join(fields[:-1] if draw(st.booleans()) else fields + [b"0"])
        elif kind == "drop":
            del lines[at]
        else:
            lines.insert(at, lines[at])
    return b"\n".join(lines) + b"\n"


class TestScanCsvProperty:
    def test_unmutated_file_succeeds(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text(mutable_scan_csv())
        assert dispatch(["inflect", "--in", str(path), "--k", "2"]) == 0
        assert dispatch(["trajectory", "--in", str(path)]) == 0

    @settings(max_examples=150, deadline=None)
    @given(mutated_scan_csvs())
    def test_inflect_and_trajectory_exit_cleanly(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scan.csv"
            path.write_bytes(data)
            for argv in (["inflect", "--in", str(path), "--k", "2"], ["trajectory", "--in", str(path)]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = dispatch(argv)
                assert rc in (0, 1, 2)
                assert bool(err.getvalue()) == (rc != 0)


class TestCloudStream:
    """The quantum cloud is sampled, scored and written one ``_SAMPLE_CHUNK`` at a time."""

    def test_bad_count_or_seed_leaves_files_alone(self, tmp_path, capsys):
        out = tmp_path / "cloud.csv"
        out.write_bytes(b"earlier run\r\n")
        for argv in (["--n", "0"], ["--n", "10", "--seed", "-1"]):
            assert dispatch(["sample", *argv, "--out", str(out)]) == 1, argv
            assert capsys.readouterr().err.startswith("validation error: "), argv
            assert out.read_bytes() == b"earlier run\r\n", argv
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cloud.csv"]
        outdir = tmp_path / "f5"
        assert dispatch(["repro", "fig5", "--n", "0", "--outdir", str(outdir)]) == 1
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("full", [False, True])
    def test_chunk_boundaries_leave_no_trace(self, tmp_path, full):
        n, seed = 2 * _SAMPLE_CHUNK + 17, 4
        draws = []
        for chunk, start in enumerate(range(0, n, _SAMPLE_CHUNK)):
            m, rng = min(_SAMPLE_CHUNK, n - start), np.random.default_rng([seed, chunk])
            draws.append((_random_states(m, rng), _random_bloch(m, rng), _random_bloch(m, rng)))
        a, b, ab = _pauli_correlators(*(np.concatenate(d) for d in zip(*draws)))
        s, i = _s_max_ab(ab), _mi_correlators(a, b, ab)
        ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
        if full:
            header = ["s", "i", "a0", "a1", "b0", "b1", "c00", "c01", "c10", "c11"]
            write_table_csv(ref, header, np.column_stack([s, i, a, b, ab.reshape(-1, 4)]))
        else:
            write_xy_csv(ref, s, i)
        _write_cloud(out, n, seed, full=full)
        assert out.read_bytes() == ref.read_bytes()

    def test_scores_match_the_table_path(self):
        """(s, i) straight from the sampled correlators against S and I read back from
        their tables; the third chunk is the partial one (5 rows)."""
        chunks = list(sample_chunks(2 * _SAMPLE_CHUNK + 5, 6))
        assert [len(a) for a, _, _ in chunks] == [_SAMPLE_CHUNK, _SAMPLE_CHUNK, 5]
        for a, b, ab in chunks:
            tables = _tables_from_correlators(a, b, ab)
            s, i = _cloud_rows(a, b, ab, full=False).T
            assert np.max(np.abs(s - _s_max_ab(_correlators_from_tables(tables)[2]))) <= 1e-14
            assert np.max(np.abs(i - _mi_tables(tables))) <= 1e-14

    def test_memory_does_not_grow_with_n(self, tmp_path):
        def peak(chunks):
            tracemalloc.start()
            try:
                _write_cloud(tmp_path / "cloud.csv", chunks * _SAMPLE_CHUNK, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16) <= 1.2 * peak(4)


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

    def test_fig6_certifies_tsirelson(self, tmp_path, capsys):
        out = tmp_path / "f6"
        assert dispatch(["repro", "fig6", "--seed", "1", "--points", "30", "--k", "5", "--outdir", str(out)]) == 0
        doc = json.loads((out / "fig6_inflection.json").read_text())
        assert json.loads(capsys.readouterr().out) == doc
        assert abs(doc["isotropic_eig_root"] - TSIRELSON) <= 1e-15
        assert doc["isotropic_eig_signs"] == [-1, 1]
