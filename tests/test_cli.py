"""Command line behaviour: exit codes, reports, golden runs."""

import json

import pytest

from xvliw.cli import main
from xvliw.corpus import CORPUS


def invoke(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def listing(tmp_path):
    path = tmp_path / "listing.s"
    path.write_text("r4 = r1\nr4 += 20\nr0 = 1\nexit\n")
    return str(path)


def test_compile_reports_fusion(capsys, listing):
    rc, out, _ = invoke(capsys, "compile", listing, "--dump-schedule")
    assert rc == 0
    assert "fused: 1 three-operand, 1 early-exit" in out
    assert "r4 = r1 + 20 | early_exit 1" in out


def test_compile_json_report(capsys, listing):
    rc, out, _ = invoke(capsys, "compile", listing, "--report", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["original_count"] == 4
    assert data["after_reduction_count"] == 2
    assert data["padding_rows"] == 0
    assert data["hazard_violations"] == []


def test_compile_json_report_counts_padding(capsys, tmp_path):
    # the latch writes r2 on another lane than the header reads it from,
    # so lane assignment pads the loop header with one empty row
    loop = tmp_path / "loop.s"
    loop.write_text("r2 = 5\nr1 = 1\ntop:\nr0 += r2\nr1 += 1\nr2 = r1\n"
                    "if r0 < 20 goto top\nexit\n")
    rc, out, _ = invoke(capsys, "compile", str(loop), "--report", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["padding_rows"] == 1
    assert data["hazard_violations"] == []
    rc, out, _ = invoke(capsys, "compile", str(loop))
    assert rc == 0
    assert "(1 padding)" in out


def test_lane_flag_rows_non_increasing(capsys):
    rows = {}
    for lanes in (2, 4):
        rc, out, _ = invoke(capsys, "compile", "corpus:simple_firewall",
                            "--lanes", str(lanes), "--report", "json")
        assert rc == 0
        rows[lanes] = json.loads(out)["vliw_rows"]
    assert rows[4] <= rows[2]


def test_compile_empty_file_fails(capsys, tmp_path):
    empty = tmp_path / "empty.s"
    empty.write_text("\n")
    rc, _, err = invoke(capsys, "compile", str(empty))
    assert rc == 1
    assert "error" in err


def test_pass_toggle(capsys, listing):
    rc, out, _ = invoke(capsys, "compile", listing, "--no-early-exit",
                        "--report", "json")
    assert rc == 0
    assert json.loads(out)["pass_deltas"]["early_exit"] == 0


def test_run_corpus_both_engines(capsys, tmp_path):
    entry = CORPUS["simple_firewall"]
    pkts = tmp_path / "pkts.txt"
    pkts.write_text("\n".join(h for h, _ in entry.packets[:1]) + "\n")
    rc, out, _ = invoke(capsys, "run", "corpus:simple_firewall",
                        "--packets", str(pkts), "--port", "1")
    assert rc == 0
    assert "EQUIVALENT" in out and "PASS(2)" in out


def test_run_drop_all(capsys, tmp_path):
    pkts = tmp_path / "pkts.txt"
    pkts.write_text("00" * 64 + "\n" + "11" * 80 + "\n")
    rc, out, _ = invoke(capsys, "run", "corpus:drop_all", "--packets",
                        str(pkts))
    assert rc == 0
    assert out.count("DROP(1)") >= 2


def test_run_corrupted_schedule_dump(capsys, tmp_path):
    dump = tmp_path / "bad.vliw"
    dump.write_text("# xvliw schedule lanes=4\n"
                    "r2 = 1 | --- | --- | ---\n"
                    "--- | r3 = r2 | --- | ---\n"
                    "exit | --- | --- | ---\n")
    rc, out, _ = invoke(capsys, "run", str(dump), "--engine", "vliw")
    assert rc == 2
    assert "hazard violations" in out
    assert "cross-lane" in out


def test_run_schedule_dump_ok(capsys, tmp_path, listing):
    out_dump = tmp_path / "prog.vliw"
    rc, _, _ = invoke(capsys, "compile", listing, "-o", str(out_dump))
    assert rc == 0
    rc, out, _ = invoke(capsys, "run", str(out_dump), "--engine", "vliw")
    assert rc == 0
    assert "vliw=DROP(1)" in out


def test_fuzz_deterministic_replay(capsys):
    rc1, out1, _ = invoke(capsys, "fuzz", "--iterations", "25", "--seed", "6")
    rc2, out2, _ = invoke(capsys, "fuzz", "--iterations", "25", "--seed", "6")
    assert rc1 == rc2 == 0
    strip = lambda s: [l for l in s.splitlines() if "cases in" not in l]
    assert strip(out1) == strip(out2)


def test_report_tables(capsys):
    rc, out, _ = invoke(capsys, "report", "--no-sweep")
    assert rc == 0
    assert "simple_firewall" in out and "red%" in out
    rc, out, _ = invoke(capsys, "report", "simple_firewall", "--report",
                        "json")
    assert rc == 0
    data = json.loads(out)
    assert data[0]["name"] == "simple_firewall"
    lane_rows = list(data[0]["lane_rows"].values())
    assert lane_rows == sorted(lane_rows, reverse=True)


def test_disasm_roundtrip(capsys, tmp_path, listing):
    rc, out, _ = invoke(capsys, "disasm", listing, "--encode")
    assert rc == 0
    assert "r4 = r1" in out
    hexline = out.strip().splitlines()[-1]
    binfile = tmp_path / "prog.bin"
    binfile.write_bytes(bytes.fromhex(hexline))
    rc, out2, _ = invoke(capsys, "disasm", str(binfile))
    assert rc == 0
    assert "r4 += 20" in out2


def test_trace_output(capsys, tmp_path):
    pkts = tmp_path / "pkts.txt"
    pkts.write_text("00" * 64 + "\n")
    rc, out, _ = invoke(capsys, "run", "corpus:drop_all", "--packets",
                        str(pkts), "--engine", "vliw", "--trace")
    assert rc == 0
    assert "cycle " in out and "row " in out


def test_run_negative_head_room_fails(capsys):
    rc, _, err = invoke(capsys, "run", "corpus:drop_all", "--head-room", "-5")
    assert rc == 1
    assert err.startswith("error: head room -5 is negative")


@pytest.mark.parametrize("argv", [("compile", "corpus:drop_all", "--lanes", "9"),
                                  ("run", "corpus:drop_all", "--lanes", "0"),
                                  ("fuzz", "--iterations", "2", "--lanes", "9")])
def test_lane_count_out_of_range_fails(capsys, argv):
    rc, _, err = invoke(capsys, *argv)
    assert rc == 1
    assert err.startswith("error: lane count")


def test_run_dump_with_bad_lane_header_fails(capsys, tmp_path):
    dump = tmp_path / "bad.vliw"
    nine = " | ".join(["exit"] + ["---"] * 8)
    for text, message in [
            ("# xvliw schedule lanes=abc\nexit | ---\n", "bad lane count"),
            (f"# xvliw schedule lanes=9\n{nine}\n", "lane count 9 is not in"),
            (f"{nine}\n", "lane count 9 is not in")]:
        dump.write_text(text)
        rc, _, err = invoke(capsys, "run", str(dump), "--engine", "vliw")
        assert rc == 1
        assert err.startswith(f"error: line 1: {message}")


@pytest.mark.parametrize("config, message", [
    ("map 0 hash 4 8 16\ninit 0 0102 03040506\n", "2-byte key"),
    ("init 7 01020304 0102030405060708\n", "no map defines"),
])
def test_run_bad_map_init_fails(capsys, tmp_path, config, message):
    maps = tmp_path / "maps.cfg"
    maps.write_text(config)
    rc, _, err = invoke(capsys, "run", "corpus:drop_all", "--maps", str(maps))
    assert rc == 1
    assert err.startswith("error: ") and message in err


def test_run_json_report_stays_json(capsys, tmp_path):
    dump = tmp_path / "bad.vliw"
    dump.write_text("# xvliw schedule lanes=4\n"
                    "r2 = 1 | --- | --- | ---\n"
                    "--- | r3 = r2 | --- | ---\n"
                    "exit | --- | --- | ---\n")
    rc, out, _ = invoke(capsys, "run", str(dump), "--engine", "vliw",
                        "--report", "json")
    assert rc == 2
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 1
    assert any("cross-lane" in v for v in lines[0]["hazard_violations"])
