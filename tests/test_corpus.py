"""Corpus entries: trap-free execution, expected actions, engine agreement,
golden schedule stability for the listing-fidelity cases."""

from pathlib import Path

import pytest

from conftest import corpus_stores
from xvliw.asm import parse_asm
from xvliw.compiler import compile_program
from xvliw.corpus import CORPUS, names
from xvliw.fuzz import compare_results
from xvliw.vliwsim import exec_vliw, hazard_check
from xvliw.vm import MapStore, PacketContext, exec_sequential

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", names())
def test_entry_round_trip(name):
    entry = CORPUS[name]
    prog = parse_asm(entry.source)
    vliw, report = compile_program(prog)
    assert hazard_check(vliw) == []
    assert 1.0 <= report.static_ipc <= 4.0
    o_maps, v_maps = corpus_stores(entry, prog, 2)
    for i, (data, port) in enumerate(entry.packet_bytes()):
        o, _ = exec_sequential(prog, PacketContext(data, 64, port), o_maps)
        r, _ = exec_vliw(vliw, PacketContext(data, 64, port), v_maps)
        assert not o.trapped and not r.result.trapped, (name, i)
        assert o.action_name == entry.expected_actions[i], (name, i)
        ok, detail = compare_results(o, r.result)
        assert ok, (name, i, detail)


def test_firewall_statefulness():
    entry = CORPUS["simple_firewall"]
    prog = parse_asm(entry.source)
    maps = MapStore(prog.maps)
    packets = entry.packet_bytes()
    # the reply is only passed because the internal packet created the flow
    reply, port = packets[1]
    res, _ = exec_sequential(prog, PacketContext(reply, 64, port),
                             MapStore(prog.maps))
    assert res.action_name == "DROP"
    first, fport = packets[0]
    exec_sequential(prog, PacketContext(first, 64, fport), maps)
    res, _ = exec_sequential(prog, PacketContext(reply, 64, port), maps)
    assert res.action_name == "PASS"


def test_firewall_reduction_counts():
    prog = parse_asm(CORPUS["simple_firewall"].source)
    _, report = compile_program(prog)
    assert report.pass_deltas["boundary_checks"] == 9
    assert report.pass_deltas["zeroing"] == 4
    assert report.pass_deltas["early_exit"] >= 3


def test_tx_mac_swap_packet_bytes():
    entry = CORPUS["tx_mac_swap"]
    prog = parse_asm(entry.source)
    vliw, report = compile_program(prog)
    assert report.pass_deltas["load_store_6b"] == 4      # two fused idioms
    assert report.after_reduction_count == 7             # reachable only
    data, port = entry.packet_bytes()[0]
    r, _ = exec_vliw(vliw, PacketContext(data, 64, port), MapStore())
    assert r.result.packet_out[:6] == data[6:12]
    assert r.result.packet_out[6:12] == data[:6]
    assert r.result.packet_out[12:] == data[12:]


def test_redirect_targets():
    entry = CORPUS["redirect_ports"]
    prog = parse_asm(entry.source)
    vliw, _ = compile_program(prog)
    _, v_maps = corpus_stores(entry, prog, 2)
    (p0, _), (p1, _) = entry.packet_bytes()
    r, _ = exec_vliw(vliw, PacketContext(p0, 64, 0), v_maps)
    assert r.result.redirect_target == 1
    r, _ = exec_vliw(vliw, PacketContext(p1, 64, 1), v_maps)
    assert r.result.redirect_target == 0


def _golden_check(tag, text):
    path = GOLDEN / f"{tag}.golden"
    if not path.exists():
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
    assert text == path.read_text(), f"{tag} drifted from the golden file"


def test_listing_goldens():
    """The two compressed-opcode listings compile to exactly one extended
    instruction each; schedule dumps are golden-file stable."""
    vliw, _ = compile_program(parse_asm("r4 = r1\nr4 += 20\nr0 = 1\nexit\n"))
    _golden_check("mov_add_listing", vliw.dump())
    vliw2, _ = compile_program(parse_asm("r0 = 1\nexit\n"))
    _golden_check("early_exit_listing", vliw2.dump())


def test_firewall_schedule_golden():
    vliw, _ = compile_program(parse_asm(CORPUS["simple_firewall"].source))
    _golden_check("simple_firewall_lanes4", vliw.dump())
