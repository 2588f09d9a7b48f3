"""Sequential interpreter, helpers, bounds guard, machine-state rules."""

import random

import pytest

from conftest import fold16, rfc1071_sum16, run_step
from xvliw.asm import parse_asm
from xvliw.errors import BadHelperArgs, MemoryTrap, ProgramError, UnknownHelper
from xvliw.isa import PACKET_BUFFER, Instruction, Kind, MapDef
from xvliw.vm import (
    CTX_BASE,
    Limits,
    MAPFD_BASE,
    MAPVAL_BASE,
    MAP_STRIDE,
    MachineState,
    MapStore,
    PKT_BASE,
    PacketContext,
    STACK_BASE,
    XDP_ABORTED,
    XDP_DROP,
    XDP_PASS,
    XDP_REDIRECT,
    XDP_TX,
    exec_sequential,
    hardware_bounds_guard,
    read_mem,
    s64,
    write_mem,
)


def run(src, packet=b"\x00" * 64, port=0, maps=None, head_room=64,
        trace=False):
    prog = parse_asm(src)
    store = maps if maps is not None else MapStore(prog.maps)
    return exec_sequential(prog, PacketContext(packet, head_room, port), store,
                           trace=trace)


class TestExecution:
    def test_early_exit_drop(self):
        res, _ = run("early_exit 1\n", packet=b"\xab" * 80)
        assert res.action == XDP_DROP
        assert res.packet_out == b"\xab" * 80

    def test_zeroed_r0_aborts(self):
        res, _ = run("exit\n")
        assert res.action == XDP_ABORTED and res.code == 0

    def test_mac_swap_reference(self):
        packet = bytes(range(64))
        res, _ = run("""
          r2 = *(u32 *)(r1 + 0)
          r5 = *(u32 *)(r2 + 0)
          r6 = *(u16 *)(r2 + 4)
          r7 = *(u32 *)(r2 + 6)
          r8 = *(u16 *)(r2 + 10)
          *(u32 *)(r2 + 0) = r7
          *(u16 *)(r2 + 4) = r8
          *(u32 *)(r2 + 6) = r5
          *(u16 *)(r2 + 10) = r6
          r0 = 3
          exit
        """, packet=packet)
        expect = packet[6:12] + packet[0:6] + packet[12:]
        assert res.action == XDP_TX
        assert res.packet_out == expect

    def test_trace_records_indices(self):
        res, _ = run("r1 = 1\nr0 = 2\nexit\n", trace=True)
        assert res.trace == [0, 1, 2]

    def test_instruction_limit(self):
        prog = parse_asm("""
        top:
          r1 += 1
          if r1 > 0 goto top
          exit
        """)
        res, _ = exec_sequential(prog, PacketContext(b"\x00" * 64),
                                 MapStore(), Limits(max_instructions=100))
        assert res.trapped and "budget" in res.trap

    def test_determinism(self):
        from xvliw.corpus import CORPUS
        e = CORPUS["simple_firewall"]
        outs = []
        for _ in range(2):
            prog = parse_asm(e.source)
            maps = MapStore(prog.maps)
            snaps = []
            for data, port in e.packet_bytes():
                res, _ = exec_sequential(prog, PacketContext(data, 64, port),
                                         maps)
                snaps.append((res.action, res.code, res.packet_out,
                              tuple(sorted(res.maps_out[1].items()))))
            outs.append(snaps)
        assert outs[0] == outs[1]


class TestArithmetic:
    def test_div_mod_by_zero_yield_zero(self):
        res, st = run("""
          r3 = 77
          r4 = 0
          r3 /= r4
          r5 = 55
          r5 %= r4
          r0 = 2
          exit
        """)
        assert st.regs[3] == 0 and st.regs[5] == 0
        assert res.action == XDP_PASS

    def test_wrapping_and_masks(self, rng):
        state = _bare_state()

        def alu(op, width, a, b):
            state.regs[3], state.regs[4] = a, b
            run_step(state, Instruction(Kind.ALU_BINARY, op=op, width=width,
                                        dst=3, src=4))
            return state.regs[3]

        for _ in range(2000):
            a = rng.getrandbits(64)
            b = rng.getrandbits(64)
            assert alu("add", 64, a, b) == (a + b) % 2**64
            assert alu("sub", 64, a, b) == (a - b) % 2**64
            assert alu("mul", 64, a, b) == (a * b) % 2**64
            if b % 2**64:
                assert alu("div", 64, a, b) == a // b
                assert alu("mod", 64, a, b) == a % b
            assert alu("lsh", 64, a, b) == (a << (b & 63)) % 2**64
            assert alu("rsh", 64, a, b) == a >> (b & 63)
            assert alu("arsh", 64, a, b) == (s64(a) >> (b & 63)) % 2**64
            a32, b32 = a & 0xFFFFFFFF, b & 0xFFFFFFFF
            assert alu("add", 32, a, b) == (a32 + b32) % 2**32
            assert alu("rsh", 32, a, b) == a32 >> (b32 & 31)

    def test_mov_imm_sign_extension(self):
        _, st = run("r3 = -1\nw4 = -1\nexit\n")
        assert st.regs[3] == 2**64 - 1
        assert st.regs[4] == 0xFFFFFFFF

    def test_byteswap(self):
        _, st = run("""
          r3 = 0x11223344 ll
          r3 = be32 r3
          r4 = 0x1122 ll
          r4 = be16 r4
          r5 = 0xaabbccdd ll
          r5 = le32 r5
          exit
        """)
        assert st.regs[3] == 0x44332211
        assert st.regs[4] == 0x2211
        assert st.regs[5] == 0xAABBCCDD

    def test_signed_compares(self):
        res, _ = run("""
          r3 = -5
          if r3 s< 0 goto neg
          r0 = 1
          exit
        neg:
          r0 = 2
          exit
        """)
        assert res.action == XDP_PASS
        res, _ = run("""
          r3 = -5
          if r3 < 1 goto small
          r0 = 2
          exit
        small:
          r0 = 1
          exit
        """)   # unsigned: -5 is huge
        assert res.action == XDP_PASS


class TestZeroInit:
    def test_registers_and_stack_zero(self):
        _, st = run("""
          r3 = *(u64 *)(r10 - 8)
          r4 = r9
          r0 = 2
          exit
        """)
        assert st.regs[3] == 0 and st.regs[4] == 0

    def test_r1_ctx_r10_frame(self):
        _, st = run("exit\n")
        assert st.regs[1] == CTX_BASE
        assert st.regs[10] == STACK_BASE + 512


class TestBoundsGuard:
    def test_packet_boundary_inclusive(self):
        st = _bare_state()
        end = st.packet.data_end_addr
        buf, off, m = hardware_bounds_guard(st, end - 4, 4)
        assert buf is st.packet.buf and off == st.packet.end - 4 and m is None
        with pytest.raises(MemoryTrap):
            hardware_bounds_guard(st, end - 2, 4)

    def test_stack_window(self):
        st = _bare_state()
        r10 = STACK_BASE + 512
        buf, off, m = hardware_bounds_guard(st, r10 - 512, 8)
        assert buf is st.stack and off == 0 and m is None
        assert hardware_bounds_guard(st, r10 - 8, 8)[1] == 504
        with pytest.raises(MemoryTrap):
            hardware_bounds_guard(st, r10 - 516, 8)
        with pytest.raises(MemoryTrap):
            hardware_bounds_guard(st, r10 - 4, 8)

    def test_packet_buffer_is_bounded(self):
        """Head room and data fill at most ``PACKET_BUFFER`` bytes, so an
        access within that many bytes of the data pointer reaches neither
        the context record nor the stack (``isa._region``)."""
        assert len(PacketContext(bytes(PACKET_BUFFER - 64), 64).buf) == PACKET_BUFFER
        for data, head_room in ((PACKET_BUFFER - 63, 64), (64, 0x1000_0000 - 64)):
            with pytest.raises(ProgramError, match="exceed 65536 bytes"):
                PacketContext(bytes(data), head_room)
        assert CTX_BASE + 16 <= PKT_BASE - PACKET_BUFFER
        assert PKT_BASE + 2 * PACKET_BUFFER + 8 <= STACK_BASE

    def test_ctx_read_only(self):
        st = _bare_state()
        buf, off, m = hardware_bounds_guard(st, CTX_BASE + 4, 4)
        assert buf == st.packet.ctx_record() and off == 4 and m is None
        with pytest.raises(MemoryTrap):
            hardware_bounds_guard(st, CTX_BASE, 4, write=True)

    def test_ctx_record_follows_a_changed_ingress_port(self):
        ctx = PacketContext(b"\x00" * 16, ingress_port=3)
        assert ctx.ctx_record()[12:] == (3).to_bytes(4, "little")
        ctx.ingress_port = 9
        assert ctx.ctx_record()[12:] == (9).to_bytes(4, "little")

    def test_oob_becomes_aborted_action(self):
        res, _ = run("""
          r2 = *(u32 *)(r1 + 0)
          r3 = *(u64 *)(r2 + 60)
          r0 = 2
          exit
        """, packet=b"\x00" * 63)
        assert res.trapped and res.action == XDP_ABORTED

    def test_map_value_window(self):
        maps = MapStore([MapDef(1, "array", 4, 8, 4)])
        st = MachineState(packet=PacketContext(b"\x00" * 64), maps=maps)
        m = maps.get(1)
        buf, off, located = hardware_bounds_guard(st, m.slot_addr(0), 8)
        assert buf is m.storage and off == 0 and located is m
        assert hardware_bounds_guard(st, m.slot_addr(1) + 4, 4)[1:] == (12, m)
        with pytest.raises(MemoryTrap):
            hardware_bounds_guard(st, m.slot_addr(0) + 4, 8)  # crosses values
        with pytest.raises(MemoryTrap):
            hardware_bounds_guard(st, m.slot_addr(4), 4)      # past max_entries

    def test_reads_trap_as_the_guard_does(self):
        """Around every region edge ``read_mem`` must pass or trap exactly
        as the guard does, with the same text, and read the bytes the
        guard allows."""
        maps = MapStore([MapDef(1, "hash", 4, 8, 4), MapDef(2, "array", 4, 8, 2)])
        maps.init_entry(1, b"\x01\x00\x00\x00", bytes(range(8)))
        st = MachineState(packet=PacketContext(bytes(range(40)), 16, 3),
                          maps=maps)
        st.stack[:] = bytes(range(256)) * 2
        edges = [0, CTX_BASE, CTX_BASE + 12, CTX_BASE + 16, PKT_BASE,
                 st.packet.data_addr, st.packet.data_end_addr, STACK_BASE,
                 STACK_BASE + 512, MAPFD_BASE, MAPVAL_BASE,
                 MAPVAL_BASE + MAP_STRIDE, 2 * MAPVAL_BASE]
        pkt = st.packet
        record = b"".join(v.to_bytes(4, "little") for v in (
            pkt.data_addr, pkt.data_end_addr, pkt.data_addr, 3))
        for addr in (e + d for e in edges for d in range(-9, 10)):
            for width in (1, 2, 4, 6, 8):
                try:
                    hardware_bounds_guard(st, addr, width)
                    want = None
                except MemoryTrap as exc:
                    want = str(exc)
                try:
                    data = read_mem(st, addr, width, -1)
                    got = None
                except MemoryTrap as exc:
                    got = str(exc)
                assert got == want, (hex(addr), width)
                if want is None:
                    assert type(data) is bytes and len(data) == width
                if want is None and addr < PKT_BASE:
                    off = addr - CTX_BASE
                    assert data == record[off:off + width], (hex(addr), width)


class TestHelpers:
    def test_lookup_miss_returns_zero(self):
        res, st = run("""
        .map 1 hash 4 8 16
          *(u32 *)(r10 - 4) = 99
          r1 = map[1]
          r2 = r10
          r2 += -4
          call map_lookup
          exit
        """)
        assert st.regs[0] == 0

    def test_update_then_lookup_roundtrip(self):
        _, st = run("""
        .map 1 hash 4 8 16
          *(u32 *)(r10 - 4) = 7
          *(u64 *)(r10 - 16) = 0x1eadbeef
          r1 = map[1]
          r2 = r10
          r2 += -4
          r3 = r10
          r3 += -16
          r4 = 0
          call map_update
          r9 = r0
          r1 = map[1]
          call map_lookup
          r8 = *(u64 *)(r0 + 0)
          exit
        """)
        assert st.regs[9] == 0
        assert st.regs[0] != 0
        assert st.regs[8] == 0x1EADBEEF

    def test_csum_diff_against_reference(self, rng):
        for _ in range(50):
            buf = rng.randbytes(rng.choice((4, 8, 12, 16)))
            state = _bare_state()
            state.stack[0:len(buf)] = buf
            state.regs[1] = 0
            state.regs[2] = 0
            state.regs[3] = STACK_BASE
            state.regs[4] = len(buf)
            state.regs[5] = 0
            run_step(state, Instruction(Kind.CALL, imm=28))
            assert fold16(state.regs[0]) == rfc1071_sum16(buf)

    def test_csum_diff_incremental_4b_delta(self, rng):
        for _ in range(50):
            base = bytearray(rng.randbytes(16))
            new4 = rng.randbytes(4)
            pos = rng.choice((0, 4, 8, 12))
            state = _bare_state()
            state.stack[0:16] = base
            state.stack[16:20] = new4
            old_sum = rfc1071_sum16(bytes(base))
            state.regs[1] = STACK_BASE + pos       # from: old word
            state.regs[2] = 4
            state.regs[3] = STACK_BASE + 16        # to: new word
            state.regs[4] = 4
            state.regs[5] = old_sum
            run_step(state, Instruction(Kind.CALL, imm=28))
            updated = bytearray(base)
            updated[pos:pos + 4] = new4
            assert fold16(state.regs[0]) == rfc1071_sum16(bytes(updated))

    def test_csum_diff_arg_validation(self):
        state = _bare_state()
        state.regs[2] = 3
        with pytest.raises(BadHelperArgs):
            run_step(state, Instruction(Kind.CALL, imm=28))

    def test_adjust_head_grow_and_fail(self):
        res, st = run("""
          r9 = r1
          r2 = -32
          call adjust_head
          r8 = r0
          r1 = r9
          r2 = -4096
          call adjust_head
          r7 = r0
          r2 = *(u32 *)(r9 + 0)
          *(u8 *)(r2 + 0) = 0x5a
          r0 = 3
          exit
        """, packet=b"\x01" * 64)
        assert st.regs[8] == 0                     # grow by 32 fits head room
        assert st.regs[7] == 2**64 - 1             # 4096 does not
        assert res.packet_out[0] == 0x5A
        assert len(res.packet_out) == 96

    @pytest.mark.parametrize("engine", ["oracle", "vliw"])
    def test_context_load_after_adjust_head_sees_the_moved_packet(self, engine):
        """The context record is packed once per packet bounds: loads of it
        after adjust_head read the moved data pointer, not the cached one.
        The program writes data_before - data and data_end - data at the
        new packet start."""
        from xvliw.compiler import compile_program
        from xvliw.vliwsim import exec_vliw
        prog = parse_asm("""
          r9 = r1
          r6 = *(u32 *)(r9 + 0)
          r2 = -8
          call adjust_head
          r7 = *(u32 *)(r9 + 0)
          r8 = *(u32 *)(r9 + 4)
          r6 -= r7
          r8 -= r7
          *(u32 *)(r7 + 0) = r6
          *(u32 *)(r7 + 4) = r8
          r0 = 2
          exit
        """)
        ctx = PacketContext(b"\x01" * 64)
        if engine == "oracle":
            res, _ = exec_sequential(prog, ctx, MapStore(prog.maps))
        else:
            res = exec_vliw(compile_program(prog)[0], ctx,
                            MapStore(prog.maps))[0].result
        assert res.action == XDP_PASS and len(res.packet_out) == 72
        assert res.packet_out[:8] == (8).to_bytes(4, "little") + \
            (72).to_bytes(4, "little")

    def test_redirect_map(self):
        res, st = run("""
        .map 2 array 4 4 8
          r1 = map[2]
          r2 = 1
          r3 = 0
          call redirect_map
          exit
        """, maps=_redirect_store())
        assert res.action == XDP_REDIRECT
        assert res.redirect_target == 7

    def test_redirect_map_needs_4_byte_values(self):
        """A 2-byte entry cannot hold a redirect target: reading 4 bytes
        from entry 0 would take entry 1's bytes too (0x4030201). Both
        engines trap the same way."""
        from xvliw.compiler import compile_program
        from xvliw.vliwsim import exec_vliw
        prog = parse_asm("""
        .map 1 array 4 2 2
          r1 = map[1]
          r2 = 0
          r3 = 0
          call redirect_map
          exit
        """)
        entries = [(1, (0).to_bytes(4, "little"), b"\x01\x02"),
                   (1, (1).to_bytes(4, "little"), b"\x03\x04")]
        res, _ = exec_sequential(prog, PacketContext(b"\x00" * 64),
                                 MapStore(prog.maps, entries))
        assert res.trapped and res.action == XDP_ABORTED
        assert "redirect map values must hold 4 bytes" in res.trap
        vliw, _ = compile_program(prog)
        report, _ = exec_vliw(vliw, PacketContext(b"\x00" * 64),
                              MapStore(prog.maps, entries))
        assert (report.result.action, report.result.trap) == (res.action, res.trap)

    def test_unknown_helper(self):
        state = _bare_state()
        with pytest.raises(UnknownHelper):
            run_step(state, Instruction(Kind.CALL, imm=999))

    def test_helper_preserves_callee_saved(self, rng):
        state = MachineState(packet=PacketContext(b"\x00" * 64),
                             maps=MapStore([MapDef(1, "hash", 4, 8, 8)]))
        for r in range(6, 10):
            state.regs[r] = rng.getrandbits(64)
        saved = list(state.regs)
        state.stack[0:4] = b"\x01\x00\x00\x00"
        state.regs[1] = 0x4000_0000 + 1
        state.regs[2] = STACK_BASE
        saved_args = list(state.regs)
        saved_stack = bytes(state.stack)
        run_step(state, Instruction(Kind.CALL, imm=1))
        assert state.regs[6:10] == saved[6:10]
        assert state.regs[1:6] == saved_args[1:6]  # arguments preserved too
        assert bytes(state.stack) == saved_stack


def _bare_state():
    return MachineState(packet=PacketContext(b"\x00" * 64), maps=MapStore())


def _redirect_store():
    return MapStore([MapDef(2, "array", 4, 4, 8)],
                    [(2, (1).to_bytes(4, "little"), (7).to_bytes(4, "little"))])


class TestMaps:
    def test_array_prezeroed_and_bounded(self):
        store = MapStore([MapDef(1, "array", 4, 4, 4)])
        m = store.get(1)
        assert m.lookup((3).to_bytes(4, "little")) is not None
        assert m.lookup((4).to_bytes(4, "little")) is None
        assert m.snapshot()[(0).to_bytes(4, "little")] == bytes(4)

    def test_hash_capacity(self):
        store = MapStore([MapDef(1, "hash", 4, 4, 2)])
        m = store.get(1)
        assert m.update(b"aaaa", b"1111", 0) == 0
        assert m.update(b"bbbb", b"2222", 0) == 0
        assert m.update(b"cccc", b"3333", 0) == -1      # full, no eviction
        assert m.delete(b"aaaa") == 0
        assert m.update(b"cccc", b"3333", 0) == 0

    def test_lru_evicts_oldest(self):
        store = MapStore([MapDef(1, "lru_hash", 4, 4, 2)])
        m = store.get(1)
        m.update(b"aaaa", b"1111", 0)
        m.update(b"bbbb", b"2222", 0)
        m.lookup(b"aaaa")                              # refresh a
        m.update(b"cccc", b"3333", 0)                  # evicts b
        snap = m.snapshot()
        assert set(snap) == {b"aaaa", b"cccc"}

    def test_update_flags(self):
        store = MapStore([MapDef(1, "hash", 4, 4, 4)])
        m = store.get(1)
        assert m.update(b"aaaa", b"1111", 1) == 0      # NOEXIST on fresh key
        assert m.update(b"aaaa", b"2222", 1) == -1     # exists now
        assert m.update(b"bbbb", b"1111", 2) == -1     # EXIST on missing
        assert m.update(b"aaaa", b"2222", 2) == 0

    def test_deleted_entry_dangling_pointer_traps(self):
        res, _ = run("""
        .map 1 hash 4 8 8
          *(u32 *)(r10 - 4) = 1
          *(u64 *)(r10 - 16) = 5
          r1 = map[1]
          r2 = r10
          r2 += -4
          r3 = r10
          r3 += -16
          r4 = 0
          call map_update
          r1 = map[1]
          call map_lookup
          r9 = r0
          r1 = map[1]
          call map_delete
          r3 = *(u64 *)(r9 + 0)
          r0 = 2
          exit
        """)
        assert res.trapped


class TestValueTable:
    """Each map's write-through key->value table, against a rebuild from
    storage and the key->slot directory after every step of seeded random
    sequences of updates, deletes, lookups, LRU evictions and stores
    through value pointers."""

    @staticmethod
    def rebuilt(m):
        vs = m.mdef.value_size
        if m.entries is None:
            return {i.to_bytes(4, "little"): bytes(m.storage[i * vs:(i + 1) * vs])
                    for i in range(m.mdef.max_entries)}
        return {k: bytes(m.storage[s * vs:(s + 1) * vs])
                for k, s in m.entries.items()}

    @pytest.mark.parametrize("kind", ["hash", "lru_hash", "array"])
    def test_snapshot_is_storage(self, kind):
        rng = random.Random(f"value-table-{kind}")
        for _ in range(40):
            store = MapStore([MapDef(1, kind, 4, 8, 4)])
            m = store.get(1)
            state = MachineState(packet=PacketContext(bytes(64)), maps=store)
            keys = [k.to_bytes(4, "little") for k in range(6)]
            for _ in range(60):
                op = rng.choice(("update", "update", "delete", "lookup", "store"))
                key = rng.choice(keys)
                if op == "update":
                    m.update(key, rng.randbytes(8), rng.choice((0, 1, 2)))
                elif op == "delete":
                    slot = m.entries.get(key) if m.entries is not None else None
                    if m.delete(key) == 0:
                        assert not m.slot_allocated(slot)
                        with pytest.raises(MemoryTrap, match="unallocated"):
                            read_mem(state, m.slot_addr(slot), 1)
                elif op == "lookup":
                    m.lookup(key)
                else:
                    addr = m.lookup(key)
                    if addr is not None:
                        width = rng.choice((1, 2, 4, 8))
                        addr += rng.randrange(8 - width + 1)
                        write_mem(state, addr, rng.randbytes(width))
                assert m.snapshot() == self.rebuilt(m)
                if m.entries is not None:
                    live = set(m.entries.values())
                    assert [m.slot_allocated(s) for s in range(6)] == \
                        [s in live for s in range(6)]

    def test_eviction_frees_the_oldest_entry(self):
        store = MapStore([MapDef(1, "lru_hash", 4, 4, 2)])
        m = store.get(1)
        m.update(b"aaaa", b"1111", 0)
        m.update(b"bbbb", b"2222", 0)
        slot_a = m.entries[b"aaaa"]
        m.update(b"cccc", b"3333", 0)                  # evicts a
        assert m.snapshot() == {b"bbbb": b"2222", b"cccc": b"3333"}
        assert m.entries[b"cccc"] == slot_a            # the freed slot
        m.delete(b"cccc")
        assert not m.slot_allocated(slot_a)
