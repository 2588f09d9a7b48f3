"""Built-in corpus: a stateful firewall plus small analogs of the stock
XDP example programs (drop, MAC-swap TX, tunnel encap, redirect).

Each entry carries assembly source, map setup, a packet set with ingress
ports and the expected forwarding action per packet. Every entry runs
trap-free on its packet set through both engines.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import XvliwError


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    description: str
    source: str
    packets: tuple[tuple[str, int], ...]          # (hex payload, ingress port)
    map_init: tuple[tuple[int, str, str], ...] = ()   # (map id, key hex, value hex)
    expected_actions: tuple[str, ...] = ()

    def packet_bytes(self):
        return [(bytes.fromhex(h), port) for h, port in self.packets]


def _eth_ipv4(src_mac, dst_mac, saddr, daddr, proto, sport, dport,
              payload=b"\x00" * 26):
    eth = bytes.fromhex(dst_mac) + bytes.fromhex(src_mac) + b"\x08\x00"
    total_len = 20 + 8 + len(payload)
    ip = struct.pack("!BBHHHBBH4s4s", 0x45, 0, total_len, 0, 0, 64, proto, 0,
                     bytes(map(int, saddr.split("."))),
                     bytes(map(int, daddr.split("."))))
    l4 = struct.pack("!HHI", sport, dport, 0)
    return (eth + ip + l4 + payload).hex()


_FIREWALL_SRC = """\
.map 1 hash 16 8 256
; parse context
  r2 = *(u32 *)(r1 + 0)
  r3 = *(u32 *)(r1 + 4)
  r7 = *(u32 *)(r1 + 12)
; zero the flow-key scratch area
  *(u64 *)(r10 - 40) = 0
  *(u64 *)(r10 - 32) = 0
  *(u64 *)(r10 - 24) = 0
  *(u64 *)(r10 - 16) = 0
; ethernet header must fit
  r4 = r2
  r4 += 14
  if r4 > r3 goto drop
  r5 = *(u16 *)(r2 + 12)
  if r5 != 8 goto drop
; ip header must fit
  r4 = r2
  r4 += 34
  if r4 > r3 goto drop
  r5 = *(u8 *)(r2 + 23)
  if r5 == 6 goto l4ok
  if r5 == 17 goto l4ok
  goto drop
l4ok:
; transport ports must fit
  r4 = r2
  r4 += 38
  if r4 > r3 goto drop
; extract the 5-tuple
  r8 = *(u32 *)(r2 + 26)
  r9 = *(u32 *)(r2 + 30)
  r6 = *(u16 *)(r2 + 34)
  r4 = *(u16 *)(r2 + 36)
  r5 = *(u8 *)(r2 + 23)
; absolute ordering so both flow directions share one key
  if r8 <= r9 goto ordered
  r0 = r8
  r8 = r9
  r9 = r0
  r0 = r6
  r6 = r4
  r4 = r0
ordered:
  *(u32 *)(r10 - 40) = r8
  *(u32 *)(r10 - 36) = r9
  *(u16 *)(r10 - 32) = r6
  *(u16 *)(r10 - 30) = r4
  *(u8 *)(r10 - 28) = r5
  r1 = map[1]
  r2 = r10
  r2 += -40
  call map_lookup
  if r7 != 1 goto external
  if r0 != 0 goto touch
; internal first packet: create the flow entry, then pass
  *(u64 *)(r10 - 8) = 1
  r1 = map[1]
  r2 = r10
  r2 += -40
  r3 = r10
  r3 += -8
  r4 = 0
  call map_update
  r0 = 2
  exit
touch:
  r5 = *(u64 *)(r0 + 0)
  r5 += 1
  *(u64 *)(r0 + 0) = r5
  r0 = 2
  exit
external:
  if r0 == 0 goto drop
  r5 = *(u64 *)(r0 + 0)
  r5 += 1
  *(u64 *)(r0 + 0) = r5
  r0 = 2
  exit
drop:
  r0 = 1
  exit
"""

_TX_SWAP_SRC = """\
  r2 = *(u32 *)(r1 + 0)
  r3 = *(u32 *)(r1 + 4)
  r4 = r2
  r4 += 14
  if r4 > r3 goto drop
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
drop:
  r0 = 1
  exit
"""

_DROP_SRC = """\
  r0 = 1
  exit
"""

_TUNNEL_SRC = """\
; read inner addresses, grow head room, build a 20B outer header
  r2 = *(u32 *)(r1 + 0)
  r3 = *(u32 *)(r1 + 4)
  r4 = r2
  r4 += 34
  if r4 > r3 goto drop
  r6 = *(u32 *)(r2 + 26)
  r7 = *(u32 *)(r2 + 30)
  r2 = -20
  call adjust_head
  if r0 != 0 goto drop
  r9 = *(u32 *)(r1 + 0)
; outer header: version word, carried addresses, checksum of the pair
  *(u32 *)(r9 + 0) = 1145258561
  *(u32 *)(r9 + 4) = r6
  *(u32 *)(r9 + 8) = r7
  *(u32 *)(r10 - 8) = r6
  *(u32 *)(r10 - 4) = r7
  r1 = 0
  r2 = 0
  r3 = r10
  r3 += -8
  r4 = 8
  r5 = 0
  call csum_diff
  *(u32 *)(r9 + 12) = r0
  *(u32 *)(r9 + 16) = 0
  r0 = 3
  exit
drop:
  r0 = 1
  exit
"""

_REDIRECT_SRC = """\
.map 2 array 4 4 8
  r6 = *(u32 *)(r1 + 12)
  r1 = map[2]
  r2 = r6
  r3 = 0
  call redirect_map
  exit
"""

_pkt_int = _eth_ipv4("02aabbccddee", "02ffeeddccbb",
                     "10.0.0.1", "192.168.7.9", 6, 4000, 80)
_pkt_reply = _eth_ipv4("02ffeeddccbb", "02aabbccddee",
                       "192.168.7.9", "10.0.0.1", 6, 80, 4000)
_pkt_external = _eth_ipv4("02ffeeddccbb", "02aabbccddee",
                          "192.168.7.9", "10.0.0.1", 6, 80, 5555)
_pkt_udp = _eth_ipv4("02aabbccddee", "02ffeeddccbb",
                     "10.0.0.2", "192.168.7.9", 17, 999, 53)
_pkt_arp = ("02ffeeddccbb02aabbccddee0806" + "00" * 50)


CORPUS: dict[str, CorpusEntry] = {}


def _add(entry: CorpusEntry):
    CORPUS[entry.name] = entry


_add(CorpusEntry(
    name="simple_firewall",
    description="stateful bi-directional flow firewall: internal packets "
                "create flow entries, external packets pass only on a hit",
    source=_FIREWALL_SRC,
    packets=(
        (_pkt_int, 1),        # internal: creates the flow, PASS
        (_pkt_reply, 0),      # reply direction: same ordered key, PASS
        (_pkt_external, 0),   # unknown external flow: DROP
        (_pkt_udp, 1),        # internal UDP: creates another flow, PASS
        (_pkt_arp, 1),        # not IPv4: DROP
    ),
    expected_actions=("PASS", "PASS", "DROP", "PASS", "DROP"),
))

_add(CorpusEntry(
    name="drop_all",
    description="unconditional drop (counter-style baseline)",
    source=_DROP_SRC,
    packets=((_pkt_int, 0), (_pkt_arp, 0)),
    expected_actions=("DROP", "DROP"),
))

_add(CorpusEntry(
    name="tx_mac_swap",
    description="swap the Ethernet source/destination addresses and bounce "
                "the packet out the ingress port",
    source=_TX_SWAP_SRC,
    packets=((_pkt_int, 0), (_pkt_udp, 2)),
    expected_actions=("TX", "TX"),
))

_add(CorpusEntry(
    name="tunnel_encap",
    description="grow head room and prepend a 20-byte encapsulation header "
                "with an incremental checksum over the carried addresses",
    source=_TUNNEL_SRC,
    packets=((_pkt_int, 0), (_pkt_udp, 1)),
    expected_actions=("TX", "TX"),
))

_add(CorpusEntry(
    name="redirect_ports",
    description="static port-to-port redirect through an array map",
    source=_REDIRECT_SRC,
    packets=((_pkt_int, 0), (_pkt_udp, 1)),
    map_init=((2, "00000000", "01000000"), (2, "01000000", "00000000")),
    expected_actions=("REDIRECT", "REDIRECT"),
))


def names():
    return sorted(CORPUS)


def entry(name: str) -> CorpusEntry:
    """The entry ``name``; an ``XvliwError`` naming the known ones if none."""
    if name not in CORPUS:
        raise XvliwError(f"unknown corpus program {name!r}; known: {', '.join(names())}")
    return CORPUS[name]
