"""Command line front end: compile, run, fuzz, report, disasm."""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .asm import format_asm, parse_asm
from .analysis import build_program_cfg, cfg_to_dot
from .compiler import compile_program
from .corpus import entry as corpus_entry
from .errors import XvliwError
from .formats import load_packets, parse_map_config
from .fuzz import compare_results, fuzz
from .isa import Program, decode, encode
from .peephole import PASS_NAMES
from .reports import reduction_table_json, reduction_table_text, report_reduction
from .schedule import LaneConstraints, parse_dump
from .vliwsim import exec_vliw, hazard_check
from .vm import Limits, MapStore, PacketContext, exec_sequential


def load_program(path: str) -> Program:
    if path.startswith("corpus:"):
        return parse_asm(corpus_entry(path.split(":", 1)[1]).source)
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith((".bin", ".o")):
        return decode(data)
    return parse_asm(data.decode())


def _count(text: str) -> int:
    """An argparse type: an int that is not negative."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _pass_toggles(args) -> dict[str, bool]:
    return {name: not getattr(args, f"no_{name}") for name in PASS_NAMES}


def _add_pass_flags(sub):
    for name in PASS_NAMES:
        sub.add_argument(f"--no-{name.replace('_', '-')}",
                         dest=f"no_{name}", action="store_true",
                         help=f"disable the {name} pass")
    sub.add_argument("--no-code-motion", action="store_true",
                     help="disable upward code motion")


def _load_map_setup(args, program: Program):
    defs = list(program.maps)
    inits = []
    if getattr(args, "maps", None):
        with open(args.maps) as fh:
            file_defs, inits = parse_map_config(fh.read())
        have = {m.id for m in defs}
        defs += [m for m in file_defs if m.id not in have]
    return defs, inits


def cmd_compile(args) -> int:
    program = load_program(args.input)
    vliw, report = compile_program(
        program, LaneConstraints(lanes=args.lanes),
        passes=_pass_toggles(args),
        enable_code_motion=not args.no_code_motion)
    violations = hazard_check(vliw)
    if args.report == "json":
        out = report.as_dict()
        out["hazard_violations"] = violations
        print(json.dumps(out, indent=2))
    else:
        print(report.text())
        if violations:
            print("hazard violations:")
            for v in violations:
                print(f"  {v}")
    if args.dump_schedule:
        print(vliw.dump(), end="")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(vliw.dump())
    if args.emit_asm:
        print(format_asm(program), end="")
    if args.dot:
        print(cfg_to_dot(build_program_cfg(program), program), end="")
    return 1 if violations else 0


def cmd_run(args) -> int:
    limits = Limits(max_instructions=args.max_instructions)
    is_dump = args.input.endswith(".vliw")
    program = None
    vliw = None
    if is_dump:
        with open(args.input) as fh:
            vliw = parse_dump(fh.read())
        if args.engine != "vliw":
            print("schedule dumps only run with --engine vliw", file=sys.stderr)
            return 2
    else:
        program = load_program(args.input)
        if args.engine in ("vliw", "both"):
            vliw, _ = compile_program(
                program, LaneConstraints(lanes=args.lanes),
                passes=_pass_toggles(args),
                enable_code_motion=not args.no_code_motion)

    if vliw is not None:
        violations = hazard_check(vliw)
        if violations:
            if args.report == "json":
                print(json.dumps({"hazard_violations": violations}))
            else:
                print("hazard violations:")
                for v in violations:
                    print(f"  {v}")
            if is_dump:
                return 2

    packets = load_packets(args.packets) if args.packets else [b"\x00" * 64]
    template = program if program is not None else vliw
    setup = _load_map_setup(args, template)
    maps_oracle = MapStore(*setup) if args.engine in ("oracle", "both") else None
    maps_vliw = MapStore(*setup) if args.engine in ("vliw", "both") else None

    status = 0
    for i, data in enumerate(packets):
        line = {"packet": i}
        o = v = None
        if args.engine in ("oracle", "both"):
            o, _ = exec_sequential(program, PacketContext(data, args.head_room,
                                                          args.port),
                                   maps_oracle, limits)
            line["oracle"] = o.summary()
        if args.engine in ("vliw", "both"):
            rep, _ = exec_vliw(vliw, PacketContext(data, args.head_room,
                                                   args.port),
                               maps_vliw, limits, trace=args.trace)
            v = rep.result
            line["vliw"] = rep.as_dict()
            if args.trace:
                for t in rep.trace_lines:
                    print(t)
        if args.engine == "both":
            ok, detail = compare_results(o, v)
            line["equivalent"] = ok
            line["detail"] = detail
            if not ok:
                status = 2
        if (o and o.trapped) or (v and v.trapped):
            status = max(status, 2)
        if args.report == "json":
            print(json.dumps(line))
        else:
            parts = [f"packet {i}:"]
            if o is not None:
                parts.append(f"oracle={o.action_name}({o.code})")
            if v is not None:
                parts.append(f"vliw={v.action_name}({v.code}) "
                             f"cycles={line['vliw']['cycles']} "
                             f"ipc={line['vliw']['dynamic_ipc']}")
            if args.engine == "both":
                parts.append("EQUIVALENT" if line["equivalent"]
                             else f"MISMATCH ({line['detail']})")
            print(" ".join(parts))
    return status


def cmd_fuzz(args) -> int:
    passes = _pass_toggles(args)
    summary = fuzz(args.iterations, seed=args.seed, lanes=args.lanes,
                   passes=passes,
                   enable_code_motion=not args.no_code_motion,
                   minimize_failures=not args.no_minimize,
                   progress=args.progress)
    print(f"{summary.iterations} cases in {summary.elapsed:.1f}s: "
          f"{len(summary.divergences)} divergences")
    for d in summary.divergences:
        print(f"seed {d.case.seed}: {d.detail}")
        if d.minimized:
            print("  minimized reproducer:")
            for line in d.minimized.splitlines():
                print(f"    {line}")
    if args.failures and summary.divergences:
        with open(args.failures, "w") as fh:
            json.dump([{"seed": d.case.seed, "detail": d.detail,
                        "program": d.case.program_text,
                        "packet": d.case.packet_hex,
                        "ingress": d.case.ingress_port,
                        "maps": d.case.map_config,
                        "minimized": d.minimized}
                       for d in summary.divergences], fh, indent=2)
        print(f"failing cases written to {args.failures}")
    return 0 if summary.ok else 2


def cmd_report(args) -> int:
    names = args.programs or None
    rows = report_reduction(names, lanes=args.lanes, sweep=not args.no_sweep)
    if args.report == "json":
        print(json.dumps(reduction_table_json(rows), indent=2))
    else:
        print(reduction_table_text(rows), end="")
    return 0


def cmd_disasm(args) -> int:
    program = load_program(args.input)
    wire = encode(program) if args.encode else None
    print(format_asm(program), end="")
    if wire is not None:
        print(wire.hex())
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="xvliw",
        description="compile packet-processing bytecode to multi-lane "
                    "schedules, simulate them cycle by cycle, and check "
                    "them against a sequential interpreter")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile to a schedule")
    c.add_argument("input", help="assembly file, .bin bytecode, or corpus:<name>")
    c.add_argument("--lanes", type=int, default=4)
    c.add_argument("--dump-schedule", action="store_true")
    c.add_argument("--report", choices=("text", "json"), default="text")
    c.add_argument("-o", "--output", help="write the schedule dump here")
    c.add_argument("--emit-asm", action="store_true",
                   help="print the parsed program back as assembly")
    c.add_argument("--dot", action="store_true",
                   help="print the control flow graph in dot format")
    _add_pass_flags(c)
    c.set_defaults(fn=cmd_compile)

    r = sub.add_parser("run", help="execute a program or schedule dump")
    r.add_argument("input", help="assembly, .bin, corpus:<name>, or .vliw dump")
    r.add_argument("--engine", choices=("oracle", "vliw", "both"),
                   default="both")
    r.add_argument("--packets", help="hex-per-line text or pcap file")
    r.add_argument("--maps", help="map configuration file")
    r.add_argument("--port", type=int, default=0, help="ingress port")
    r.add_argument("--head-room", type=int, default=64)
    r.add_argument("--lanes", type=int, default=4)
    r.add_argument("--trace", action="store_true",
                   help="print one line per executed row")
    r.add_argument("--report", choices=("text", "json"), default="text")
    r.add_argument("--max-instructions", type=_count, default=1_000_000)
    _add_pass_flags(r)
    r.set_defaults(fn=cmd_run)

    f = sub.add_parser("fuzz", help="differential fuzzing")
    f.add_argument("--iterations", type=_count, default=1000)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--lanes", type=int, default=4)
    f.add_argument("--failures", help="write failing cases to this JSON file")
    f.add_argument("--no-minimize", action="store_true")
    f.add_argument("--progress", type=_count, default=0,
                   help="print progress every N cases")
    _add_pass_flags(f)
    f.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("report", help="reduction and lane-sweep tables")
    p.add_argument("programs", nargs="*",
                   help="corpus entries (default: all)")
    p.add_argument("--lanes", type=int, default=4)
    p.add_argument("--no-sweep", action="store_true")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_report)

    d = sub.add_parser("disasm", help="decode bytecode to assembly")
    d.add_argument("input")
    d.add_argument("--encode", action="store_true",
                   help="also print the round-tripped hex encoding")
    d.set_defaults(fn=cmd_disasm)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (XvliwError, OSError, UnicodeDecodeError) as exc:
        # the last: a text input (assembly, packets, maps, dump) not UTF-8
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
