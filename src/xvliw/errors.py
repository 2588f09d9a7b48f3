"""Exception types shared across the toolkit."""

import copyreg


class XvliwError(Exception):
    """Base class for all toolkit errors."""

    def __reduce__(self):
        # ``args`` holds the formatted message, which a subclass constructor
        # taking other arguments cannot rebuild from: create without it
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__ or None


# --- decode / encode ---

class DecodeError(XvliwError):
    pass


class UnknownOpcode(DecodeError):
    def __init__(self, index, opcode):
        super().__init__(f"unknown opcode 0x{opcode:02x} at instruction {index}")


class TruncatedStream(DecodeError):
    def __init__(self, nbytes):
        super().__init__(f"byte stream length {nbytes} is not a whole number of instructions")


class DanglingLddwSecondHalf(DecodeError):
    def __init__(self, index):
        super().__init__(f"lddw at instruction {index} has no valid second half")


class UnencodableInstruction(XvliwError):
    pass


# --- assembly front end ---

class AsmError(XvliwError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")


class AsmSyntaxError(AsmError):
    pass


class UnknownMnemonic(AsmError):
    pass


class UndefinedLabel(AsmError):
    pass


# --- program validation / analysis ---

class ProgramError(XvliwError):
    pass


class UnreachableTarget(ProgramError):
    """Branch into the middle of a LoadImm64 pair."""


# --- execution ---

class VmTrap(XvliwError):
    """Run-time trap; execution ends with action ABORTED."""


class MemoryTrap(VmTrap):
    def __init__(self, pc, addr, width, why):
        super().__init__(f"pc {pc}: bad {width}B access at 0x{addr:x} ({why})")


class UnknownHelper(VmTrap):
    def __init__(self, helper_id):
        super().__init__(f"unknown helper id {helper_id}")


class BadHelperArgs(VmTrap):
    def __init__(self, name, why):
        super().__init__(f"helper {name}: {why}")


class InstructionLimitExceeded(VmTrap):
    pass


class RowConflict(VmTrap):
    """Two lanes of one row committed conflicting writes."""


# --- compilation ---

class CompileError(XvliwError):
    pass
