"""Instruction-set cost model.

The operation vocabulary follows the paper's Table V: FMUL, FSUB, FNEG,
FADD, FMA, FMOV (plus MOV32 control).  Per-element costs:

* FLOPs: 1 per arithmetic op, 2 for FMA, 0 for moves (Table V convention);
* memory traffic: loads/stores of 4-byte fp32 operands per element,
  exactly as Table V charges them (e.g. FMUL: 2 loads + 1 store);
* cycles: vector (DSD) ops retire ``ceil(n / simd_width)`` element groups
  per instruction, one group per cycle — the §III-E.3 claim that a DSD
  instruction's throughput is constant and caching is not involved.
"""

from __future__ import annotations

import enum
import math


class Op(enum.Enum):
    """Operations the PE cost model recognizes."""

    FMUL = "fmul"
    FADD = "fadd"
    FSUB = "fsub"
    FNEG = "fneg"
    FMA = "fma"
    FMOV = "fmov"
    MOV32 = "mov32"  # control register write (switch advance etc.)


#: FLOPs per element (Table V column "FLOP").
OP_FLOPS: dict[Op, int] = {
    Op.FMUL: 1,
    Op.FADD: 1,
    Op.FSUB: 1,
    Op.FNEG: 1,
    Op.FMA: 2,
    Op.FMOV: 0,
    Op.MOV32: 0,
}

#: fp32 loads per element (Table V column "Memory traffic").
OP_MEM_LOADS: dict[Op, int] = {
    Op.FMUL: 2,
    Op.FADD: 2,
    Op.FSUB: 2,
    Op.FNEG: 1,
    Op.FMA: 3,
    Op.FMOV: 0,  # FMOV in Table V loads from fabric, stores to memory
    Op.MOV32: 0,
}

#: fp32 stores per element.
OP_MEM_STORES: dict[Op, int] = {
    Op.FMUL: 1,
    Op.FADD: 1,
    Op.FSUB: 1,
    Op.FNEG: 1,
    Op.FMA: 1,
    Op.FMOV: 1,
    Op.MOV32: 0,
}

#: fabric loads per element (Table V column "Fabric traffic").
OP_FABRIC_LOADS: dict[Op, int] = {
    Op.FMUL: 0,
    Op.FADD: 0,
    Op.FSUB: 0,
    Op.FNEG: 0,
    Op.FMA: 0,
    Op.FMOV: 1,
    Op.MOV32: 0,
}

#: Bytes per fp32 operand.
F32_BYTES = 4


def vector_cycles(num_elements: int, simd_width: int) -> int:
    """Cycles to retire a DSD vector op over ``num_elements`` elements."""
    if num_elements <= 0:
        return 0
    return math.ceil(num_elements / max(1, simd_width))
