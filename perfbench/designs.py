"""Designs the benchmark feeds the simulator, and independent models of them.

Everything here is written for the benchmark: the simulator only ever
sees the generated source text and the stimulus.  The Python models are
hand-written from the Verilog below, never derived from the compiler
under test, so they can serve as references for its outputs.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

# A private copy of the three-module counter design (adder -> counter ->
# top): two counters stepping by 1 and 3.  The server workload opens its
# sessions on this text.
COUNTER_SRC = """
module adder #(parameter W = 8) (
  input clk,
  input [W-1:0] a,
  input [W-1:0] b,
  output [W-1:0] sum
);
  assign sum = a + b;
endmodule

module counter #(parameter W = 8) (
  input clk,
  input rst,
  input [W-1:0] step,
  output [W-1:0] count
);
  reg [W-1:0] count_q;
  wire [W-1:0] next;
  adder #(.W(W)) u_add (.clk(clk), .a(count_q), .b(step), .sum(next));
  assign count = count_q;
  always @(posedge clk) begin
    if (rst)
      count_q <= 0;
    else
      count_q <= next;
  end
endmodule

module top (
  input clk,
  input rst,
  output [7:0] c0,
  output [7:0] c1
);
  counter #(.W(8)) u0 (.clk(clk), .rst(rst), .step(8'd1), .count(c0));
  counter #(.W(8)) u1 (.clk(clk), .rst(rst), .step(8'd3), .count(c1));
endmodule
"""

COUNTER_TOP_HANDLE = "stage2"  # the session's stage handle for `top`
COUNTER_STEPS = (1, 3)
COUNTER_RESET_CYCLES = 2
_ADDER_LINE = "  assign sum = a + b;"


def counter_edit(bias: int) -> str:
    """The counter design with every adder adding ``bias`` more."""
    return COUNTER_SRC.replace(
        _ADDER_LINE, f"  assign sum = a + b + 8'd{bias};"
    )


def counter_expected(cycles: int, bias: int = 0) -> Dict[str, int]:
    """Closed-form outputs after ``cycles`` cycles from power-on.

    Reset holds the counters at 0 for the first reset cycles; after
    that each counter adds ``step + bias`` per cycle (mod 256).  A
    reload replays the whole history under the edited adder, so the
    closed form uses the current ``bias`` for every counted cycle.
    """
    live = max(cycles - COUNTER_RESET_CYCLES, 0)
    return {
        f"c{i}": (live * (step + bias)) & 0xFF
        for i, step in enumerate(COUNTER_STEPS)
    }


# ---------------------------------------------------------------------------
# CGRA-style array: ROWS x COLS instances of one small processing element
# ---------------------------------------------------------------------------

ROWS = 8
COLS = 8
CGRA_TOP = f"cgra_{ROWS}x{COLS}"
CGRA_RESET_CYCLES = 2
CGRA_CFG_START = CGRA_RESET_CYCLES
CGRA_CFG_END = CGRA_CFG_START + ROWS * COLS  # one shift per element
MASK16 = 0xFFFF

_PE_TEMPLATE = """
module pe (
  input clk,
  input rst,
  input cfg_en,
  input [7:0] cfg_in,
  input [15:0] in_n,
  input [15:0] in_w,
  output [7:0] cfg_out,
  output [15:0] out
);
  reg [7:0] cfg_q;
  reg [15:0] acc_q;
  reg [15:0] out_q;
  reg [15:0] alu;
  wire [15:0] a;
  wire [15:0] b;
  assign a = cfg_q[1] ? (cfg_q[0] ? {{8'd0, cfg_q}} : acc_q)
                      : (cfg_q[0] ? in_w : in_n);
  assign b = cfg_q[5] ? in_w : in_n;
  always @(*) begin
    case (cfg_q[4:2])
      3'd0: alu = a + b;
      3'd1: alu = a - b;
      3'd2: alu = a ^ b;
      3'd3: alu = a & b;
      3'd4: alu = a | b;
      3'd5: alu = (a << 1) + b;
      3'd6: alu = a + 16'd{k0};
      default: alu = (b >> 1) ^ 16'd{k1};
    endcase
  end
  always @(posedge clk) begin
    if (rst) begin
      cfg_q <= 8'd0;
      acc_q <= 16'd0;
      out_q <= 16'd0;
    end else if (cfg_en) begin
      cfg_q <= cfg_in;
    end else begin
      out_q <= alu;
      if (cfg_q[6])
        acc_q <= acc_q ^ alu;
      else
        acc_q <= acc_q + alu;
    end
  end
  assign cfg_out = cfg_q;
  assign out = out_q;
endmodule
"""


def _cgra_top() -> str:
    lines: List[str] = [f"module {CGRA_TOP} ("]
    lines += [
        "  input clk,",
        "  input rst,",
        "  input cfg_en,",
        "  input [7:0] cfg_in,",
        "  input [15:0] din_n,",
        "  input [15:0] din_w,",
    ]
    lines += [f"  output [15:0] e_{r}," for r in range(ROWS)]
    lines += [f"  output [15:0] s_{c}," for c in range(COLS)]
    lines += ["  output [7:0] cfg_tail", ");"]
    for r in range(ROWS):
        for c in range(COLS):
            lines.append(f"  wire [15:0] o_{r}_{c};")
            lines.append(f"  wire [7:0] k_{r}_{c};")
    for r in range(ROWS):
        for c in range(COLS):
            index = r * COLS + c
            if index == 0:
                chain = "cfg_in"
            else:
                pr, pc = divmod(index - 1, COLS)
                chain = f"k_{pr}_{pc}"
            north = "din_n" if r == 0 else f"o_{r - 1}_{c}"
            west = "din_w" if c == 0 else f"o_{r}_{c - 1}"
            lines.append(
                f"  pe p_{r}_{c} (.clk(clk), .rst(rst), .cfg_en(cfg_en),"
                f" .cfg_in({chain}), .in_n({north}), .in_w({west}),"
                f" .cfg_out(k_{r}_{c}), .out(o_{r}_{c}));"
            )
    for r in range(ROWS):
        lines.append(f"  assign e_{r} = o_{r}_{COLS - 1};")
    for c in range(COLS):
        lines.append(f"  assign s_{c} = o_{ROWS - 1}_{c};")
    lines.append(f"  assign cfg_tail = k_{ROWS - 1}_{COLS - 1};")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def cgra_source(k0: int, k1: int) -> str:
    """The whole array; ``k0``/``k1`` are the two constants edits change."""
    return _PE_TEMPLATE.format(k0=k0, k1=k1) + "\n" + _cgra_top()


def cgra_configs(seed: int) -> List[int]:
    """Per-element config bytes (element index = row * COLS + col)."""
    rng = random.Random(seed * 7919 + 17)
    return [rng.randrange(256) for _ in range(ROWS * COLS)]


def cgra_inputs(cycle: int, configs: List[int]) -> Dict[str, int]:
    """Stimulus at an absolute cycle: a pure function of the cycle, so a
    replay from any checkpoint drives exactly what the live run drove."""
    cfg_en = CGRA_CFG_START <= cycle < CGRA_CFG_END
    # The shift chain moves one element per cycle, so the value fed
    # first ends up in the last element.
    cfg_in = configs[CGRA_CFG_END - 1 - cycle] if cfg_en else 0
    return {
        "rst": int(cycle < CGRA_RESET_CYCLES),
        "cfg_en": int(cfg_en),
        "cfg_in": cfg_in,
        "din_n": (cycle * 40503 + 0x1234) & MASK16,
        "din_w": (cycle * 9973 ^ 0xBEEF) & MASK16,
    }


class CGRAModel:
    """Cycle model of the array, written from the Verilog above.

    State per element: (cfg, acc, out).  Every link between elements
    is registered, so each cycle's next state depends only on the
    current state and the top-level inputs.
    """

    def __init__(self, configs: List[int], k0: int, k1: int):
        self.configs = configs
        self.k0 = k0 & MASK16
        self.k1 = k1 & MASK16
        count = ROWS * COLS
        self.cfg = [0] * count
        self.acc = [0] * count
        self.out = [0] * count
        self.cycle = 0

    def _alu(self, cfg: int, acc: int, north: int, west: int) -> int:
        if cfg & 2:
            a = cfg if cfg & 1 else acc
        else:
            a = west if cfg & 1 else north
        b = west if cfg & 0x20 else north
        op = (cfg >> 2) & 7
        if op == 0:
            value = a + b
        elif op == 1:
            value = a - b
        elif op == 2:
            value = a ^ b
        elif op == 3:
            value = a & b
        elif op == 4:
            value = a | b
        elif op == 5:
            value = (a << 1) + b
        elif op == 6:
            value = a + self.k0
        else:
            value = (b >> 1) ^ self.k1
        return value & MASK16

    def step(self) -> None:
        inputs = cgra_inputs(self.cycle, self.configs)
        count = ROWS * COLS
        if inputs["rst"]:
            self.cfg = [0] * count
            self.acc = [0] * count
            self.out = [0] * count
        elif inputs["cfg_en"]:
            self.cfg = [inputs["cfg_in"]] + self.cfg[:-1]
        else:
            out = self.out
            new_out = [0] * count
            new_acc = [0] * count
            for r in range(ROWS):
                for c in range(COLS):
                    i = r * COLS + c
                    north = inputs["din_n"] if r == 0 else out[i - COLS]
                    west = inputs["din_w"] if c == 0 else out[i - 1]
                    cfg = self.cfg[i]
                    value = self._alu(cfg, self.acc[i], north, west)
                    new_out[i] = value
                    if cfg & 0x40:
                        new_acc[i] = self.acc[i] ^ value
                    else:
                        new_acc[i] = (self.acc[i] + value) & MASK16
            self.out = new_out
            self.acc = new_acc
        self.cycle += 1

    def run_to(self, cycle: int) -> None:
        while self.cycle < cycle:
            self.step()

    def outputs(self) -> Dict[str, int]:
        result = {f"e_{r}": self.out[r * COLS + COLS - 1] for r in range(ROWS)}
        for c in range(COLS):
            result[f"s_{c}"] = self.out[(ROWS - 1) * COLS + c]
        result["cfg_tail"] = self.cfg[-1]
        return result

    def registers(self) -> Dict[Tuple[int, int], Tuple[int, int, int]]:
        return {
            divmod(i, COLS): (self.cfg[i], self.acc[i], self.out[i])
            for i in range(ROWS * COLS)
        }
