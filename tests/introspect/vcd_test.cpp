// VcdWriter / SignalTap: golden-file rendering (the determinism the
// docs/observability.md workflow depends on — no date stamp, sorted scopes,
// deduped values), width masking, and the stage-legend bookkeeping.
#include "introspect/vcd.hpp"

#include <gtest/gtest.h>

#include "introspect/signal_tap.hpp"

namespace csfma {
namespace {

// Byte-exact golden render: a 1-bit clock and a scoped 8-bit bus, with a
// deduplicated repeat in the middle.  Any change to the header layout, id
// assignment, scope nesting or value tokens must be intentional enough to
// update this string.
TEST(VcdWriter, GoldenRender) {
  VcdWriter w;
  w.comment("legend");
  const int clk = w.declare("clk", 1);
  const int bus = w.declare("top.alu.bus", 8);
  w.change_u64(clk, 1);
  w.change_u64(bus, 0xA5);
  w.advance_to(1);
  w.change_u64(clk, 0);
  w.change_u64(bus, 0xA5);  // unchanged: must be deduplicated
  w.advance_to(2);
  w.change_u64(bus, 3);

  const std::string golden =
      "$timescale 1ns $end\n"
      "$comment csfma signal-level introspection $end\n"
      "$comment legend $end\n"
      "$var wire 1 ! clk $end\n"
      "$scope module top $end\n"
      "$scope module alu $end\n"
      "$var wire 8 \" bus [7:0] $end\n"
      "$upscope $end\n"
      "$upscope $end\n"
      "$enddefinitions $end\n"
      "$dumpvars\n"
      "x!\n"
      "bx \"\n"
      "$end\n"
      "#0\n"
      "1!\n"
      "b10100101 \"\n"
      "#1\n"
      "0!\n"
      "#2\n"
      "b11 \"\n"
      "#3\n";
  EXPECT_EQ(w.render(), golden);
  // Rendering is a pure function: a second render is byte-identical.
  EXPECT_EQ(w.render(), golden);
}

TEST(VcdWriter, RedeclareReturnsSameSignal) {
  VcdWriter w;
  const int a = w.declare("x.y", 16);
  const int b = w.declare("x.y", 16);
  EXPECT_EQ(a, b);
}

TEST(VcdWriter, ValuesAreMaskedToDeclaredWidth) {
  VcdWriter w;
  const int s = w.declare("narrow", 4);
  w.change_u64(s, 0xFFF5);  // only the low 4 bits are the wire
  const std::string text = w.render();
  EXPECT_NE(text.find("b101 !"), std::string::npos);
  EXPECT_EQ(text.find("b1111111111110101"), std::string::npos);
}

TEST(VcdWriter, IdCodesCoverMoreThan94Signals) {
  VcdWriter w;
  for (int i = 0; i < 100; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    w.declare(name, 1);
  }
  const std::string text = w.render();
  // Signal 94 rolls over to a two-character id: digits (1, 0) in base 94
  // render as '"' then '!'.
  EXPECT_NE(text.find(" \"! s94 $end"), std::string::npos);
}

// SignalTap golden render: two stages of one watched op, checking the
// prefix scoping, the stage-id legend comments and the cycle axis.
TEST(SignalTap, GoldenRender) {
  SignalTap tap("u");
  tap.begin_op(7);
  tap.begin_stage("mul");
  tap.tap_u64("mul.x", 5, 4);
  tap.begin_stage("add");
  tap.tap_u64("add.y", 0xF, 4);

  const std::string golden =
      "$timescale 1ns $end\n"
      "$comment csfma signal-level introspection $end\n"
      "$comment stage 0 = mul $end\n"
      "$comment stage 1 = add $end\n"
      "$scope module u $end\n"
      "$scope module add $end\n"
      "$var wire 4 $ y [3:0] $end\n"
      "$upscope $end\n"
      "$scope module mul $end\n"
      "$var wire 4 # x [3:0] $end\n"
      "$upscope $end\n"
      "$var wire 64 ! op_index [63:0] $end\n"
      "$var wire 8 \" stage_id [7:0] $end\n"
      "$upscope $end\n"
      "$enddefinitions $end\n"
      "$dumpvars\n"
      "bx $\n"
      "bx #\n"
      "bx !\n"
      "bx \"\n"
      "$end\n"
      "#0\n"
      "b111 !\n"
      "#1\n"
      "b0 \"\n"
      "b101 #\n"
      "#2\n"
      "b1 \"\n"
      "b1111 $\n"
      "#3\n";
  EXPECT_EQ(tap.render(), golden);
}

TEST(SignalTap, StageIdsAreStablePerLabel) {
  SignalTap tap;
  tap.begin_op(0);
  tap.begin_stage("mul");
  tap.begin_stage("add");
  tap.begin_op(1);
  tap.begin_stage("mul");  // reused label: no new legend comment
  const std::string text = tap.render();
  EXPECT_NE(text.find("$comment stage 0 = mul $end"), std::string::npos);
  EXPECT_NE(text.find("$comment stage 1 = add $end"), std::string::npos);
  EXPECT_EQ(text.find("stage 2 ="), std::string::npos);
  EXPECT_EQ(tap.cycle(), 4u);  // op0, mul, add, (idle)op1, mul
}

}  // namespace
}  // namespace csfma
