#include "apps/seu_guest.hpp"

#include <memory>
#include <utility>

#include "isa/harden.hpp"

namespace lfi::apps {

using isa::CodeBuilder;
using isa::Reg;

namespace {

/// Long enough that sampled flip instants land across warm loop state,
/// short enough that a few hundred flip scenarios stay instant.
constexpr int64_t kIterations = 400;
constexpr int64_t kSeed = 0x243F6A8885A308D3ll;

/// x' = mix(x, i): an LCG-style full-width mix. Args on the stack, result
/// in R0; clobbers only R0/R6/R7, so every variant's live registers
/// survive the call.
void EmitMix(CodeBuilder& b, CodeBuilder::Label entry) {
  b.bind(entry);
  b.begin_function("seu_mix", /*exported=*/false);
  b.load_arg(Reg::R6, 0);  // x
  b.load_arg(Reg::R7, 1);  // i
  b.mul_ri(Reg::R6, 0x5851F42D4C957F2Dll);
  b.mov_ri(Reg::R0, 0x14057B7EF767814Fll);
  b.mul_rr(Reg::R0, Reg::R7);
  b.add_rr(Reg::R0, Reg::R6);
  b.xor_ri(Reg::R0, static_cast<int64_t>(0x9E3779B97F4A7C15ull));
  b.leave_ret();
  b.end_function();
}

/// push args (i, then x — right to left), call, clean up, result -> dst.
void EmitMixCall(CodeBuilder& b, CodeBuilder::Label mix, Reg x, Reg i,
                 Reg dst) {
  b.push(i);
  b.push(x);
  b.call(mix);
  b.add_ri(Reg::SP, 16);
  b.mov_rr(dst, Reg::R0);
}

/// Store the checksum, exit with a truncation of it. The 0xFFFC mask keeps
/// the exit code small and can never collide with kSeuDetectExitCode
/// (odd), so "detected" stays unambiguous.
void EmitEpilogue(CodeBuilder& b, uint32_t slot, Reg result, Reg scratch) {
  b.lea_data(scratch, static_cast<int32_t>(slot));
  b.store(scratch, 0, result);
  b.mov_rr(Reg::R0, result);
  b.and_ri(Reg::R0, 0xFFFC);
  b.halt();
}

isa::CodeUnit BuildNoneUnit() {
  CodeBuilder b;
  uint32_t slot = b.reserve_data(8);
  CodeBuilder::Label mix = b.new_label();
  b.begin_function("main");
  b.mov_ri(Reg::R1, kSeed);
  b.mov_ri(Reg::R2, 0);
  b.mov_ri(Reg::R3, kIterations);
  // Top-tested loop: the head block opens with its own CMP, so the CFCSS
  // pass can prove flags dead at the join and place a check there.
  CodeBuilder::Label head = b.new_label();
  CodeBuilder::Label done = b.new_label();
  b.bind(head);
  b.cmp_rr(Reg::R2, Reg::R3);
  b.jge(done);
  EmitMixCall(b, mix, Reg::R1, Reg::R2, Reg::R1);
  b.add_ri(Reg::R2, 1);
  b.jmp(head);
  b.bind(done);
  EmitEpilogue(b, slot, Reg::R1, Reg::R4);
  b.end_function();
  EmitMix(b, mix);
  return b.Finish();
}

isa::CodeUnit BuildDwcUnit() {
  CodeBuilder b;
  uint32_t slot = b.reserve_data(8);
  CodeBuilder::Label mix = b.new_label();
  b.begin_function("main");
  CodeBuilder::Label detect = b.new_label();
  isa::DwcEmitter d(b, {{Reg::R1, Reg::R4}, {Reg::R2, Reg::R5}}, detect);
  d.mov_ri(Reg::R1, kSeed);
  d.mov_ri(Reg::R2, 0);
  b.mov_ri(Reg::R3, kIterations);
  CodeBuilder::Label head = b.new_label();
  CodeBuilder::Label done = b.new_label();
  b.bind(head);
  b.cmp_rr(Reg::R2, Reg::R3);
  b.jge(done);
  // Both copies recompute independently; a flip in either accumulator,
  // counter, or one call's transient state diverges the pair.
  EmitMixCall(b, mix, Reg::R1, Reg::R2, Reg::R1);
  EmitMixCall(b, mix, Reg::R4, Reg::R5, Reg::R4);
  d.add_ri(Reg::R2, 1);
  d.check(Reg::R1);
  d.check(Reg::R2);
  b.jmp(head);
  b.bind(done);
  d.check(Reg::R1);
  EmitEpilogue(b, slot, Reg::R1, Reg::R6);
  b.bind(detect);
  b.mov_ri(Reg::R0, isa::kSeuDetectExitCode);
  b.halt();
  b.end_function();
  EmitMix(b, mix);
  return b.Finish();
}

isa::CodeUnit BuildTmrUnit() {
  CodeBuilder b;
  uint32_t slot = b.reserve_data(8);
  CodeBuilder::Label mix = b.new_label();
  b.begin_function("main");
  b.mov_ri(Reg::R1, kSeed);
  b.mov_rr(Reg::R4, Reg::R1);
  b.mov_rr(Reg::R5, Reg::R1);
  b.mov_ri(Reg::R2, 0);
  b.mov_ri(Reg::R3, kIterations);
  CodeBuilder::Label head = b.new_label();
  CodeBuilder::Label done = b.new_label();
  b.bind(head);
  b.cmp_rr(Reg::R2, Reg::R3);
  b.jge(done);
  // Vote first (repairing any flip since the last round), then advance
  // each copy independently so one corrupted computation is outvoted.
  isa::EmitTmrVote(b, Reg::R1, Reg::R4, Reg::R5, Reg::R6);
  EmitMixCall(b, mix, Reg::R1, Reg::R2, Reg::R1);
  EmitMixCall(b, mix, Reg::R4, Reg::R2, Reg::R4);
  EmitMixCall(b, mix, Reg::R5, Reg::R2, Reg::R5);
  b.add_ri(Reg::R2, 1);
  b.jmp(head);
  b.bind(done);
  isa::EmitTmrVote(b, Reg::R1, Reg::R4, Reg::R5, Reg::R6);
  EmitEpilogue(b, slot, Reg::R1, Reg::R6);
  b.end_function();
  EmitMix(b, mix);
  return b.Finish();
}

}  // namespace

const char* HardeningModeName(HardeningMode mode) {
  switch (mode) {
    case HardeningMode::None: return "none";
    case HardeningMode::Dwc: return "dwc";
    case HardeningMode::Cfcss: return "cfcss";
    case HardeningMode::Tmr: return "tmr";
  }
  return "?";
}

Result<sso::SharedObject> BuildSeuGuest(HardeningMode mode) {
  isa::CodeUnit unit;
  switch (mode) {
    case HardeningMode::None:
      unit = BuildNoneUnit();
      break;
    case HardeningMode::Dwc:
      unit = BuildDwcUnit();
      break;
    case HardeningMode::Tmr:
      unit = BuildTmrUnit();
      break;
    case HardeningMode::Cfcss: {
      auto hardened = isa::ApplyCfcss(BuildNoneUnit());
      if (!hardened.ok()) return Err(hardened.error());
      unit = std::move(hardened.value());
      break;
    }
  }
  return sso::FromCodeUnit(kSeuGuestModule, std::move(unit));
}

std::function<void(vm::Machine&)> SeuGuestMachineSetup(HardeningMode mode) {
  auto built = BuildSeuGuest(mode);
  if (!built.ok()) {
    // Unreachable for the shipped variants; surface as a SetupError (the
    // entry symbol will not resolve) instead of crashing the campaign.
    return [](vm::Machine&) {};
  }
  auto guest = std::make_shared<sso::SharedObject>(std::move(built.value()));
  return [guest](vm::Machine& machine) { machine.Load(*guest).value(); };
}

}  // namespace lfi::apps
