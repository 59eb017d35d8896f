// The superblock engine's test oracle.
//
// ExecMode::Superblock fuses straight-line instruction runs and hoists
// coverage/instruction accounting to one update per span, so this suite
// proves — not assumes — that it is bit-identical to the reference
// engine (the decode-per-step semantic oracle):
//
//   - a seeded random-program differential fuzzer: every generated program
//     (branches, calls, faults, wild and mid-instruction jumps, syscalls)
//     must leave identical registers, memory digests, instruction counts,
//     coverage and fault messages on both engines — failures dump the
//     program as a reproducer;
//   - guest arithmetic that wraps identically on both engines.
//
// Whole tier-1 campaigns on both engines are test_matrix's rows; the
// mid-segment snapshot round trip and code-cache lifecycle tests live in
// test_exec_diff.cpp.
#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "test_helpers.hpp"
#include "util/strings.hpp"
#include "vm/machine.hpp"
#include "vm/memory.hpp"

namespace lfi {
namespace {

using isa::CodeBuilder;
using isa::Reg;

// ---- seeded random-program differential fuzzer ------------------------------

/// Deterministic random program over the full ISA surface: arithmetic,
/// compares, forward/backward branches, stack traffic, loads/stores to
/// valid and wild addresses, PLT calls (including an unresolvable one),
/// indirect jumps/calls (often mid-instruction), syscalls, kcalls, raw
/// RETs, HALT and ABORT. Faults are a feature: every termination mode
/// must be bit-identical across engines.
class ProgramGen {
 public:
  explicit ProgramGen(uint64_t seed) : rng_(seed) {}

  sso::SharedObject Build() {
    CodeBuilder b;
    b.reserve_data(128);
    b.reserve_tls(16);
    size_t helpers = 1 + U(3);
    for (size_t f = 0; f < helpers; ++f) {
      b.begin_function("f" + std::to_string(f));
      EmitBody(b, 8 + U(24), helpers);
      b.mov_ri(Reg::R0, static_cast<int64_t>(U(100)));
      b.leave_ret();
      b.end_function();
    }
    b.begin_function("main");
    EmitBody(b, 16 + U(32), helpers);
    b.mov_ri(Reg::R0, static_cast<int64_t>(U(100)));
    b.leave_ret();
    b.end_function();
    return sso::FromCodeUnit("fuzz.so", b.Finish());
  }

 private:
  uint64_t U(uint64_t n) { return rng_() % n; }
  Reg R() { return static_cast<Reg>(U(8)); }  // R0..R7 only: SP/BP stay sane

  int64_t RandomAddress() {
    // The fuzz module is loaded alone, so it is module 1 (kernel is 0).
    switch (U(6)) {
      case 0: return static_cast<int64_t>(vm::kStackBase + U(vm::kStackSize));
      case 1: return static_cast<int64_t>(vm::kHeapBase + U(1 << 12));
      case 2: return static_cast<int64_t>(vm::kTlsBase + U(16));
      case 3: return static_cast<int64_t>(vm::ModuleDataBase(1) + U(128));
      case 4: return static_cast<int64_t>(vm::ModuleCodeBase(1) + U(300));
      default: return static_cast<int64_t>(rng_());  // wild
    }
  }

  void EmitBody(CodeBuilder& b, size_t n, size_t helpers) {
    std::vector<CodeBuilder::Label> labels;
    size_t nlabels = 2 + n / 8;
    for (size_t i = 0; i < nlabels; ++i) labels.push_back(b.new_label());
    size_t bound = 0;
    auto any_label = [&] { return labels[U(labels.size())]; };
    for (size_t i = 0; i < n; ++i) {
      if (bound < labels.size() && U(4) == 0) b.bind(labels[bound++]);
      switch (U(24)) {
        case 0: b.add_rr(R(), R()); break;
        case 1: b.sub_rr(R(), R()); break;
        case 2: b.mul_rr(R(), R()); break;
        case 3: b.xor_rr(R(), R()); break;
        case 4: b.add_ri(R(), static_cast<int64_t>(U(1000)) - 500); break;
        case 5: b.and_ri(R(), static_cast<int64_t>(U(255))); break;
        case 6: b.neg(R()); break;
        case 7: b.not_(R()); break;
        case 8: b.mov_rr(R(), R()); break;
        case 9:
          b.mov_ri(R(), U(3) == 0 ? RandomAddress()
                                  : static_cast<int64_t>(U(1000)));
          break;
        case 10: b.cmp_rr(R(), R()); break;
        case 11: b.cmp_ri(R(), static_cast<int64_t>(U(10))); break;
        case 12: {  // conditional branch, forward or backward
          CodeBuilder::Label l = any_label();
          switch (U(6)) {
            case 0: b.je(l); break;
            case 1: b.jne(l); break;
            case 2: b.jlt(l); break;
            case 3: b.jle(l); break;
            case 4: b.jgt(l); break;
            default: b.jge(l); break;
          }
          break;
        }
        case 13:
          if (U(3) == 0) b.jmp(any_label());
          else b.cmp_ri(R(), static_cast<int64_t>(U(5)));
          break;
        case 14: b.load(R(), R(), static_cast<int32_t>(U(64)) - 8); break;
        case 15: b.store(R(), static_cast<int32_t>(U(64)) - 8, R()); break;
        case 16:
          b.store_i(R(), static_cast<int32_t>(U(64)),
                    static_cast<int64_t>(U(1 << 16)));
          break;
        case 17:
          if (U(2) == 0) b.lea_data(R(), static_cast<int32_t>(U(120)));
          else b.lea_tls(R(), static_cast<int32_t>(U(16)));
          break;
        case 18: b.push(R()); break;
        case 19: b.pop(R()); break;
        case 20:
          switch (U(8)) {
            case 0: b.call_sym("absent_fn"); break;  // unresolved: SIGILL
            case 1: b.kcall(static_cast<uint16_t>(U(24))); break;
            case 2: b.syscall(static_cast<uint16_t>(U(40))); break;
            default:
              b.call_sym("f" + std::to_string(U(helpers)));
              break;
          }
          break;
        case 21: {  // indirect control, frequently mid-instruction
          Reg r = R();
          b.mov_ri(r, RandomAddress());
          if (U(2) == 0) b.jmp_ind(r);
          else b.call_ind(r);
          break;
        }
        case 22:
          if (U(4) == 0) b.ret();  // raw RET: pops whatever is on top
          else b.nop();
          break;
        default:
          if (U(16) == 0) b.abort();
          else if (U(16) == 0) b.halt();
          else b.lea(R(), R(), static_cast<int32_t>(U(64)) - 32);
          break;
      }
    }
    while (bound < labels.size()) b.bind(labels[bound++]);
  }

  std::mt19937_64 rng_;
};

struct FuzzOutcome {
  vm::RunOutcome run = vm::RunOutcome::AllExited;
  vm::ProcState state = vm::ProcState::Exited;
  int64_t exit_code = 0;
  vm::Signal signal = vm::Signal::None;
  std::string fault_message;
  uint64_t instructions = 0;
  uint64_t pc = 0;
  std::array<int64_t, isa::kNumRegs> regs = {};
  uint64_t mem_digest = 0;
  std::vector<std::vector<uint32_t>> coverage;

  bool operator==(const FuzzOutcome& o) const {
    return run == o.run && state == o.state && exit_code == o.exit_code &&
           signal == o.signal && fault_message == o.fault_message &&
           instructions == o.instructions && pc == o.pc && regs == o.regs &&
           mem_digest == o.mem_digest && coverage == o.coverage;
  }
};

uint64_t Fnv1a(const uint8_t* p, size_t n, uint64_t h) {
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Digest every writable byte the program can reach: stack, heap, TLS
/// (via the process's memory interface) and each module's data section.
uint64_t DigestMemory(vm::Machine& machine, vm::Process& proc) {
  uint64_t h = 1469598103934665603ull;
  uint8_t buf[4096];
  auto digest_range = [&](uint64_t base, uint64_t size) {
    for (uint64_t off = 0; off < size; off += sizeof(buf)) {
      uint64_t len = std::min<uint64_t>(sizeof(buf), size - off);
      if (proc.read_mem(base + off, buf, len)) h = Fnv1a(buf, len, h);
    }
  };
  digest_range(vm::kStackBase, vm::kStackSize);
  digest_range(vm::kHeapBase, proc.heap_bytes());
  digest_range(vm::kTlsBase, vm::kTlsSize);
  for (const auto& mod : machine.loader().modules()) {
    h = Fnv1a(mod->data_runtime.data(), mod->data_runtime.size(), h);
  }
  return h;
}

FuzzOutcome RunFuzzProgram(const sso::SharedObject& program,
                           vm::ExecMode mode) {
  vm::Machine machine;
  machine.SetExecMode(mode);
  machine.Load(program).value();
  vm::CoverageTracker* cov = machine.EnableCoverage();
  FuzzOutcome out;
  auto pid = machine.CreateProcess("main");
  EXPECT_TRUE(pid.ok());
  if (!pid.ok()) return out;
  out.run = machine.Run(50'000);
  vm::Process& proc = *machine.process(pid.value());
  out.state = proc.state();
  out.exit_code = proc.exit_code();
  out.signal = proc.signal();
  out.fault_message = proc.fault_message();
  out.instructions = proc.instructions();
  out.pc = proc.pc();
  for (int r = 0; r < isa::kNumRegs; ++r) {
    out.regs[r] = proc.reg(static_cast<Reg>(r));
  }
  out.mem_digest = DigestMemory(machine, proc);
  for (size_t m = 0; m < cov->module_count(); ++m) {
    out.coverage.push_back(cov->executed(m).ToOffsets());
  }
  return out;
}

/// Reproducer dump for a diverging program: seed, serialized object on
/// disk, and the full disassembly in the failure message.
std::string DumpProgram(const sso::SharedObject& so, uint64_t seed) {
  std::string path = "superblock-repro-" + std::to_string(seed) + ".sso";
  std::vector<uint8_t> bytes = so.Serialize();
  std::ofstream f(path, std::ios::binary);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  std::string out = "seed=" + std::to_string(seed) + " (written to " + path +
                    ")\n";
  auto dis = isa::Disassemble(so.code, 0, static_cast<uint32_t>(so.code.size()));
  if (dis.ok()) {
    for (const isa::Instr& ins : dis.value()) {
      out += Format("%5u: %s\n", ins.offset, ins.ToString().c_str());
    }
  }
  return out;
}

TEST(SuperblockFuzz, RandomProgramsIdenticalAcrossEngines) {
  int divergences = 0;
  for (uint64_t seed = 1; seed <= 200 && divergences < 3; ++seed) {
    sso::SharedObject program = ProgramGen(seed).Build();
    FuzzOutcome ref = RunFuzzProgram(program, vm::ExecMode::Reference);
    FuzzOutcome sb = RunFuzzProgram(program, vm::ExecMode::Superblock);
    if (sb == ref) continue;
    ++divergences;
    SCOPED_TRACE(DumpProgram(program, seed));
    EXPECT_EQ(sb.run, ref.run);
    EXPECT_EQ(sb.state, ref.state);
    EXPECT_EQ(sb.exit_code, ref.exit_code);
    EXPECT_EQ(sb.signal, ref.signal);
    EXPECT_EQ(sb.fault_message, ref.fault_message);
    EXPECT_EQ(sb.instructions, ref.instructions);
    EXPECT_EQ(sb.pc, ref.pc);
    EXPECT_EQ(sb.regs, ref.regs);
    EXPECT_EQ(sb.mem_digest, ref.mem_digest);
    EXPECT_EQ(sb.coverage, ref.coverage);
  }
  EXPECT_EQ(divergences, 0);
}

// ---- guest arithmetic --------------------------------------------------------

/// Guest arithmetic wraps two's-complement, and the host computes it
/// unsigned: a MUL_RI / ADD_RR / SUB_RR / NEG past the int64 limits (and a
/// CMP whose difference wraps) must give the same wrapped result on both
/// engines without being signed overflow in the host — the sanitize job
/// runs this suite under UBSan.
TEST(GuestArithmetic, WrapsIdenticallyOnBothEngines) {
  constexpr int64_t kMax = INT64_MAX;
  constexpr int64_t kMin = INT64_MIN;
  auto build = [&] {
    CodeBuilder b;
    b.begin_function("main");
    b.mov_ri(Reg::R1, kMax);
    b.mul_ri(Reg::R1, 3);           // MUL_RI wraps
    b.mov_ri(Reg::R2, kMax);
    b.add_rr(Reg::R1, Reg::R2);     // ADD_RR wraps
    b.mov_ri(Reg::R3, kMin);
    b.neg(Reg::R3);                 // -INT64_MIN wraps to itself
    b.sub_rr(Reg::R1, Reg::R3);     // SUB_RR wraps
    b.mov_ri(Reg::R4, kMin);
    b.mul_rr(Reg::R4, Reg::R4);     // MUL_RR wraps to 0
    b.add_rr(Reg::R1, Reg::R4);
    b.mov_rr(Reg::R0, Reg::R1);
    // INT64_MIN - 1 wraps to INT64_MAX: the flag is +1, so JLE falls
    // through and the marker bit is added.
    b.cmp_ri(Reg::R3, 1);
    CodeBuilder::Label skip = b.new_label();
    b.jle(skip);
    b.add_ri(Reg::R0, 1);
    b.bind(skip);
    b.leave_ret();
    b.end_function();
    return sso::FromCodeUnit("wrap.so", b.Finish());
  };
  uint64_t expected = static_cast<uint64_t>(kMax) * 3;
  expected += static_cast<uint64_t>(kMax);
  expected -= static_cast<uint64_t>(kMin);
  expected += 1;
  for (vm::ExecMode mode : {vm::ExecMode::Reference, vm::ExecMode::Superblock}) {
    SCOPED_TRACE(vm::ExecModeName(mode));
    vm::Machine machine;
    machine.SetExecMode(mode);
    machine.Load(build()).value();
    test::RunResult r = test::RunEntry(machine, "main");
    ASSERT_EQ(r.state, vm::ProcState::Exited) << r.fault;
    EXPECT_EQ(r.exit_code, static_cast<int64_t>(expected));
  }
}

}  // namespace
}  // namespace lfi
