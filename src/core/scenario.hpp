// The fault-scenario language (paper §4).
//
// A scenario ("faultload") is a set of <trigger, fault> tuples. Triggers
// fire on call counts, probabilistically, on every call, or rotating
// through a profile's error codes (the exhaustive generator); they can be
// conditioned on a partial stack trace. Faults set a return value, set
// errno, modify arguments in place, and decide whether the original
// function still runs. XML syntax follows the paper:
//
//   <plan seed="42">
//     <function name="readdir" inject="5" retval="0" errno="EBADF"
//               calloriginal="false">
//       <stacktrace>
//         <frame>0xb824490</frame>
//         <frame>refresh_files</frame>
//       </stacktrace>
//     </function>
//     <function name="read" inject="20" calloriginal="true">
//       <modify argument="3" op="sub" value="10" />
//     </function>
//   </plan>
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/result.hpp"

namespace lfi::core {

/// Highest argument index a <modify> may name. Arguments live at SP + 8*i
/// at stub entry, so a runaway index (or one wrapped through a narrowing
/// cast) would read far past any real frame; plans that need more than
/// this many arguments do not exist.
inline constexpr int kMaxModifyArgument = 255;

struct ArgModification {
  int argument = 0;  // 1-based, as in the paper's example
  enum class Op { Add, Sub, Set, And, Or, Xor };
  Op op = Op::Set;
  int64_t value = 0;

  int64_t Apply(int64_t current) const;
  bool operator==(const ArgModification&) const = default;
};

/// One backtrace frame condition: matches a hex address (0x...) or an
/// enclosing function symbol.
struct FrameCondition {
  std::optional<uint64_t> address;
  std::string symbol;

  bool operator==(const FrameCondition&) const = default;
};

struct FunctionTrigger {
  std::string function;

  enum class Mode {
    CallCount,    // fire on the inject-th call (1-based)
    Probability,  // fire with probability p on every call
    Always,       // fire on every call
    Rotate,       // fire on every call, cycling the profile's error codes
  };
  Mode mode = Mode::Always;
  uint64_t inject_call = 0;  // CallCount
  double probability = 0.0;  // Probability

  /// Explicit fault. When unset, the controller draws (retval, errno) from
  /// the function's fault profile (random / rotate scenarios).
  std::optional<int64_t> retval;
  std::optional<int32_t> errno_value;
  bool call_original = false;

  std::vector<FrameCondition> stacktrace;  // innermost-first, partial
  std::vector<ArgModification> modifications;

  /// Stop firing after this many injections; -1 = unlimited.
  int max_injections = -1;

  /// Field for field: equal trigger lists arm identical engines.
  bool operator==(const FunctionTrigger&) const = default;
};

/// One single-event upset: flip exactly one bit of one architectural word
/// at a precise machine-wide instruction instant. The hardware-style
/// companion to the paper's library-boundary faults — same plan/replay/
/// campaign machinery, different fault model. XML:
///
///   <seu target="reg" reg="R3" bit="17" at="12345" />
///   <seu target="stack" offset="4096" bit="5" at="9999" />
///   <seu target="data" module="app.so" offset="8" bit="0" at="5000"
///        wmodule="app.so" wbegin="0" wend="128" />
///
/// `at` counts total instructions executed machine-wide (all processes,
/// the deterministic round-robin schedule), so a flip lands at the same
/// architectural state in every engine, snapshot mode, and jobs count.
struct SeuFault {
  enum class Target {
    Reg,    // one bit of a register of process `pid`
    Stack,  // 64-bit word at stack-segment byte offset `offset`
    Heap,   // 64-bit word at heap-segment byte offset `offset`
    Data,   // 64-bit word at `module`'s data-section byte offset `offset`
  };
  Target target = Target::Reg;
  int reg = 0;          // Target::Reg: register index (R0..R7, SP, BP)
  uint64_t offset = 0;  // memory targets: segment-relative byte offset
  std::string module;   // Target::Data: module name
  int bit = 0;          // 0..63 within the 64-bit word / register
  uint64_t at_instruction = 0;  // machine-wide instant the flip lands
  int pid = 1;          // process whose register/stack/heap is hit
  /// Optional pc-window gate: the flip lands only if the target process's
  /// pc sits in [window_begin, window_end) of `window_module`'s code at
  /// the armed instant (module-relative offsets, end-exclusive).
  /// window_end == 0 means ungated.
  std::string window_module;
  uint64_t window_begin = 0;
  uint64_t window_end = 0;
};

const char* SeuTargetName(SeuFault::Target t);
std::optional<SeuFault::Target> SeuTargetFromName(std::string_view name);
/// Register naming for <seu reg="...">: R0..R7, SP, BP.
const char* SeuRegName(int reg);
std::optional<int> SeuRegFromName(std::string_view name);
inline constexpr int kSeuNumRegs = 10;

struct Plan {
  uint64_t seed = 1;  // drives probability triggers and random code picks
  std::vector<FunctionTrigger> triggers;
  std::vector<SeuFault> seus;

  std::string ToXml() const;
  static Result<Plan> FromXml(std::string_view xml);
};

/// The one plan-acceptance rule, whichever way a plan arrives: Plan::FromXml
/// runs it after parsing, and the fabric's wire decoder on every plan it
/// decodes (batch scenarios and result replays alike), so a worker never
/// runs a plan its own CLI would refuse. It checks each field's meaning
/// (ranges, a data flip's module), not its spelling, and only the fields
/// that matter for the trigger mode and SEU target. Errors keep FromXml's
/// wording.
Status ValidatePlan(const Plan& plan);

const char* ArgOpName(ArgModification::Op op);
std::optional<ArgModification::Op> ArgOpFromName(std::string_view name);

}  // namespace lfi::core
