// Decode-once instruction streams for the superblock execution engine.
//
// Module text is immutable after Load, so the loader disassembles each
// module exactly once into a dense `std::vector<isa::Instr>` plus an
// offset -> slot index. The interpreter's fast paths then advance by slot
// instead of re-running `isa::DecodeOne` on every executed instruction;
// the slot -> offset direction (coverage recording, symbolization) is just
// `instrs[slot].offset`. Slot i+1 always holds slot i's fall-through, so
// the engine needs no block partition: it runs fused segments from any
// slot until control diverges. The companion `start_bits` — one bit per
// byte offset that begins an instruction — lets it record a whole
// segment's coverage with one masked word OR (a loop only when the
// segment spans more than one 64-offset bitmap word) instead of one
// bitmap store per instruction. Every direct branch and call is resolved to its target
// slot once, so chasing one in-loop needs no offset lookup.
//
// The linear sweep stops at the first undecodable byte, and jump targets
// that land mid-instruction have no slot (`kNoSlot`): for both, the VM
// falls back to `isa::DecodeOne` at that pc so faults, error messages, and
// deliberately-weird control flow behave bit-identically to the reference
// decode-per-step path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "isa/isa.hpp"
#include "sso/sso.hpp"

namespace lfi::vm {

class CodeCache {
 public:
  /// slot_of_offset value for offsets that do not start an instruction.
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  struct ModuleStream {
    /// Linear-sweep decode of the module text, in offset order. Direct
    /// branches and calls (JMP, Jcc, CALL) encode no immediate, so their
    /// `imm` holds the slot they land on instead: kNoSlot for targets
    /// outside the decoded text or mid-instruction.
    std::vector<isa::Instr> instrs;
    /// Byte offset -> slot in `instrs`; kNoSlot for mid-instruction bytes
    /// and for everything at/after the first undecodable byte.
    std::vector<uint32_t> slot_of_offset;
    /// Bit per byte offset that begins a decoded instruction, in
    /// CoverageBitmap word layout. Executing slots [s, e] covers exactly
    /// start_bits masked to [instrs[s].offset, instrs[e].offset] — the
    /// superblock engine's one-OR-per-segment coverage update.
    std::vector<uint64_t> start_bits;
  };

  /// Predecode `object`'s text for the module at `module_index` (no-op if
  /// already built — module text never changes after Load).
  void EnsureModule(size_t module_index, const sso::SharedObject& object);

  /// The predecoded stream for a module, or nullptr if never built.
  const ModuleStream* stream(size_t module_index) const {
    return module_index < modules_.size() ? &modules_[module_index] : nullptr;
  }

  size_t module_count() const { return modules_.size(); }

 private:
  std::vector<ModuleStream> modules_;
};

}  // namespace lfi::vm
