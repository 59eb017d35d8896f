// Decode-once instruction streams and their superblock partition (the
// superblock execution engine).
//
// Module text is immutable after Load, so the loader disassembles each
// module exactly once into a dense `std::vector<isa::Instr>` plus an
// offset -> slot index. The interpreter's fast paths then advance by slot
// instead of re-running `isa::DecodeOne` on every executed instruction;
// the slot -> offset direction (coverage recording, symbolization) is just
// `instrs[slot].offset`.
//
// On top of the stream, the same pass compiles a *superblock partition*:
// maximal straight-line slot runs delimited by exactly the leaders
// `analysis/cfg` uses (function entries, direct branch and call targets,
// the instruction after a terminator) — calls do not end superblocks, just
// as they do not end CFG basic blocks. Every slot belongs to exactly one
// superblock (test-enforced against per-function CFGs). The superblock
// engine uses the partition's companion `start_bits` — one bit per byte
// offset that begins an instruction — to record a whole executed span's
// coverage with a few word ORs instead of one bitmap store per
// instruction, and hoists instruction-count accounting the same way.
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

  /// One maximal straight-line run of slots: begins at a leader, ends at a
  /// terminator or just before the next leader.
  struct Superblock {
    uint32_t first_slot = 0;
    uint32_t slot_count = 0;
  };

  struct ModuleStream {
    /// Linear-sweep decode of the module text, in offset order.
    std::vector<isa::Instr> instrs;
    /// Byte offset -> slot in `instrs`; kNoSlot for mid-instruction bytes
    /// and for everything at/after the first undecodable byte.
    std::vector<uint32_t> slot_of_offset;
    /// The superblock partition, ascending by first_slot; superblocks
    /// tile `instrs` exactly (no gaps, no overlaps).
    std::vector<Superblock> superblocks;
    /// Slot -> index into `superblocks` (every slot maps into exactly one).
    std::vector<uint32_t> sb_of_slot;
    /// Bit per byte offset that begins a decoded instruction, in
    /// CoverageBitmap word layout. Executing slots [s, e] covers exactly
    /// start_bits masked to [instrs[s].offset, instrs[e].offset] — the
    /// superblock engine's one-OR-per-span coverage update.
    std::vector<uint64_t> start_bits;

    /// Instructions from `slot` to the end of its superblock, inclusive.
    uint32_t run_length(uint32_t slot) const {
      const Superblock& sb = superblocks[sb_of_slot[slot]];
      return sb.first_slot + sb.slot_count - slot;
    }
  };

  /// Predecode `object`'s text for the module at `module_index` and build
  /// its superblock partition (no-op if already built — module text never
  /// changes after Load).
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
