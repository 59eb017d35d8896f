#include "vm/code_cache.hpp"

namespace lfi::vm {

void CodeCache::EnsureModule(size_t module_index,
                             const sso::SharedObject& object) {
  if (module_index >= modules_.size()) modules_.resize(module_index + 1);
  ModuleStream& ms = modules_[module_index];
  const std::vector<uint8_t>& code = object.code;
  if (!ms.slot_of_offset.empty() || code.empty()) return;  // already built
  ms.slot_of_offset.assign(code.size(), kNoSlot);
  uint32_t at = 0;
  while (at < code.size()) {
    auto ins = isa::DecodeOne(code, at);
    // Stop at the first undecodable byte: those offsets keep kNoSlot and
    // the VM's DecodeOne fallback reproduces the exact fault on execution.
    if (!ins.ok()) break;
    ms.slot_of_offset[at] = static_cast<uint32_t>(ms.instrs.size());
    at += ins.value().size;
    ms.instrs.push_back(std::move(ins).take());
  }

  // Instruction-start bit per byte offset, CoverageBitmap word layout, and
  // the slot each direct branch or call lands on (see ModuleStream).
  ms.start_bits.assign((code.size() + 63) / 64, 0);
  for (isa::Instr& ins : ms.instrs) {
    ms.start_bits[ins.offset >> 6] |= uint64_t{1} << (ins.offset & 63);
    if ((ins.is_branch() && ins.op != isa::Opcode::JMP_IND) ||
        ins.op == isa::Opcode::CALL) {
      ins.imm = ins.rel_target() < code.size()
                    ? ms.slot_of_offset[ins.rel_target()]
                    : kNoSlot;
    }
  }
}

}  // namespace lfi::vm
