#include "isa/harden.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace lfi::isa {

void EmitTmrVote(CodeBuilder& b, Reg dst, Reg copy1, Reg copy2, Reg scratch) {
  // maj(a,b,c) = (b & c) | (a & (b | c)); only MOV/AND/OR, so flags and
  // every register but the named four are untouched.
  b.mov_rr(scratch, copy1);
  b.and_rr(scratch, copy2);  // scratch = c1 & c2
  b.or_rr(copy1, copy2);     // copy1 = c1 | c2
  b.and_rr(copy1, dst);      // copy1 = dst & (c1 | c2)
  b.or_rr(copy1, scratch);   // copy1 = majority
  b.mov_rr(dst, copy1);
  b.mov_rr(copy2, copy1);
}

DwcEmitter::DwcEmitter(CodeBuilder& b, std::vector<std::pair<Reg, Reg>> pairs,
                       CodeBuilder::Label detect)
    : b_(b), pairs_(std::move(pairs)), detect_(detect) {}

Reg DwcEmitter::shadow(Reg r) const {
  for (const auto& [primary, dup] : pairs_) {
    if (primary == r) return dup;
  }
  return r;
}

void DwcEmitter::mov_ri(Reg a, int64_t imm) {
  b_.mov_ri(a, imm);
  b_.mov_ri(shadow(a), imm);
}
void DwcEmitter::add_ri(Reg a, int64_t imm) {
  b_.add_ri(a, imm);
  b_.add_ri(shadow(a), imm);
}
void DwcEmitter::check(Reg a) {
  b_.cmp_rr(a, shadow(a));
  b_.jne(detect_);
}

// -- CFCSS rewrite -----------------------------------------------------------

namespace {

struct Block {
  size_t first = 0;  // instr index of the block's first instruction
  size_t last = 0;   // instr index of the terminating/last instruction
  std::vector<size_t> preds;  // block ids within the same function
  std::vector<size_t> succs;
  bool branch_target = false;
  bool check = false;  // verify predecessors' signatures at entry
  int64_t sig = 0;
};

struct FnSpan {
  uint32_t begin = 0;
  uint32_t end = 0;
  size_t first_instr = 0;
  size_t end_instr = 0;  // exclusive
  bool instrument = false;
  std::vector<Block> blocks;
  std::map<size_t, size_t> block_of;  // entry instr index -> block id
};

/// How the first flags-relevant instruction of a block treats the CMP
/// flags. Calls, indirect jumps, returns, and kernel transfers count as
/// readers: we cannot see what runs next, so flags are conservatively
/// live and the block entry gets no (flag-clobbering) check.
enum class FlagsUse { Transparent, Kills, Reads };

bool ReadsOrUnknownFlags(Opcode op) {
  switch (op) {
    case Opcode::JE:
    case Opcode::JNE:
    case Opcode::JLT:
    case Opcode::JLE:
    case Opcode::JGT:
    case Opcode::JGE:
    case Opcode::CALL:
    case Opcode::CALL_SYM:
    case Opcode::CALL_IND:
    case Opcode::JMP_IND:
    case Opcode::RET:
    case Opcode::SYSCALL:
    case Opcode::KCALL:
      return true;
    default:
      return false;
  }
}

bool WritesFlags(Opcode op) {
  return op == Opcode::CMP_RR || op == Opcode::CMP_RI;
}

uint32_t SizeOf(Opcode op) { return static_cast<uint32_t>(EncodedSize(op)); }

/// Signature update: G := sig. push/lea_data/store_i/pop only — no flags,
/// no live registers beyond the saved R6.
uint32_t UpdateBlobSize() {
  return SizeOf(Opcode::PUSH) + SizeOf(Opcode::LEA_DATA) +
         SizeOf(Opcode::STORE_I) + SizeOf(Opcode::POP);
}

/// Check-and-update: load G, compare against each legal predecessor
/// signature, detect on no match, then store the block's own signature.
uint32_t CheckBlobSize(size_t preds) {
  return 2 * SizeOf(Opcode::PUSH) + SizeOf(Opcode::LEA_DATA) +
         SizeOf(Opcode::LOAD) +
         static_cast<uint32_t>(preds) *
             (SizeOf(Opcode::CMP_RI) + SizeOf(Opcode::JE)) +
         SizeOf(Opcode::JMP) + SizeOf(Opcode::STORE_I) +
         2 * SizeOf(Opcode::POP);
}

void EmitOne(Opcode op, Reg a, Reg b, int64_t imm, int32_t disp,
             std::vector<uint8_t>* out) {
  Instr ins;
  ins.op = op;
  ins.a = a;
  ins.b = b;
  ins.imm = imm;
  ins.disp = disp;
  Encode(ins, out);
}

void EmitUpdateBlob(int32_t slot, int64_t sig, std::vector<uint8_t>* out) {
  EmitOne(Opcode::PUSH, Reg::R6, Reg::R0, 0, 0, out);
  EmitOne(Opcode::LEA_DATA, Reg::R6, Reg::R0, 0, slot, out);
  EmitOne(Opcode::STORE_I, Reg::R6, Reg::R0, sig, 0, out);
  EmitOne(Opcode::POP, Reg::R6, Reg::R0, 0, 0, out);
}

void EmitCheckBlob(int32_t slot, const std::vector<int64_t>& pred_sigs,
                   int64_t sig, uint32_t detect_off,
                   std::vector<uint8_t>* out) {
  // The "ok" join point is the store_i that sets the block's own sig.
  uint32_t ok_off =
      static_cast<uint32_t>(out->size()) + 2 * SizeOf(Opcode::PUSH) +
      SizeOf(Opcode::LEA_DATA) + SizeOf(Opcode::LOAD) +
      static_cast<uint32_t>(pred_sigs.size()) *
          (SizeOf(Opcode::CMP_RI) + SizeOf(Opcode::JE)) +
      SizeOf(Opcode::JMP);
  EmitOne(Opcode::PUSH, Reg::R6, Reg::R0, 0, 0, out);
  EmitOne(Opcode::PUSH, Reg::R7, Reg::R0, 0, 0, out);
  EmitOne(Opcode::LEA_DATA, Reg::R6, Reg::R0, 0, slot, out);
  EmitOne(Opcode::LOAD, Reg::R7, Reg::R6, 0, 0, out);
  for (int64_t pred_sig : pred_sigs) {
    EmitOne(Opcode::CMP_RI, Reg::R7, Reg::R0, pred_sig, 0, out);
    uint32_t after = static_cast<uint32_t>(out->size()) + SizeOf(Opcode::JE);
    EmitOne(Opcode::JE, Reg::R0, Reg::R0, 0,
            static_cast<int32_t>(ok_off - after), out);
  }
  uint32_t after_jmp = static_cast<uint32_t>(out->size()) + SizeOf(Opcode::JMP);
  EmitOne(Opcode::JMP, Reg::R0, Reg::R0, 0,
          static_cast<int32_t>(detect_off - after_jmp), out);
  EmitOne(Opcode::STORE_I, Reg::R6, Reg::R0, sig, 0, out);
  EmitOne(Opcode::POP, Reg::R7, Reg::R0, 0, 0, out);
  EmitOne(Opcode::POP, Reg::R6, Reg::R0, 0, 0, out);
}

}  // namespace

Result<CodeUnit> ApplyCfcss(const CodeUnit& unit) {
  auto disassembled =
      Disassemble(unit.code, 0, static_cast<uint32_t>(unit.code.size()));
  if (!disassembled.ok()) {
    return Err("cfcss: undecodable input: " + disassembled.error());
  }
  const std::vector<Instr>& instrs = disassembled.value();

  std::map<uint32_t, size_t> index_at;  // code offset -> instr index
  for (size_t i = 0; i < instrs.size(); ++i) index_at[instrs[i].offset] = i;

  // Function spans from the symbol tables, sorted by offset.
  std::vector<FnSpan> fns;
  auto add_span = [&](const Symbol& sym) {
    if (sym.size == 0) return;
    FnSpan fn;
    fn.begin = sym.offset;
    fn.end = sym.offset + sym.size;
    fns.push_back(fn);
  };
  for (const Symbol& sym : unit.exports) add_span(sym);
  for (const Symbol& sym : unit.locals) add_span(sym);
  std::sort(fns.begin(), fns.end(),
            [](const FnSpan& a, const FnSpan& b) { return a.begin < b.begin; });

  int64_t next_sig = 0;
  for (FnSpan& fn : fns) {
    auto at = index_at.find(fn.begin);
    if (at == index_at.end()) return Err("cfcss: symbol inside instruction");
    fn.first_instr = at->second;
    fn.end_instr = fn.first_instr;
    bool has_jmp_ind = false;
    while (fn.end_instr < instrs.size() &&
           instrs[fn.end_instr].offset < fn.end) {
      if (instrs[fn.end_instr].op == Opcode::JMP_IND) has_jmp_ind = true;
      ++fn.end_instr;
    }
    // Indirect intra-function control flow defeats static signatures:
    // leave the whole function unhardened rather than false-positive.
    fn.instrument = !has_jmp_ind && fn.end_instr > fn.first_instr;
    if (!fn.instrument) continue;

    // Leaders: function entry, branch targets, fall-throughs of
    // terminators. Branches out of the span are treated as exits.
    std::set<size_t> leaders = {fn.first_instr};
    std::set<size_t> targeted;
    for (size_t i = fn.first_instr; i < fn.end_instr; ++i) {
      const Instr& ins = instrs[i];
      if (ins.op == Opcode::JMP || ins.is_cond_branch()) {
        uint32_t target = ins.rel_target();
        if (target >= fn.begin && target < fn.end) {
          auto t = index_at.find(target);
          if (t == index_at.end()) {
            return Err("cfcss: branch into the middle of an instruction");
          }
          leaders.insert(t->second);
          targeted.insert(t->second);
        }
      }
      if (ins.is_terminator() && i + 1 < fn.end_instr) leaders.insert(i + 1);
    }
    for (size_t leader : leaders) {
      Block block;
      block.first = leader;
      block.branch_target = targeted.count(leader) != 0;
      fn.block_of[leader] = fn.blocks.size();
      fn.blocks.push_back(block);
    }
    for (Block& block : fn.blocks) {
      size_t i = block.first;
      while (i + 1 < fn.end_instr && !instrs[i].is_terminator() &&
             leaders.count(i + 1) == 0) {
        ++i;
      }
      block.last = i;
      block.sig = ++next_sig;
      const Instr& term = instrs[i];
      auto link = [&](size_t instr_idx) {
        auto it = fn.block_of.find(instr_idx);
        if (it != fn.block_of.end()) block.succs.push_back(it->second);
      };
      if (term.op == Opcode::JMP || term.is_cond_branch()) {
        uint32_t target = term.rel_target();
        if (target >= fn.begin && target < fn.end) link(index_at[target]);
      }
      bool falls = !term.is_terminator() ||
                   (term.is_cond_branch() && i + 1 < fn.end_instr);
      if (falls && i + 1 < fn.end_instr) link(i + 1);
    }
    for (size_t b = 0; b < fn.blocks.size(); ++b) {
      for (size_t s : fn.blocks[b].succs) fn.blocks[s].preds.push_back(b);
    }

    // Flags liveness at block entry (backward fixpoint): a check's CMP may
    // only run where no path reads the current flags before rewriting them.
    std::vector<FlagsUse> use(fn.blocks.size(), FlagsUse::Transparent);
    for (size_t b = 0; b < fn.blocks.size(); ++b) {
      for (size_t i = fn.blocks[b].first; i <= fn.blocks[b].last; ++i) {
        if (WritesFlags(instrs[i].op)) {
          use[b] = FlagsUse::Kills;
          break;
        }
        if (ReadsOrUnknownFlags(instrs[i].op)) {
          use[b] = FlagsUse::Reads;
          break;
        }
      }
    }
    std::vector<bool> live_in(fn.blocks.size(), false);
    for (size_t b = 0; b < fn.blocks.size(); ++b) {
      live_in[b] = use[b] == FlagsUse::Reads;
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t b = 0; b < fn.blocks.size(); ++b) {
        if (use[b] != FlagsUse::Transparent) continue;
        bool out = false;
        for (size_t s : fn.blocks[b].succs) out |= live_in[s];
        if (out != live_in[b]) {
          live_in[b] = out;
          changed = true;
        }
      }
    }

    for (size_t b = 0; b < fn.blocks.size(); ++b) {
      Block& block = fn.blocks[b];
      block.check = b != 0 && block.branch_target && !live_in[b] &&
                    !block.preds.empty() && block.preds.size() <= 8;
    }
  }

  // Pass 1: insertion sizes -> new layout. Every block entry gets an
  // update (or check+update), every call gets a reseed on return.
  std::vector<uint32_t> pre_size(instrs.size(), 0);
  std::vector<uint32_t> post_size(instrs.size(), 0);
  std::vector<const Block*> entry_block(instrs.size(), nullptr);
  std::vector<const FnSpan*> fn_of(instrs.size(), nullptr);
  for (const FnSpan& fn : fns) {
    if (!fn.instrument) continue;
    for (const Block& block : fn.blocks) {
      entry_block[block.first] = &block;
      pre_size[block.first] = block.check
                                  ? CheckBlobSize(block.preds.size())
                                  : UpdateBlobSize();
      for (size_t i = block.first; i <= block.last; ++i) {
        fn_of[i] = &fn;
        if (instrs[i].is_call()) post_size[i] = UpdateBlobSize();
      }
    }
  }
  std::vector<uint32_t> new_start(instrs.size(), 0);  // incl. pre-blob
  std::vector<uint32_t> new_instr(instrs.size(), 0);
  uint32_t cursor = 0;
  for (size_t i = 0; i < instrs.size(); ++i) {
    new_start[i] = cursor;
    cursor += pre_size[i];
    new_instr[i] = cursor;
    cursor += instrs[i].size;
    cursor += post_size[i];
  }
  const uint32_t detect_off = cursor;
  const uint32_t detect_size = SizeOf(Opcode::MOV_RI) + SizeOf(Opcode::HALT);

  CodeUnit out;
  out.imports = unit.imports;
  out.tls_size = unit.tls_size;
  out.data = unit.data;
  while (out.data.size() % 8 != 0) out.data.push_back(0);
  const int32_t slot = static_cast<int32_t>(out.data.size());
  out.data.resize(out.data.size() + 8, 0);

  // Pass 2: emit shifted code with remapped rel32 targets. Branches and
  // calls land on the target's pre-blob so its update (and check) runs no
  // matter how control arrives.
  out.code.reserve(detect_off + detect_size);
  auto block_sig_of = [&](size_t instr_idx) -> int64_t {
    const FnSpan* fn = fn_of[instr_idx];
    for (const Block& block : fn->blocks) {
      if (instr_idx >= block.first && instr_idx <= block.last) {
        return block.sig;
      }
    }
    return 0;
  };
  for (size_t i = 0; i < instrs.size(); ++i) {
    if (pre_size[i] != 0) {
      const Block& block = *entry_block[i];
      if (block.check) {
        std::vector<int64_t> pred_sigs;
        for (size_t p : block.preds) {
          pred_sigs.push_back(fn_of[i]->blocks[p].sig);
        }
        EmitCheckBlob(slot, pred_sigs, block.sig, detect_off, &out.code);
      } else {
        EmitUpdateBlob(slot, block.sig, &out.code);
      }
    }
    Instr ins = instrs[i];
    if (LayoutOf(ins.op) == OperandLayout::Rel32) {
      uint32_t target = ins.rel_target();
      auto t = index_at.find(target);
      if (t == index_at.end()) {
        return Err("cfcss: relative target inside an instruction");
      }
      ins.disp = static_cast<int32_t>(new_start[t->second] -
                                      (new_instr[i] + ins.size));
    }
    Encode(ins, &out.code);
    if (post_size[i] != 0) {
      EmitUpdateBlob(slot, block_sig_of(i), &out.code);
    }
  }
  EmitOne(Opcode::MOV_RI, Reg::R0, Reg::R0, kSeuDetectExitCode, 0, &out.code);
  EmitOne(Opcode::HALT, Reg::R0, Reg::R0, 0, 0, &out.code);

  auto remap_symbol = [&](const Symbol& sym) -> Result<Symbol> {
    Symbol moved = sym;
    auto at = index_at.find(sym.offset);
    if (at == index_at.end()) return Err("cfcss: unmappable symbol offset");
    size_t first = at->second;
    moved.offset = new_start[first];
    if (sym.size != 0) {
      size_t last = first;
      while (last + 1 < instrs.size() &&
             instrs[last + 1].offset < sym.offset + sym.size) {
        ++last;
      }
      moved.size = new_instr[last] + instrs[last].size + post_size[last] -
                   new_start[first];
    }
    return moved;
  };
  for (const Symbol& sym : unit.exports) {
    auto moved = remap_symbol(sym);
    if (!moved.ok()) return Err(moved.error());
    out.exports.push_back(moved.value());
  }
  for (const Symbol& sym : unit.locals) {
    auto moved = remap_symbol(sym);
    if (!moved.ok()) return Err(moved.error());
    out.locals.push_back(moved.value());
  }
  out.locals.push_back(Symbol{"__cfcss_detect", detect_off, detect_size});
  for (const auto& [data_off, code_off] : unit.data_relocs) {
    auto at = index_at.find(code_off);
    if (at == index_at.end()) return Err("cfcss: unmappable code pointer");
    out.data_relocs.emplace_back(data_off, new_start[at->second]);
  }
  return out;
}

}  // namespace lfi::isa
