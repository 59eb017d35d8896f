#include "isa/codebuilder.hpp"

#include <cassert>

namespace lfi::isa {

CodeBuilder::Label CodeBuilder::new_label() {
  label_offsets_.push_back(-1);
  return static_cast<Label>(label_offsets_.size() - 1);
}

void CodeBuilder::bind(Label l) {
  assert(l >= 0 && static_cast<size_t>(l) < label_offsets_.size());
  assert(label_offsets_[l] == -1 && "label bound twice");
  label_offsets_[l] = here();
}

void CodeBuilder::begin_function(const std::string& name, bool exported,
                                 bool bare) {
  assert(current_function_ == -1 && "begin_function without end_function");
  Symbol sym{name, here(), 0};
  current_exported_ = exported;
  if (exported) {
    unit_.exports.push_back(sym);
    current_function_ = static_cast<int>(unit_.exports.size() - 1);
  } else {
    unit_.locals.push_back(sym);
    current_function_ = static_cast<int>(unit_.locals.size() - 1);
  }
  if (!bare) {
    push(Reg::BP);
    mov_rr(Reg::BP, Reg::SP);
  }
}

void CodeBuilder::end_function() {
  assert(current_function_ != -1);
  Symbol& sym = current_exported_
                    ? unit_.exports[static_cast<size_t>(current_function_)]
                    : unit_.locals[static_cast<size_t>(current_function_)];
  sym.size = here() - sym.offset;
  current_function_ = -1;
}

uint32_t CodeBuilder::reserve_data(uint32_t size) {
  uint32_t off = static_cast<uint32_t>(unit_.data.size());
  unit_.data.resize(unit_.data.size() + size, 0);
  return off;
}

uint32_t CodeBuilder::emit_data(const std::vector<uint8_t>& bytes) {
  uint32_t off = static_cast<uint32_t>(unit_.data.size());
  unit_.data.insert(unit_.data.end(), bytes.begin(), bytes.end());
  return off;
}

uint32_t CodeBuilder::reserve_code_pointer(uint32_t code_offset) {
  uint32_t off = reserve_data(8);
  unit_.data_relocs.emplace_back(off, code_offset);
  return off;
}

uint32_t CodeBuilder::reserve_tls(uint32_t size) {
  uint32_t off = unit_.tls_size;
  unit_.tls_size += size;
  return off;
}

void CodeBuilder::emit(const Instr& ins) { Encode(ins, &unit_.code); }

void CodeBuilder::emit_rel(Opcode op, Label l) {
  uint32_t at = here();
  Instr ins;
  ins.op = op;
  ins.disp = 0;
  emit(ins);
  fixups_.emplace_back(at, l);
}

void CodeBuilder::nop() { emit({.op = Opcode::NOP}); }
void CodeBuilder::halt() { emit({.op = Opcode::HALT}); }
void CodeBuilder::abort() { emit({.op = Opcode::ABORT}); }

void CodeBuilder::mov_ri(Reg a, int64_t imm) {
  emit({.op = Opcode::MOV_RI, .a = a, .imm = imm});
}
void CodeBuilder::mov_rr(Reg a, Reg b) {
  emit({.op = Opcode::MOV_RR, .a = a, .b = b});
}
void CodeBuilder::load(Reg a, Reg base, int32_t disp) {
  emit({.op = Opcode::LOAD, .a = a, .b = base, .disp = disp});
}
void CodeBuilder::store(Reg base, int32_t disp, Reg src) {
  emit({.op = Opcode::STORE, .a = base, .b = src, .disp = disp});
}
void CodeBuilder::store_i(Reg base, int32_t disp, int64_t imm) {
  emit({.op = Opcode::STORE_I, .a = base, .imm = imm, .disp = disp});
}
void CodeBuilder::lea(Reg a, Reg base, int32_t disp) {
  emit({.op = Opcode::LEA, .a = a, .b = base, .disp = disp});
}
void CodeBuilder::lea_data(Reg a, int32_t disp) {
  emit({.op = Opcode::LEA_DATA, .a = a, .disp = disp});
}
void CodeBuilder::lea_tls(Reg a, int32_t disp) {
  emit({.op = Opcode::LEA_TLS, .a = a, .disp = disp});
}
void CodeBuilder::push(Reg a) { emit({.op = Opcode::PUSH, .a = a}); }
void CodeBuilder::pop(Reg a) { emit({.op = Opcode::POP, .a = a}); }

void CodeBuilder::add_rr(Reg a, Reg b) { emit({.op = Opcode::ADD_RR, .a = a, .b = b}); }
void CodeBuilder::sub_rr(Reg a, Reg b) { emit({.op = Opcode::SUB_RR, .a = a, .b = b}); }
void CodeBuilder::and_rr(Reg a, Reg b) { emit({.op = Opcode::AND_RR, .a = a, .b = b}); }
void CodeBuilder::or_rr(Reg a, Reg b) { emit({.op = Opcode::OR_RR, .a = a, .b = b}); }
void CodeBuilder::xor_rr(Reg a, Reg b) { emit({.op = Opcode::XOR_RR, .a = a, .b = b}); }
void CodeBuilder::mul_rr(Reg a, Reg b) { emit({.op = Opcode::MUL_RR, .a = a, .b = b}); }
void CodeBuilder::add_ri(Reg a, int64_t imm) { emit({.op = Opcode::ADD_RI, .a = a, .imm = imm}); }
void CodeBuilder::sub_ri(Reg a, int64_t imm) { emit({.op = Opcode::SUB_RI, .a = a, .imm = imm}); }
void CodeBuilder::and_ri(Reg a, int64_t imm) { emit({.op = Opcode::AND_RI, .a = a, .imm = imm}); }
void CodeBuilder::or_ri(Reg a, int64_t imm) { emit({.op = Opcode::OR_RI, .a = a, .imm = imm}); }
void CodeBuilder::xor_ri(Reg a, int64_t imm) { emit({.op = Opcode::XOR_RI, .a = a, .imm = imm}); }
void CodeBuilder::mul_ri(Reg a, int64_t imm) { emit({.op = Opcode::MUL_RI, .a = a, .imm = imm}); }
void CodeBuilder::neg(Reg a) { emit({.op = Opcode::NEG, .a = a}); }
void CodeBuilder::not_(Reg a) { emit({.op = Opcode::NOT, .a = a}); }
void CodeBuilder::cmp_rr(Reg a, Reg b) { emit({.op = Opcode::CMP_RR, .a = a, .b = b}); }
void CodeBuilder::cmp_ri(Reg a, int64_t imm) { emit({.op = Opcode::CMP_RI, .a = a, .imm = imm}); }

void CodeBuilder::jmp(Label l) { emit_rel(Opcode::JMP, l); }
void CodeBuilder::je(Label l) { emit_rel(Opcode::JE, l); }
void CodeBuilder::jne(Label l) { emit_rel(Opcode::JNE, l); }
void CodeBuilder::jlt(Label l) { emit_rel(Opcode::JLT, l); }
void CodeBuilder::jle(Label l) { emit_rel(Opcode::JLE, l); }
void CodeBuilder::jgt(Label l) { emit_rel(Opcode::JGT, l); }
void CodeBuilder::jge(Label l) { emit_rel(Opcode::JGE, l); }
void CodeBuilder::jmp_ind(Reg a) { emit({.op = Opcode::JMP_IND, .a = a}); }
void CodeBuilder::call(Label l) { emit_rel(Opcode::CALL, l); }
void CodeBuilder::call_ind(Reg a) { emit({.op = Opcode::CALL_IND, .a = a}); }

void CodeBuilder::call_sym(const std::string& name) {
  auto it = import_ids_.find(name);
  uint16_t id;
  if (it == import_ids_.end()) {
    id = static_cast<uint16_t>(unit_.imports.size());
    unit_.imports.push_back(name);
    import_ids_.emplace(name, id);
  } else {
    id = it->second;
  }
  emit({.op = Opcode::CALL_SYM, .u16 = id});
}

void CodeBuilder::ret() { emit({.op = Opcode::RET}); }
void CodeBuilder::syscall(uint16_t number) {
  emit({.op = Opcode::SYSCALL, .u16 = number});
}
void CodeBuilder::kcall(uint16_t number) {
  emit({.op = Opcode::KCALL, .u16 = number});
}

void CodeBuilder::leave_ret() {
  mov_rr(Reg::SP, Reg::BP);
  pop(Reg::BP);
  ret();
}

void CodeBuilder::set_errno_const(int32_t err, Reg scratch, Reg scratch2) {
  mov_ri(scratch2, err);
  lea_tls(scratch, kErrnoTlsOffset);
  store(scratch, 0, scratch2);
}

void CodeBuilder::call_named(const std::string& name,
                             const std::vector<Reg>& args) {
  for (auto it = args.rbegin(); it != args.rend(); ++it) push(*it);
  call_sym(name);
  if (!args.empty()) add_ri(Reg::SP, 8 * static_cast<int64_t>(args.size()));
}

CodeUnit CodeBuilder::Finish() {
  assert(current_function_ == -1 && "unterminated function");
  for (const auto& [at, label] : fixups_) {
    int64_t target = label_offsets_[static_cast<size_t>(label)];
    assert(target >= 0 && "unbound label");
    // rel32 is relative to the end of the 5-byte instruction.
    int32_t rel = static_cast<int32_t>(target - (at + 5));
    uint32_t v = static_cast<uint32_t>(rel);
    for (int i = 0; i < 4; ++i) {
      unit_.code[at + 1 + static_cast<uint32_t>(i)] =
          static_cast<uint8_t>(v >> (8 * i));
    }
  }
  fixups_.clear();
  return std::move(unit_);
}

}  // namespace lfi::isa
