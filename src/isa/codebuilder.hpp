// CodeBuilder: a tiny assembler for the synthetic ISA.
//
// All synthetic binaries in the repository — libc, the kernel image, the
// Table-1/Table-2 corpora and the evaluation applications — are emitted
// through this builder. It offers labels with forward references, an import
// table for cross-library calls (CALL_SYM), export/local symbol recording,
// and calling-convention helpers matching the VM ABI:
//
//   caller:  push argN-1 ... push arg0; call f; add sp, 8*N
//   callee:  push bp; mov bp, sp           (prologue)
//            arg i at [bp + 16 + 8*i]      (saved bp at [bp], ret at [bp+8])
//            mov sp, bp; pop bp; ret       (epilogue)
//   return value in R0; errno lives at TLS offset 0.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/isa.hpp"

namespace lfi::isa {

/// Where the errno TLS variable lives (libc convention, see libc_builder).
inline constexpr int32_t kErrnoTlsOffset = 0;

/// Stack displacement of argument `i` from BP after the standard prologue.
inline constexpr int32_t ArgSlot(int i) { return 16 + 8 * i; }

struct Symbol {
  std::string name;
  uint32_t offset = 0;
  uint32_t size = 0;  // filled by end_function
};

/// The output of a builder run: raw code plus symbol/import/data tables.
struct CodeUnit {
  std::vector<uint8_t> code;
  std::vector<Symbol> exports;
  std::vector<Symbol> locals;
  std::vector<std::string> imports;  // CALL_SYM index -> symbol name
  std::vector<uint8_t> data;         // module data section (globals)
  uint32_t tls_size = 0;             // bytes of TLS the module needs
  /// (data offset, code offset) pairs resolved to absolute addresses at load.
  std::vector<std::pair<uint32_t, uint32_t>> data_relocs;
};

class CodeBuilder {
 public:
  // -- labels ---------------------------------------------------------------
  using Label = int;
  Label new_label();
  void bind(Label l);
  /// Current emission offset.
  uint32_t here() const { return static_cast<uint32_t>(unit_.code.size()); }

  // -- symbols --------------------------------------------------------------
  /// Begin an exported (or local) function at the current offset. Emits the
  /// standard prologue unless `bare` is true (used for kernel handlers).
  void begin_function(const std::string& name, bool exported = true,
                      bool bare = false);
  /// Record the end of the current function (sets the symbol's size).
  void end_function();

  // -- data / TLS -----------------------------------------------------------
  /// Reserve `size` zeroed bytes in the data section; returns its offset.
  uint32_t reserve_data(uint32_t size);
  /// Append initialized bytes to the data section; returns its offset.
  uint32_t emit_data(const std::vector<uint8_t>& bytes);
  /// Reserve TLS storage; returns the TLS offset.
  uint32_t reserve_tls(uint32_t size);
  /// Reserve an 8-byte data slot that the loader fills with the absolute
  /// address of `code_offset` (a function-pointer table entry).
  uint32_t reserve_code_pointer(uint32_t code_offset);

  // -- raw instruction emitters ---------------------------------------------
  void nop();
  void halt();
  void abort();
  void mov_ri(Reg a, int64_t imm);
  void mov_rr(Reg a, Reg b);
  void load(Reg a, Reg base, int32_t disp);
  void store(Reg base, int32_t disp, Reg src);
  void store_i(Reg base, int32_t disp, int64_t imm);
  void lea(Reg a, Reg base, int32_t disp);
  void lea_data(Reg a, int32_t disp);
  void lea_tls(Reg a, int32_t disp);
  void push(Reg a);
  void pop(Reg a);
  void add_rr(Reg a, Reg b);
  void sub_rr(Reg a, Reg b);
  void and_rr(Reg a, Reg b);
  void or_rr(Reg a, Reg b);
  void xor_rr(Reg a, Reg b);
  void mul_rr(Reg a, Reg b);
  void add_ri(Reg a, int64_t imm);
  void sub_ri(Reg a, int64_t imm);
  void and_ri(Reg a, int64_t imm);
  void or_ri(Reg a, int64_t imm);
  void xor_ri(Reg a, int64_t imm);
  void mul_ri(Reg a, int64_t imm);
  void neg(Reg a);
  void not_(Reg a);
  void cmp_rr(Reg a, Reg b);
  void cmp_ri(Reg a, int64_t imm);
  void jmp(Label l);
  void je(Label l);
  void jne(Label l);
  void jlt(Label l);
  void jle(Label l);
  void jgt(Label l);
  void jge(Label l);
  void jmp_ind(Reg a);
  void call(Label l);
  /// Call a named function; adds an import-table entry on first use.
  /// Cross-library calls AND intra-library calls to exported functions both
  /// go through CALL_SYM so the loader can interpose (like a PLT).
  void call_sym(const std::string& name);
  void call_ind(Reg a);
  void ret();
  void syscall(uint16_t number);
  void kcall(uint16_t number);

  // -- convenience ----------------------------------------------------------
  /// Load argument `i` of the current function into `dst`.
  void load_arg(Reg dst, int i) { load(dst, Reg::BP, ArgSlot(i)); }
  /// Standard epilogue + RET.
  void leave_ret();
  /// Set errno (TLS slot 0) to a constant, clobbering `scratch` and
  /// `scratch2`.
  void set_errno_const(int32_t err, Reg scratch, Reg scratch2);
  /// Push `args` (right to left), CALL_SYM `name`, clean the stack.
  void call_named(const std::string& name, const std::vector<Reg>& args);

  /// Finalize: patch label fixups and return the unit. Asserts that every
  /// used label was bound.
  CodeUnit Finish();

 private:
  void emit(const Instr& ins);
  void emit_rel(Opcode op, Label l);

  CodeUnit unit_;
  std::vector<int64_t> label_offsets_;          // -1 = unbound
  std::vector<std::pair<uint32_t, Label>> fixups_;  // instr offset -> label
  std::map<std::string, uint16_t> import_ids_;
  int current_function_ = -1;                   // index into exports/locals
  bool current_exported_ = true;
};

}  // namespace lfi::isa
