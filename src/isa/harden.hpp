// Software-implemented hardware fault tolerance (SIHFT) transforms for the
// synthetic ISA — the guest-side hardening whose effectiveness the SEU
// campaign machinery (campaign/seu.hpp) measures:
//
//   - DwcEmitter: duplicate-with-compare assembly helper. Mirrors a
//     computation into shadow registers and emits compare-and-branch
//     checks, so a flip in either copy diverges the pair and is caught at
//     the next check (EDDI-style duplication at emission time).
//   - ApplyCfcss: a control-flow checking binary rewrite in the CFCSS
//     tradition: every basic block updates a module-global signature word,
//     join blocks verify it matches one of their legal predecessors, and
//     violations jump to a detect handler. Runs on a finished CodeUnit —
//     the two-pass offset-rewrite trick the fixed per-opcode encoding
//     sizes make possible.
//   - EmitTmrVote: triple-modular-redundancy majority vote over three
//     register copies; a single flipped copy is outvoted and repaired
//     (masking, not just detection).
//
// All detectors converge on one convention: exit with kSeuDetectExitCode.
// The SEU classifier maps that exit to the "detected" outcome.
#pragma once

#include <vector>

#include "isa/codebuilder.hpp"
#include "isa/isa.hpp"
#include "util/result.hpp"

namespace lfi::isa {

/// Exit code hardened guests reserve for "my fault checker fired".
inline constexpr int64_t kSeuDetectExitCode = 97;

/// Majority-vote `dst` against its two copies and refresh all three with
/// the voted value: dst = copy1 = copy2 = maj(dst, copy1, copy2).
/// Clobbers `scratch`; touches no flags (safe anywhere).
void EmitTmrVote(CodeBuilder& b, Reg dst, Reg copy1, Reg copy2, Reg scratch);

/// Duplicate-with-compare emission helper. Construct with the
/// primary->shadow register pairs and a bound-later detect label; the
/// mirrored emitters apply each operation to both copies, and check()
/// branches to `detect` when a pair has diverged. A register without a
/// shadow mapping is its own shadow.
class DwcEmitter {
 public:
  DwcEmitter(CodeBuilder& b, std::vector<std::pair<Reg, Reg>> pairs,
             CodeBuilder::Label detect);

  Reg shadow(Reg r) const;

  void mov_ri(Reg a, int64_t imm);
  void add_ri(Reg a, int64_t imm);

  /// Compare `a` against its shadow; diverged pairs branch to detect.
  /// Clobbers flags.
  void check(Reg a);

 private:
  CodeBuilder& b_;
  std::vector<std::pair<Reg, Reg>> pairs_;
  CodeBuilder::Label detect_;
};

/// CFCSS-style control-flow signature rewrite of a finished CodeUnit.
///
/// Every basic block of every function gets a signature-update prologue
/// (G := sig(block), flag-transparent), call sites reseed G on return, and
/// join blocks whose CMP flags are provably dead at entry additionally
/// verify G against their legal predecessors' signatures before updating —
/// a mismatch (flipped signature word, corrupted control transfer) jumps
/// to an appended handler that exits with kSeuDetectExitCode. G lives in a
/// new 8-byte module-data slot, deliberately part of the SEU-flippable
/// data section. Functions containing JMP_IND are left untouched
/// (indirect intra-function control flow defeats static signatures);
/// branch targets, symbol tables, and data relocations are remapped to
/// the shifted layout. Fails on undecodable code.
Result<CodeUnit> ApplyCfcss(const CodeUnit& unit);

}  // namespace lfi::isa
