#include "core/scenario.hpp"

#include <cstdint>
#include <utility>

#include "util/errno_table.hpp"
#include "util/strings.hpp"
#include "xml/xml.hpp"

namespace lfi::core {

int64_t ArgModification::Apply(int64_t current) const {
  switch (op) {
    case Op::Add: return current + value;
    case Op::Sub: return current - value;
    case Op::Set: return value;
    case Op::And: return current & value;
    case Op::Or: return current | value;
    case Op::Xor: return current ^ value;
  }
  return current;
}

const char* ArgOpName(ArgModification::Op op) {
  switch (op) {
    case ArgModification::Op::Add: return "add";
    case ArgModification::Op::Sub: return "sub";
    case ArgModification::Op::Set: return "set";
    case ArgModification::Op::And: return "and";
    case ArgModification::Op::Or: return "or";
    case ArgModification::Op::Xor: return "xor";
  }
  return "?";
}

std::optional<ArgModification::Op> ArgOpFromName(std::string_view name) {
  if (name == "add") return ArgModification::Op::Add;
  if (name == "sub") return ArgModification::Op::Sub;
  if (name == "set") return ArgModification::Op::Set;
  if (name == "and") return ArgModification::Op::And;
  if (name == "or") return ArgModification::Op::Or;
  if (name == "xor") return ArgModification::Op::Xor;
  return std::nullopt;
}

const char* SeuTargetName(SeuFault::Target t) {
  switch (t) {
    case SeuFault::Target::Reg: return "reg";
    case SeuFault::Target::Stack: return "stack";
    case SeuFault::Target::Heap: return "heap";
    case SeuFault::Target::Data: return "data";
  }
  return "?";
}

std::optional<SeuFault::Target> SeuTargetFromName(std::string_view name) {
  if (name == "reg") return SeuFault::Target::Reg;
  if (name == "stack") return SeuFault::Target::Stack;
  if (name == "heap") return SeuFault::Target::Heap;
  if (name == "data") return SeuFault::Target::Data;
  return std::nullopt;
}

namespace {
constexpr const char* kSeuRegNames[kSeuNumRegs] = {
    "R0", "R1", "R2", "R3", "R4", "R5", "R6", "R7", "SP", "BP"};
}  // namespace

const char* SeuRegName(int reg) {
  if (reg < 0 || reg >= kSeuNumRegs) return "?";
  return kSeuRegNames[reg];
}

std::optional<int> SeuRegFromName(std::string_view name) {
  for (int i = 0; i < kSeuNumRegs; ++i) {
    if (name == kSeuRegNames[i]) return i;
  }
  return std::nullopt;
}

std::string Plan::ToXml() const {
  xml::Node root("plan");
  root.set_attr("seed", Format("%llu", (unsigned long long)seed));
  for (const FunctionTrigger& t : triggers) {
    xml::Node* fn = root.add_child("function");
    fn->set_attr("name", t.function);
    switch (t.mode) {
      case FunctionTrigger::Mode::CallCount:
        fn->set_attr("inject", Format("%llu", (unsigned long long)t.inject_call));
        break;
      case FunctionTrigger::Mode::Probability:
        // max_digits10: explorer-mutated probabilities must survive the
        // XML round trip bit-exactly or persisted corpus plans replay a
        // subtly different scenario than the one that was minimized.
        fn->set_attr("probability", Format("%.17g", t.probability));
        break;
      case FunctionTrigger::Mode::Always:
        fn->set_attr("mode", "always");
        break;
      case FunctionTrigger::Mode::Rotate:
        fn->set_attr("mode", "rotate");
        break;
    }
    if (t.retval) fn->set_attr("retval", Format("%lld", (long long)*t.retval));
    if (t.errno_value) fn->set_attr("errno", ErrnoName(*t.errno_value));
    fn->set_attr("calloriginal", t.call_original ? "true" : "false");
    if (t.max_injections != -1) {
      fn->set_attr("maxinjections", Format("%d", t.max_injections));
    }
    if (!t.stacktrace.empty()) {
      xml::Node* st = fn->add_child("stacktrace");
      for (const FrameCondition& f : t.stacktrace) {
        xml::Node* frame = st->add_child("frame");
        frame->set_text(f.address ? Hex(*f.address) : f.symbol);
      }
    }
    for (const ArgModification& m : t.modifications) {
      xml::Node* mod = fn->add_child("modify");
      mod->set_attr("argument", Format("%d", m.argument));
      mod->set_attr("op", ArgOpName(m.op));
      mod->set_attr("value", Format("%lld", (long long)m.value));
    }
  }
  for (const SeuFault& s : seus) {
    xml::Node* seu = root.add_child("seu");
    seu->set_attr("target", SeuTargetName(s.target));
    if (s.target == SeuFault::Target::Reg) {
      seu->set_attr("reg", SeuRegName(s.reg));
    } else {
      seu->set_attr("offset", Format("%llu", (unsigned long long)s.offset));
    }
    if (s.target == SeuFault::Target::Data) seu->set_attr("module", s.module);
    seu->set_attr("bit", Format("%d", s.bit));
    seu->set_attr("at", Format("%llu", (unsigned long long)s.at_instruction));
    if (s.pid != 1) seu->set_attr("pid", Format("%d", s.pid));
    if (s.window_end != 0) {
      seu->set_attr("wmodule", s.window_module);
      seu->set_attr("wbegin",
                    Format("%llu", (unsigned long long)s.window_begin));
      seu->set_attr("wend", Format("%llu", (unsigned long long)s.window_end));
    }
  }
  return root.serialize();
}

namespace {

constexpr const char* kWantMaxInjections = "-1 for unlimited, or a count";
constexpr const char* kWantArgument = "1..255";
static_assert(kMaxModifyArgument == 255, "kWantArgument spells the cap");
constexpr const char* kWantReg = "R0..R7, SP, BP";
constexpr const char* kWantBit = "0..63";
constexpr const char* kWantPid = "a pid >= 1";
constexpr const char* kWantWend = "a uint64 > wbegin";

/// FromXml's wording for a bad field, spelled once: `text` is the attribute
/// text FromXml could not parse, or the stored value ValidatePlan refuses.
std::string Bad(const char* field, std::string_view text,
                const std::string& fn, const char* want) {
  return "plan: bad " + std::string(field) + " \"" + std::string(text) +
         "\"" + (fn.empty() ? "" : " for " + fn) + " (want " + want + ")";
}

/// Parse a decimal attribute into an int field. A value the field cannot
/// hold is malformed, never narrowed; the field's range is ValidatePlan's.
bool ParseIntField(std::string_view text, int* out) {
  int64_t value = 0;
  if (!ParseInt(text, &value) || !std::in_range<int>(value)) return false;
  *out = static_cast<int>(value);
  return true;
}

}  // namespace

Status ValidatePlan(const Plan& plan) {
  for (const FunctionTrigger& t : plan.triggers) {
    if (t.function.empty()) return Err("plan: <function> without name");
    if (t.mode == FunctionTrigger::Mode::CallCount && t.inject_call == 0) {
      return Err("plan: inject must be >= 1 for " + t.function +
                 " (call counts are 1-based)");
    }
    // Negated so that NaN fails too.
    if (t.mode == FunctionTrigger::Mode::Probability &&
        !(t.probability >= 0.0 && t.probability <= 1.0)) {
      return Err(Bad("probability", Format("%g", t.probability), t.function,
                     "a number in [0,1]"));
    }
    if (t.max_injections < -1) {
      return Err(Bad("maxinjections", std::to_string(t.max_injections),
                     t.function, kWantMaxInjections));
    }
    for (const ArgModification& m : t.modifications) {
      if (m.argument < 1 || m.argument > kMaxModifyArgument) {
        return Err(Bad("modify argument", std::to_string(m.argument),
                       t.function, kWantArgument));
      }
    }
  }
  for (const SeuFault& s : plan.seus) {
    if (s.target == SeuFault::Target::Reg &&
        (s.reg < 0 || s.reg >= kSeuNumRegs)) {
      return Err(Bad("seu reg", std::to_string(s.reg), "", kWantReg));
    }
    if (s.target == SeuFault::Target::Data && s.module.empty()) {
      return Err("plan: <seu target=\"data\"> without module");
    }
    if (s.bit < 0 || s.bit > 63) {
      return Err(Bad("seu bit", std::to_string(s.bit), "", kWantBit));
    }
    if (s.pid < 1) {
      return Err(Bad("seu pid", std::to_string(s.pid), "", kWantPid));
    }
    if (s.window_end != 0 && s.window_end <= s.window_begin) {
      return Err(Bad("seu wend", std::to_string(s.window_end), "", kWantWend));
    }
  }
  return Status::Ok();
}

Result<Plan> Plan::FromXml(std::string_view text) {
  auto parsed = xml::Parse(text);
  if (!parsed.ok()) return Err(parsed.error());
  const xml::Node& root = *parsed.value();
  if (root.name() != "plan") return Err("plan: root must be <plan>");
  Plan plan;
  // Every attribute is parsed strictly, not best-effort coerced, and the
  // parsed plan goes through ValidatePlan: a malformed plan must fail
  // loudly here instead of silently running a different scenario (a
  // mis-parsed probability or call count corrupts exactly the
  // replay/minimization artifacts the explorer persists).
  if (auto seed = root.attr("seed")) {
    if (!ParseUint(*seed, &plan.seed)) {
      return Err("plan: bad seed \"" + *seed + "\" (want a uint64)");
    }
  }
  for (const xml::Node* fn : root.children_named("function")) {
    FunctionTrigger t;
    t.function = fn->attr_or("name", "");
    if (auto inject = fn->attr("inject")) {
      t.mode = FunctionTrigger::Mode::CallCount;
      if (!ParseUint(*inject, &t.inject_call)) {
        return Err("plan: bad inject \"" + *inject + "\" for " + t.function +
                   " (want a uint64 call number)");
      }
    } else if (auto prob = fn->attr("probability")) {
      t.mode = FunctionTrigger::Mode::Probability;
      if (!ParseDouble(*prob, &t.probability)) {
        return Err(Bad("probability", *prob, t.function, "a number in [0,1]"));
      }
    } else {
      std::string mode = fn->attr_or("mode", "always");
      if (mode == "always") t.mode = FunctionTrigger::Mode::Always;
      else if (mode == "rotate") t.mode = FunctionTrigger::Mode::Rotate;
      else return Err("plan: bad trigger mode " + mode);
    }
    if (auto rv = fn->attr("retval")) {
      int64_t value = 0;
      if (!ParseInt(*rv, &value)) {
        return Err("plan: bad retval \"" + *rv + "\" for " + t.function +
                   " (want an int64)");
      }
      t.retval = value;
    }
    if (auto en = fn->attr("errno")) {
      auto value = ErrnoFromName(*en);
      if (!value) {
        // A number, or "E<number>" (how ErrnoName spells a value that has
        // no name, so ToXml's output parses back).
        std::string_view number = *en;
        if (StartsWith(number, "E")) number.remove_prefix(1);
        int64_t raw = 0;
        if (!ParseInt(number, &raw) || !std::in_range<int32_t>(raw)) {
          return Err("plan: bad errno " + *en);
        }
        value = static_cast<int32_t>(raw);
      }
      t.errno_value = *value;
    }
    std::string call_original = fn->attr_or("calloriginal", "false");
    if (call_original != "true" && call_original != "false") {
      return Err("plan: bad calloriginal \"" + call_original + "\" for " +
                 t.function + " (want true or false)");
    }
    t.call_original = call_original == "true";
    if (auto mi = fn->attr("maxinjections")) {
      if (!ParseIntField(*mi, &t.max_injections)) {
        return Err(Bad("maxinjections", *mi, t.function, kWantMaxInjections));
      }
    }
    if (const xml::Node* st = fn->child("stacktrace")) {
      for (const xml::Node* frame : st->children_named("frame")) {
        FrameCondition cond;
        std::string_view content = Trim(frame->text());
        if (StartsWith(content, "0x") || StartsWith(content, "0X")) {
          uint64_t addr = 0;
          if (!ParseUint(content, &addr)) return Err("plan: bad frame address");
          cond.address = addr;
        } else {
          cond.symbol = std::string(content);
        }
        t.stacktrace.push_back(std::move(cond));
      }
    }
    for (const xml::Node* mod : fn->children_named("modify")) {
      ArgModification m;
      std::string argument = mod->attr_or("argument", "");
      if (!ParseIntField(argument, &m.argument)) {
        return Err(Bad("modify argument", argument, t.function, kWantArgument));
      }
      auto op = ArgOpFromName(mod->attr_or("op", "set"));
      if (!op) return Err("plan: bad modify op");
      m.op = *op;
      if (auto value = mod->attr("value")) {
        if (!ParseInt(*value, &m.value)) {
          return Err("plan: bad modify value \"" + *value + "\" for " +
                     t.function + " (want an int64)");
        }
      }
      t.modifications.push_back(m);
    }
    plan.triggers.push_back(std::move(t));
  }
  for (const xml::Node* node : root.children_named("seu")) {
    SeuFault s;
    std::string target = node->attr_or("target", "");
    auto parsed_target = SeuTargetFromName(target);
    if (!parsed_target) {
      return Err("plan: bad seu target \"" + target +
                 "\" (want reg, stack, heap, or data)");
    }
    s.target = *parsed_target;
    if (s.target == SeuFault::Target::Reg) {
      std::string reg = node->attr_or("reg", "");
      auto parsed_reg = SeuRegFromName(reg);
      if (!parsed_reg) {
        return Err(Bad("seu reg", reg, "", kWantReg));
      }
      s.reg = *parsed_reg;
    } else {
      if (auto offset = node->attr("offset")) {
        if (!ParseUint(*offset, &s.offset)) {
          return Err("plan: bad seu offset \"" + *offset +
                     "\" (want a uint64 byte offset)");
        }
      }
      if (s.target == SeuFault::Target::Data) {
        s.module = node->attr_or("module", "");
      }
    }
    std::string bit = node->attr_or("bit", "");
    if (!ParseIntField(bit, &s.bit)) {
      return Err(Bad("seu bit", bit, "", kWantBit));
    }
    std::string at = node->attr_or("at", "");
    if (!ParseUint(at, &s.at_instruction)) {
      return Err("plan: bad seu at \"" + at +
                 "\" (want a uint64 instruction instant)");
    }
    if (auto pid = node->attr("pid")) {
      if (!ParseIntField(*pid, &s.pid)) {
        return Err(Bad("seu pid", *pid, "", kWantPid));
      }
    }
    if (auto wmodule = node->attr("wmodule")) {
      s.window_module = *wmodule;
      std::string wbegin = node->attr_or("wbegin", "0");
      if (!ParseUint(wbegin, &s.window_begin)) {
        return Err("plan: bad seu wbegin \"" + wbegin + "\" (want a uint64)");
      }
      // A gated window needs a non-zero end: 0 means ungated.
      std::string wend = node->attr_or("wend", "");
      if (!ParseUint(wend, &s.window_end) || s.window_end == 0) {
        return Err(Bad("seu wend", wend, "", kWantWend));
      }
    }
    plan.seus.push_back(std::move(s));
  }
  if (Status st = ValidatePlan(plan); !st.ok()) return Err(st.error());
  return plan;
}

}  // namespace lfi::core
