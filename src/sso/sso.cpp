#include "sso/sso.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace lfi::sso {

namespace {

constexpr char kMagic[4] = {'S', 'S', 'O', '1'};
constexpr uint32_t kVersion = 1;

void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutStr(const std::string& s, std::vector<uint8_t>* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->insert(out->end(), s.begin(), s.end());
}

void PutBytes(const std::vector<uint8_t>& b, std::vector<uint8_t>* out) {
  PutU32(static_cast<uint32_t>(b.size()), out);
  out->insert(out->end(), b.begin(), b.end());
}

void PutSymtab(const std::vector<isa::Symbol>& syms, std::vector<uint8_t>* out) {
  PutU32(static_cast<uint32_t>(syms.size()), out);
  for (const auto& s : syms) {
    PutStr(s.name, out);
    PutU32(s.offset, out);
    PutU32(s.size, out);
  }
}

void PutStrtab(const std::vector<std::string>& strs, std::vector<uint8_t>* out) {
  PutU32(static_cast<uint32_t>(strs.size()), out);
  for (const auto& s : strs) PutStr(s, out);
}

/// Bounds-checked reader over the serialized bytes.
class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}

  bool u32(uint32_t* out) {
    if (pos_ + 4 > bytes_.size()) return false;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(bytes_[pos_ + static_cast<size_t>(i)]) << (8 * i);
    pos_ += 4;
    *out = v;
    return true;
  }

  bool str(std::string* out) {
    uint32_t len = 0;
    if (!u32(&len) || pos_ + len > bytes_.size()) return false;
    out->assign(bytes_.begin() + static_cast<ptrdiff_t>(pos_),
                bytes_.begin() + static_cast<ptrdiff_t>(pos_ + len));
    pos_ += len;
    return true;
  }

  bool blob(std::vector<uint8_t>* out) {
    uint32_t len = 0;
    if (!u32(&len) || pos_ + len > bytes_.size()) return false;
    out->assign(bytes_.begin() + static_cast<ptrdiff_t>(pos_),
                bytes_.begin() + static_cast<ptrdiff_t>(pos_ + len));
    pos_ += len;
    return true;
  }

  bool symtab(std::vector<isa::Symbol>* out) {
    uint32_t n = 0;
    if (!u32(&n)) return false;
    out->clear();
    for (uint32_t i = 0; i < n; ++i) {
      isa::Symbol s;
      if (!str(&s.name) || !u32(&s.offset) || !u32(&s.size)) return false;
      out->push_back(std::move(s));
    }
    return true;
  }

  bool strtab(std::vector<std::string>* out) {
    uint32_t n = 0;
    if (!u32(&n)) return false;
    out->clear();
    for (uint32_t i = 0; i < n; ++i) {
      std::string s;
      if (!str(&s)) return false;
      out->push_back(std::move(s));
    }
    return true;
  }

  size_t pos() const { return pos_; }
  size_t size() const { return bytes_.size(); }

 private:
  const std::vector<uint8_t>& bytes_;
  size_t pos_ = 0;
};

}  // namespace

const isa::Symbol* SharedObject::find_export(std::string_view fn) const {
  for (const auto& s : exports) {
    if (s.name == fn) return &s;
  }
  return nullptr;
}

const isa::Symbol* SharedObject::symbol_at(uint32_t offset) const {
  const isa::Symbol* best = nullptr;
  auto consider = [&](const isa::Symbol& s) {
    if (s.offset <= offset && (!best || s.offset > best->offset)) best = &s;
  };
  for (const auto& s : exports) consider(s);
  for (const auto& s : locals) consider(s);
  return best;
}

std::vector<uint8_t> SharedObject::Serialize() const {
  std::vector<uint8_t> out;
  out.insert(out.end(), kMagic, kMagic + 4);
  PutU32(kVersion, &out);
  PutStr(name, &out);
  PutU32(tls_size, &out);
  PutBytes(code, &out);
  PutBytes(data, &out);
  PutSymtab(exports, &out);
  PutSymtab(locals, &out);
  PutStrtab(imports, &out);
  PutStrtab(needed, &out);
  PutU32(static_cast<uint32_t>(data_relocs.size()), &out);
  for (const auto& [data_off, code_off] : data_relocs) {
    PutU32(data_off, &out);
    PutU32(code_off, &out);
  }
  return out;
}

Result<SharedObject> SharedObject::Parse(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < 8 || !std::equal(kMagic, kMagic + 4, bytes.begin())) {
    return Err("sso: bad magic");
  }
  Reader r(bytes);
  uint32_t magic_skip = 0;
  (void)r.u32(&magic_skip);  // magic, validated above
  uint32_t version = 0;
  if (!r.u32(&version) || version != kVersion) return Err("sso: bad version");
  SharedObject so;
  if (!r.str(&so.name) || !r.u32(&so.tls_size) || !r.blob(&so.code) ||
      !r.blob(&so.data) || !r.symtab(&so.exports) || !r.symtab(&so.locals) ||
      !r.strtab(&so.imports) || !r.strtab(&so.needed)) {
    return Err("sso: truncated object");
  }
  uint32_t nrelocs = 0;
  if (!r.u32(&nrelocs)) return Err("sso: truncated object");
  for (uint32_t i = 0; i < nrelocs; ++i) {
    uint32_t data_off = 0, code_off = 0;
    if (!r.u32(&data_off) || !r.u32(&code_off)) return Err("sso: bad reloc");
    so.data_relocs.emplace_back(data_off, code_off);
  }
  if (Status st = CheckLimits(so); !st.ok()) return Err(st.error());
  if (r.pos() != r.size()) return Err("sso: trailing bytes");
  return so;
}

Status CheckLimits(const SharedObject& so) {
  if (so.code.size() > kMaxCodeBytes) return Err("sso: code section too big");
  if (so.data.size() > kMaxDataBytes) return Err("sso: data section too big");
  if (so.tls_size > kMaxTlsBytes) return Err("sso: TLS reservation too big");
  for (const auto& [data_off, code_off] : so.data_relocs) {
    // 64-bit: a u32 `data_off + 8` wraps for offsets near 2^32.
    if (uint64_t{data_off} + 8 > so.data.size() ||
        code_off >= so.code.size()) {
      return Err("sso: reloc out of range");
    }
  }
  for (const auto& s : so.exports) {
    if (s.offset > so.code.size()) return Err("sso: symbol out of range: " + s.name);
  }
  return Status::Ok();
}

std::string SharedObject::Disassembly() const {
  auto decoded = isa::Disassemble(code, 0, static_cast<uint32_t>(code.size()));
  if (!decoded.ok()) return "<disassembly failed: " + decoded.error() + ">";
  std::string out = Format("%s:\n", name.c_str());
  const isa::Symbol* last = nullptr;
  for (const auto& ins : decoded.value()) {
    const isa::Symbol* sym = symbol_at(ins.offset);
    if (sym && sym != last && sym->offset == ins.offset) {
      out += Format("\n%08x <%s>:\n", sym->offset, sym->name.c_str());
      last = sym;
    }
    std::string line = ins.ToString();
    if (ins.op == isa::Opcode::CALL_SYM && ins.u16 < imports.size()) {
      line += Format("   ; %s", imports[ins.u16].c_str());
    }
    out += line + "\n";
  }
  return out;
}

SharedObject FromCodeUnit(std::string name, isa::CodeUnit unit,
                          std::vector<std::string> needed) {
  SharedObject so;
  so.name = std::move(name);
  so.code = std::move(unit.code);
  so.data = std::move(unit.data);
  so.tls_size = unit.tls_size;
  so.exports = std::move(unit.exports);
  so.locals = std::move(unit.locals);
  so.imports = std::move(unit.imports);
  so.needed = std::move(needed);
  so.data_relocs = std::move(unit.data_relocs);
  return so;
}

}  // namespace lfi::sso
