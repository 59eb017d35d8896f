#include <gtest/gtest.h>

#include "sso/sso.hpp"

namespace lfi::sso {
namespace {

SharedObject Sample() {
  isa::CodeBuilder b;
  b.begin_function("alpha");
  b.mov_ri(isa::Reg::R0, -1);
  b.leave_ret();
  b.end_function();
  b.begin_function("helper", /*exported=*/false);
  b.ret();
  b.end_function();
  b.begin_function("beta");
  b.call_sym("read");
  b.leave_ret();
  b.end_function();
  b.reserve_tls(8);
  b.emit_data({9, 8, 7});
  return FromCodeUnit("libsample.so", b.Finish(), {"libc.so"});
}

TEST(Sso, SerializeParseRoundTrip) {
  SharedObject so = Sample();
  auto parsed = SharedObject::Parse(so.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  const SharedObject& p = parsed.value();
  EXPECT_EQ(p.name, so.name);
  EXPECT_EQ(p.code, so.code);
  EXPECT_EQ(p.data, so.data);
  EXPECT_EQ(p.tls_size, so.tls_size);
  ASSERT_EQ(p.exports.size(), 2u);
  EXPECT_EQ(p.exports[0].name, "alpha");
  EXPECT_EQ(p.exports[1].name, "beta");
  ASSERT_EQ(p.locals.size(), 1u);
  ASSERT_EQ(p.imports.size(), 1u);
  EXPECT_EQ(p.imports[0], "read");
  ASSERT_EQ(p.needed.size(), 1u);
  EXPECT_EQ(p.needed[0], "libc.so");
}

TEST(Sso, RelocsRoundTrip) {
  isa::CodeBuilder b;
  b.begin_function("f", true, true);
  b.ret();
  b.end_function();
  b.reserve_code_pointer(0);
  SharedObject so = FromCodeUnit("librel.so", b.Finish());
  auto parsed = SharedObject::Parse(so.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  ASSERT_EQ(parsed.value().data_relocs.size(), 1u);
  EXPECT_EQ(parsed.value().data_relocs[0].second, 0u);
}

TEST(Sso, StripRemovesLocalsOnly) {
  SharedObject so = Sample();
  ASSERT_FALSE(so.locals.empty());
  so.Strip();
  EXPECT_TRUE(so.locals.empty());
  EXPECT_EQ(so.exports.size(), 2u);  // dynamic symbols survive strip
}

TEST(Sso, FindExport) {
  SharedObject so = Sample();
  ASSERT_NE(so.find_export("alpha"), nullptr);
  ASSERT_NE(so.find_export("beta"), nullptr);
  EXPECT_EQ(so.find_export("helper"), nullptr);  // local, not exported
  EXPECT_EQ(so.find_export("nope"), nullptr);
}

TEST(Sso, SymbolAtFindsEnclosing) {
  SharedObject so = Sample();
  const isa::Symbol* alpha = so.find_export("alpha");
  const isa::Symbol* sym = so.symbol_at(alpha->offset + 2);
  ASSERT_NE(sym, nullptr);
  EXPECT_EQ(sym->name, "alpha");
}

TEST(Sso, ParseRejectsBadMagic) {
  std::vector<uint8_t> bytes = {'X', 'X', 'X', 'X', 0, 0, 0, 0};
  EXPECT_FALSE(SharedObject::Parse(bytes).ok());
}

TEST(Sso, ParseRejectsTruncation) {
  SharedObject so = Sample();
  std::vector<uint8_t> bytes = so.Serialize();
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{9}}) {
    std::vector<uint8_t> t(bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(SharedObject::Parse(t).ok()) << "cut=" << cut;
  }
}

TEST(Sso, ParseRejectsTrailingBytes) {
  std::vector<uint8_t> bytes = Sample().Serialize();
  bytes.push_back(0);
  EXPECT_FALSE(SharedObject::Parse(bytes).ok());
}

// Every invariant Loader::Load relies on is a Parse error, one regression
// per check: release builds compile the loader's asserts out, so a crafted
// object that parsed would write outside the module's buffers.
Result<SharedObject> ParseTampered(void (*tamper)(SharedObject&)) {
  SharedObject so = Sample();
  tamper(so);
  return SharedObject::Parse(so.Serialize());
}

TEST(Sso, ParseRejectsWrappingRelocOffset) {
  // 0xFFFFFFFC + 8 wraps to 4 in u32 arithmetic, which is inside a
  // 16-byte data section.
  auto parsed = ParseTampered([](SharedObject& so) {
    so.data.assign(16, 0);
    so.data_relocs = {{0xFFFFFFFCu, 0}};
  });
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error(), "sso: reloc out of range");
}

TEST(Sso, ParseRejectsRelocPastDataEnd) {
  auto parsed = ParseTampered([](SharedObject& so) {
    so.data.assign(16, 0);
    so.data_relocs = {{9, 0}};  // slot [9, 17) overruns by one byte
  });
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error(), "sso: reloc out of range");
}

TEST(Sso, ParseRejectsRelocTargetOutsideCode) {
  auto parsed = ParseTampered([](SharedObject& so) {
    so.data.assign(16, 0);
    so.data_relocs = {{0, static_cast<uint32_t>(so.code.size())}};
  });
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error(), "sso: reloc out of range");
}

TEST(Sso, ParseRejectsOversizedTls) {
  auto parsed =
      ParseTampered([](SharedObject& so) { so.tls_size = 0xFFFFFFF0u; });
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error(), "sso: TLS reservation too big");
  // The limit itself still loads: one module may take the whole segment.
  EXPECT_TRUE(ParseTampered([](SharedObject& so) {
                so.tls_size = kMaxTlsBytes;
              }).ok());
}

TEST(Sso, ParseRejectsOversizedCode) {
  auto parsed = ParseTampered(
      [](SharedObject& so) { so.code.resize(kMaxCodeBytes + 1, 0); });
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error(), "sso: code section too big");
}

TEST(Sso, ParseRejectsOversizedData) {
  auto parsed = ParseTampered(
      [](SharedObject& so) { so.data.resize(kMaxDataBytes + 1, 0); });
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error(), "sso: data section too big");
}

TEST(Sso, ParseRejectsExportOutsideCode) {
  auto parsed = ParseTampered([](SharedObject& so) {
    so.exports[0].offset = static_cast<uint32_t>(so.code.size()) + 1;
  });
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().rfind("sso: symbol out of range", 0), 0u)
      << parsed.error();
}

TEST(Sso, DisassemblyListsFunctions) {
  SharedObject so = Sample();
  std::string dis = so.Disassembly();
  EXPECT_NE(dis.find("<alpha>"), std::string::npos);
  EXPECT_NE(dis.find("<beta>"), std::string::npos);
  EXPECT_NE(dis.find("; read"), std::string::npos);  // import annotation
}

TEST(Sso, StrippedDisassemblyStillWorks) {
  SharedObject so = Sample();
  so.Strip();
  std::string dis = so.Disassembly();
  EXPECT_NE(dis.find("<alpha>"), std::string::npos);
}

}  // namespace
}  // namespace lfi::sso
