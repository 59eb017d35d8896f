#include <gtest/gtest.h>

#include "core/profiler.hpp"
#include "corpus/libgen.hpp"
#include "corpus/table1_corpus.hpp"
#include "corpus/table2_corpus.hpp"
#include "kernel/kernel_image.hpp"
#include "test_helpers.hpp"

namespace lfi::corpus {
namespace {

LibrarySpec SmallSpec() {
  LibrarySpec spec;
  spec.name = "libtest.so";
  spec.seed = 11;
  FunctionSpec fn;
  fn.name = "f";
  fn.arg_count = 2;
  fn.detectable_documented = {-3, -7};
  fn.undetectable_documented = {-11};
  fn.detectable_undocumented = {-13};
  spec.functions.push_back(fn);
  return spec;
}

std::map<std::string, std::set<int64_t>> ProfileCodes(
    const GeneratedLibrary& lib) {
  static const sso::SharedObject kernel = kernel::BuildKernelImage();
  analysis::Workspace ws;
  ws.SetKernel(&kernel);
  ws.AddModule(&lib.object);
  core::Profiler profiler(ws);
  auto profile = profiler.ProfileLibrary(lib.object);
  EXPECT_TRUE(profile.ok());
  std::map<std::string, std::set<int64_t>> out;
  for (const auto& fn : profile.value().functions) {
    for (const auto& ec : fn.error_codes) out[fn.name].insert(ec.retval);
  }
  return out;
}

TEST(LibGen, DetectableCodesFoundByProfiler) {
  GeneratedLibrary lib = GenerateLibrary(SmallSpec());
  auto found = ProfileCodes(lib);
  EXPECT_TRUE(found["f"].count(-3));
  EXPECT_TRUE(found["f"].count(-7));
  EXPECT_TRUE(found["f"].count(-13));  // undocumented but detectable
}

TEST(LibGen, UndetectableCodesMissedByProfiler) {
  // The indirect-call construct hides -11 from static analysis (§3.1).
  GeneratedLibrary lib = GenerateLibrary(SmallSpec());
  auto found = ProfileCodes(lib);
  EXPECT_FALSE(found["f"].count(-11));
}

TEST(LibGen, DocumentationAndActualDiffer) {
  GeneratedLibrary lib = GenerateLibrary(SmallSpec());
  // docs: detectable_documented + undetectable_documented
  EXPECT_EQ(lib.documentation.at("f"),
            (std::set<int64_t>{-3, -7, -11}));
  // actual: everything the binary can really return
  EXPECT_EQ(lib.actual.at("f"), (std::set<int64_t>{-3, -7, -11, -13}));
}

TEST(LibGen, GeneratedFunctionsActuallyReturnTheirCodes) {
  // Runtime ground truth: calling f(selector) returns the selected error
  // code — including the indirect one the profiler cannot see.
  GeneratedLibrary lib = GenerateLibrary(SmallSpec());
  vm::Machine machine;
  machine.Load(lib.object).value();
  isa::CodeBuilder b;
  b.begin_function("main");
  b.sub_ri(isa::Reg::SP, 16);
  b.store_i(isa::Reg::BP, -8, 0);
  // Call f(1), f(2), f(3), f(4): accumulate sum of returns.
  for (int sel = 1; sel <= 4; ++sel) {
    b.mov_ri(isa::Reg::R1, sel);
    b.mov_ri(isa::Reg::R2, 0);
    b.call_named("f", {isa::Reg::R1, isa::Reg::R2});
    b.load(isa::Reg::R1, isa::Reg::BP, -8);
    b.add_rr(isa::Reg::R1, isa::Reg::R0);
    b.store(isa::Reg::BP, -8, isa::Reg::R1);
  }
  b.load(isa::Reg::R0, isa::Reg::BP, -8);
  b.leave_ret();
  b.end_function();
  machine.Load(sso::FromCodeUnit("main.so", b.Finish(), {"libtest.so"})).value();
  auto r = test::RunEntry(machine, "main");
  ASSERT_EQ(r.state, vm::ProcState::Exited) << r.fault;
  EXPECT_EQ(r.exit_code, -3 + -7 + -13 + -11);  // selector order of emission
}

TEST(LibGen, ShortPredicateShape) {
  LibrarySpec spec;
  spec.name = "libp.so";
  FunctionSpec fn;
  fn.name = "isFile";
  fn.short_predicate = true;
  spec.functions.push_back(fn);
  GeneratedLibrary lib = GenerateLibrary(spec);
  auto found = ProfileCodes(lib);
  EXPECT_EQ(found["isFile"], (std::set<int64_t>{0, 1}));
}

TEST(LibGen, ChannelValuesEmitted) {
  LibrarySpec spec;
  spec.name = "libc2.so";
  FunctionSpec fn;
  fn.name = "g";
  fn.arg_count = 2;
  fn.detectable_documented = {-1};
  fn.channel = ErrorChannel::Tls;
  fn.channel_values = {5};
  spec.functions.push_back(fn);
  GeneratedLibrary lib = GenerateLibrary(spec);

  static const sso::SharedObject kernel = kernel::BuildKernelImage();
  analysis::Workspace ws;
  ws.SetKernel(&kernel);
  ws.AddModule(&lib.object);
  core::Profiler profiler(ws);
  auto profile = profiler.ProfileLibrary(lib.object);
  ASSERT_TRUE(profile.ok());
  const core::FunctionProfile* g = profile.value().function("g");
  ASSERT_NE(g, nullptr);
  ASSERT_FALSE(g->error_codes.empty());
  bool has_tls = false;
  for (const auto& se : g->error_codes[0].side_effects) {
    has_tls |= se.type == core::ProfileSideEffect::Type::Tls;
  }
  EXPECT_TRUE(has_tls);
}

TEST(LibGen, ScoreAgainstDocsCountsCorrectly) {
  std::map<std::string, std::set<int64_t>> docs = {{"f", {-1, -2, -3}}};
  std::map<std::string, std::set<int64_t>> found = {{"f", {-1, -2, -9}}};
  AccuracyCount c = ScoreAgainstDocs(docs, found);
  EXPECT_EQ(c.tp, 2u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_NEAR(c.accuracy(), 0.5, 1e-9);
}

TEST(LibGen, ScoreHandlesDisjointFunctionSets) {
  std::map<std::string, std::set<int64_t>> docs = {{"only_doc", {-1}}};
  std::map<std::string, std::set<int64_t>> found = {{"only_found", {-2}}};
  AccuracyCount c = ScoreAgainstDocs(docs, found);
  EXPECT_EQ(c.tp, 0u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.fp, 1u);
}

// ---- Table 2 -------------------------------------------------------------------

TEST(Table2, ReferenceHas18Entries) {
  EXPECT_EQ(Table2Reference().size(), 18u);
}

TEST(Table2, GeneratedCodeBudgetsMatchPaperCounts) {
  // For a mid-size entry, the spec's TP/FN/FP code budgets must be fully
  // distributed across the generated functions.
  const Table2Entry& entry = Table2Reference()[9];  // libdmx: 26/8/0
  GeneratedLibrary lib = GenerateTable2Library(entry, 42);
  size_t tp = 0, fn = 0, fp = 0;
  for (const auto& f : lib.spec.functions) {
    tp += f.detectable_documented.size();
    fn += f.undetectable_documented.size();
    fp += f.detectable_undocumented.size();
  }
  EXPECT_EQ(tp, entry.paper_tp);
  EXPECT_EQ(fn, entry.paper_fn);
  EXPECT_EQ(fp, entry.paper_fp);
  EXPECT_EQ(lib.spec.functions.size(), entry.function_count);
}

TEST(Table2, MeasuredAccuracyTracksPaper) {
  // Run the real profiler against a generated library and score against
  // its documentation: the result must land on the paper's accuracy.
  const Table2Entry& entry = Table2Reference()[9];  // libdmx: 76%
  GeneratedLibrary lib = GenerateTable2Library(entry, 42);
  auto found = ProfileCodes(lib);
  AccuracyCount c = ScoreAgainstDocs(lib.documentation, found);
  EXPECT_EQ(c.tp, entry.paper_tp);
  EXPECT_EQ(c.fn, entry.paper_fn);
  EXPECT_EQ(c.fp, entry.paper_fp);
  EXPECT_NEAR(c.accuracy() * 100, entry.paper_accuracy_pct, 2.0);
}

TEST(Table2, LibpcreManualGroundTruth) {
  // §6.3: scored against the binary's actual behaviour, not docs.
  const Table2Entry& entry = LibpcreReference();
  GeneratedLibrary lib = GenerateTable2Library(entry, 7);
  auto found = ProfileCodes(lib);
  AccuracyCount c = ScoreAgainstDocs(lib.actual, found);
  EXPECT_EQ(c.tp, entry.paper_tp);
  EXPECT_EQ(c.fn, entry.paper_fn);
  EXPECT_NEAR(c.accuracy() * 100, 84.0, 2.0);
}

// ---- Table 1 -------------------------------------------------------------------

TEST(Table1, FractionsSumToOne) {
  double total = 0;
  for (const auto& cell : Table1Reference()) total += cell.fraction;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Table1, CorpusMatchesRequestedSize) {
  Table1Corpus corpus = GenerateTable1Corpus(5, 500, 4);
  EXPECT_EQ(corpus.total_functions, 500u);
  EXPECT_EQ(corpus.libraries.size(), 4u);
}

TEST(Table1, PrototypeDistributionFollowsReference) {
  Table1Corpus corpus = GenerateTable1Corpus(5, 2000, 8);
  size_t void_count = 0, scalar = 0, pointer = 0;
  for (const auto& lib : corpus.libraries) {
    for (const auto& [name, kind] : lib.prototypes) {
      if (kind == ReturnKind::Void) ++void_count;
      else if (kind == ReturnKind::Scalar) ++scalar;
      else ++pointer;
    }
  }
  double total = static_cast<double>(corpus.total_functions);
  EXPECT_NEAR(void_count / total, 0.23, 0.02);
  EXPECT_NEAR(scalar / total, 0.61, 0.02);
  EXPECT_NEAR(pointer / total, 0.16, 0.02);
}

TEST(Table1, ChannelsMeasurableByProfiler) {
  // Spot-check: a small corpus's Arg-channel functions are classified as
  // such by the side-effects analysis.
  Table1Corpus corpus = GenerateTable1Corpus(9, 300, 2);
  static const sso::SharedObject kernel = kernel::BuildKernelImage();
  size_t arg_expected = 0, arg_found = 0;
  for (const auto& lib : corpus.libraries) {
    analysis::Workspace ws;
    ws.SetKernel(&kernel);
    ws.AddModule(&lib.object);
    analysis::ConstPropAnalyzer analyzer(ws);
    for (const auto& fspec : lib.spec.functions) {
      if (fspec.channel != ErrorChannel::Arg) continue;
      ++arg_expected;
      auto effects = analyzer.ScanAllEffects(lib.object, fspec.name);
      ASSERT_TRUE(effects.ok());
      for (const auto& e : effects.value()) {
        if (e.kind == analysis::SideEffect::Kind::Arg) {
          ++arg_found;
          break;
        }
      }
    }
  }
  ASSERT_GT(arg_expected, 0u);
  EXPECT_EQ(arg_found, arg_expected);
}

}  // namespace
}  // namespace lfi::corpus
