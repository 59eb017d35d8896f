// Wire protocol unit tests: exact round trips for every payload type
// (doubles must survive bit-for-bit — the fabric's byte-identity story
// depends on it), framing over a real socketpair, and rejection of
// malformed or truncated input.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <thread>

#include "serve/coordinator.hpp"
#include "serve/wire.hpp"
#include "sso/sso.hpp"

namespace lfi::serve {
namespace {

core::Plan SamplePlan() {
  core::Plan plan;
  plan.seed = 0xDEADBEEFCAFE1234ull;
  core::FunctionTrigger t1;
  t1.function = "read";
  t1.mode = core::FunctionTrigger::Mode::Probability;
  // Needs all 17 significant digits: a transport that rounds it would
  // run a slightly different scenario.
  t1.probability = 0.12345678901234567;
  t1.retval = -1;
  t1.errno_value = 9;
  t1.max_injections = 3;
  core::FrameCondition frame;
  frame.address = 0xb824490;
  t1.stacktrace.push_back(frame);
  core::FrameCondition frame2;
  frame2.symbol = "refresh_files";
  t1.stacktrace.push_back(frame2);
  plan.triggers.push_back(t1);
  core::FunctionTrigger t2;
  t2.function = "write";
  t2.mode = core::FunctionTrigger::Mode::CallCount;
  t2.inject_call = 20;
  t2.call_original = true;
  core::ArgModification mod;
  mod.argument = 3;
  mod.op = core::ArgModification::Op::Sub;
  mod.value = -10;
  t2.modifications.push_back(mod);
  plan.triggers.push_back(t2);
  core::SeuFault seu;
  seu.target = core::SeuFault::Target::Data;
  seu.module = "app.so";
  seu.offset = 0x48;
  seu.bit = 63;
  seu.at_instruction = 0xFFFF'FFFF'0ull;
  seu.pid = 2;
  seu.window_module = "libc.so";
  seu.window_begin = 0x100;
  seu.window_end = 0x180;
  plan.seus.push_back(seu);
  core::SeuFault seu2;
  seu2.target = core::SeuFault::Target::Reg;
  seu2.reg = 9;
  seu2.bit = 0;
  seu2.at_instruction = 1;
  plan.seus.push_back(seu2);
  return plan;
}

void ExpectSamePlan(const core::Plan& a, const core::Plan& b) {
  ASSERT_EQ(a.triggers.size(), b.triggers.size());
  EXPECT_EQ(a.seed, b.seed);
  for (size_t i = 0; i < a.triggers.size(); ++i) {
    const core::FunctionTrigger& ta = a.triggers[i];
    const core::FunctionTrigger& tb = b.triggers[i];
    EXPECT_EQ(ta.function, tb.function);
    EXPECT_EQ(ta.mode, tb.mode);
    EXPECT_EQ(ta.inject_call, tb.inject_call);
    // Bit-exact, not approximately equal — that is the point.
    EXPECT_EQ(std::bit_cast<uint64_t>(ta.probability),
              std::bit_cast<uint64_t>(tb.probability));
    EXPECT_EQ(ta.retval, tb.retval);
    EXPECT_EQ(ta.errno_value, tb.errno_value);
    EXPECT_EQ(ta.call_original, tb.call_original);
    EXPECT_EQ(ta.max_injections, tb.max_injections);
    ASSERT_EQ(ta.stacktrace.size(), tb.stacktrace.size());
    for (size_t f = 0; f < ta.stacktrace.size(); ++f) {
      EXPECT_EQ(ta.stacktrace[f].address, tb.stacktrace[f].address);
      EXPECT_EQ(ta.stacktrace[f].symbol, tb.stacktrace[f].symbol);
    }
    ASSERT_EQ(ta.modifications.size(), tb.modifications.size());
    for (size_t m = 0; m < ta.modifications.size(); ++m) {
      EXPECT_EQ(ta.modifications[m].argument, tb.modifications[m].argument);
      EXPECT_EQ(ta.modifications[m].op, tb.modifications[m].op);
      EXPECT_EQ(ta.modifications[m].value, tb.modifications[m].value);
    }
  }
  ASSERT_EQ(a.seus.size(), b.seus.size());
  for (size_t i = 0; i < a.seus.size(); ++i) {
    const core::SeuFault& sa = a.seus[i];
    const core::SeuFault& sb = b.seus[i];
    EXPECT_EQ(sa.target, sb.target);
    EXPECT_EQ(sa.reg, sb.reg);
    EXPECT_EQ(sa.offset, sb.offset);
    EXPECT_EQ(sa.module, sb.module);
    EXPECT_EQ(sa.bit, sb.bit);
    EXPECT_EQ(sa.at_instruction, sb.at_instruction);
    EXPECT_EQ(sa.pid, sb.pid);
    EXPECT_EQ(sa.window_module, sb.window_module);
    EXPECT_EQ(sa.window_begin, sb.window_begin);
    EXPECT_EQ(sa.window_end, sb.window_end);
  }
}

// Plans, scenarios, options, results and bitmaps travel inside messages;
// these wrap one value in the smallest message that carries it.

BatchMsg BatchOf(const core::Plan& plan) {
  BatchMsg msg;
  campaign::Scenario s;
  s.name = "s";
  s.plan = plan;
  msg.indices.push_back(0);
  msg.scenarios.push_back(s);
  return msg;
}

BatchResultMsg ReplayOf(const core::Plan& plan) {
  BatchResultMsg msg;
  campaign::ScenarioResult res;
  res.replay = plan;
  msg.results.push_back(res);
  return msg;
}

ConfigureMsg ConfigureOf(const campaign::CampaignOptions& options) {
  ConfigureMsg msg;
  msg.options = options;
  return msg;
}

/// Bytes before the options in a ConfigureOf: four empty-collection counts.
constexpr size_t kOptionsOffset = 4 * 4;

BatchResultMsg CoverageOf(const vm::CoverageBitmap& bitmap) {
  BatchResultMsg msg;
  msg.coverage.emplace_back("m", bitmap);
  return msg;
}

/// Bytes before the bitmap in a CoverageOf: two counts and the name "m".
constexpr size_t kBitmapOffset = 4 + 4 + 4 + 1;

TEST(Wire, PlanRoundTripIsExact) {
  auto decoded = DecodeBatch(EncodeBatch(BatchOf(SamplePlan())));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  ExpectSamePlan(SamplePlan(), decoded.value().scenarios[0].plan);
}

TEST(Wire, BothTransportsPreserveProbabilityBits) {
  core::Plan plan = SamplePlan();
  // The XML path prints %.17g now, so it round-trips this probability
  // exactly too — the wire stays binary anyway (byte identity by
  // construction, not by printf/strtod agreeing), and both transports
  // must deliver the same bits.
  auto xml_round = core::Plan::FromXml(plan.ToXml());
  ASSERT_TRUE(xml_round.ok());
  EXPECT_EQ(std::bit_cast<uint64_t>(plan.triggers[0].probability),
            std::bit_cast<uint64_t>(xml_round.value().triggers[0].probability));
  auto decoded = DecodeBatch(EncodeBatch(BatchOf(plan)));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::bit_cast<uint64_t>(plan.triggers[0].probability),
            std::bit_cast<uint64_t>(
                decoded.value().scenarios[0].plan.triggers[0].probability));
}

TEST(Wire, ScenarioRoundTrip) {
  campaign::Scenario s;
  s.name = "random-p0.3-17";
  s.plan = SamplePlan();
  s.entry = "handle_request";
  s.heap_cap_bytes = 1 << 22;
  s.warmup_instructions = 12345;
  BatchMsg batch;
  batch.indices.push_back(0);
  batch.scenarios.push_back(s);
  auto decoded = DecodeBatch(EncodeBatch(batch));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  const campaign::Scenario& d = decoded.value().scenarios[0];
  EXPECT_EQ(d.name, s.name);
  EXPECT_EQ(d.entry, s.entry);
  EXPECT_EQ(d.heap_cap_bytes, s.heap_cap_bytes);
  EXPECT_EQ(d.warmup_instructions, s.warmup_instructions);
  ExpectSamePlan(s.plan, d.plan);
}

TEST(Wire, OptionsRoundTrip) {
  campaign::CampaignOptions o;
  o.jobs = 4;
  o.entry = "start";
  o.max_instructions = 123456789;
  o.default_heap_cap = 1 << 21;
  o.track_coverage = true;
  o.collect_scenario_coverage = true;
  o.collect_replays = true;
  o.snapshot = true;
  o.warmup_instructions = 4096;
  o.collect_state_digest = true;
  o.exec_mode = vm::ExecMode::Reference;
  o.controller.log_backtraces = false;
  o.controller.log_capacity = 42;
  o.controller.feasible_only = true;
  auto decoded = Decode<ConfigureMsg>(Encode(ConfigureOf(o)));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  const campaign::CampaignOptions& d = decoded.value().options;
  EXPECT_EQ(d.jobs, o.jobs);
  EXPECT_EQ(d.entry, o.entry);
  EXPECT_EQ(d.max_instructions, o.max_instructions);
  EXPECT_EQ(d.default_heap_cap, o.default_heap_cap);
  EXPECT_EQ(d.track_coverage, o.track_coverage);
  EXPECT_EQ(d.collect_scenario_coverage, o.collect_scenario_coverage);
  EXPECT_EQ(d.collect_replays, o.collect_replays);
  EXPECT_EQ(d.snapshot, o.snapshot);
  EXPECT_EQ(d.warmup_instructions, o.warmup_instructions);
  EXPECT_EQ(d.collect_state_digest, o.collect_state_digest);
  EXPECT_EQ(d.exec_mode, o.exec_mode);
  EXPECT_EQ(d.controller.log_enabled, o.controller.log_enabled);
  EXPECT_EQ(d.controller.log_backtraces, o.controller.log_backtraces);
  EXPECT_EQ(d.controller.log_capacity, o.controller.log_capacity);
  EXPECT_EQ(d.controller.feasible_only, o.controller.feasible_only);
}

TEST(Wire, FeasibleOnlyDefaultsOffOnTheWire) {
  // A coordinator not opting in must not accidentally set the bit: the
  // fabric's gate state has to match the in-process controller's exactly
  // or distributed rounds diverge from local ones.
  auto decoded = Decode<ConfigureMsg>(Encode(ConfigureMsg()));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_FALSE(decoded.value().options.controller.feasible_only);
}

TEST(Wire, OptionsRejectUnknownFlagBits) {
  std::vector<uint8_t> good = Encode(ConfigureMsg());
  // The flags byte follows jobs (i64), entry (u32 length + bytes),
  // max_instructions and default_heap_cap (u64 each).
  const size_t flags_off =
      kOptionsOffset + 8 + 4 + std::string("main").size() + 8 + 8;
  ASSERT_EQ(good[flags_off], 0u);
  // Bit 4 (the retired flat-vs-tree snapshot switch) and bit 7 are
  // undefined; every defined bit still decodes.
  for (int bit = 0; bit < 8; ++bit) {
    std::vector<uint8_t> buf = good;
    buf[flags_off] = static_cast<uint8_t>(1u << bit);
    auto decoded = Decode<ConfigureMsg>(buf);
    SCOPED_TRACE("bit " + std::to_string(bit));
    EXPECT_EQ(decoded.ok(), bit != 4 && bit != 7);
  }
}

// A worker still speaking the previous protocol version answers Hello with
// its own version; the coordinator must refuse it before sending Configure.
TEST(Wire, HandshakeRejectsPreviousVersion) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread old_worker([fd = fds[1]] {
    auto hello = ReadFrame(fd, 5000);
    ASSERT_TRUE(hello.ok()) << hello.error();
    EXPECT_EQ(hello.value().type, MsgType::Hello);
    EXPECT_TRUE(
        WriteFrame(fd, MsgType::Hello, Encode(HelloMsg{kWireVersion - 1}))
            .ok());
    ::close(fd);
  });
  FabricCoordinator fabric(TargetSpec{}, {}, campaign::CampaignOptions());
  Status st = fabric.AddWorkerFd(fds[0], "v4");
  old_worker.join();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().find("version mismatch"), std::string::npos)
      << st.error();
  EXPECT_EQ(fabric.live_workers(), 0u);
}

vm::CoverageBitmap RoundTripBitmap(const vm::CoverageBitmap& bitmap) {
  auto decoded = DecodeBatchResult(EncodeBatchResult(CoverageOf(bitmap)));
  EXPECT_TRUE(decoded.ok()) << decoded.error();
  return decoded.ok() ? decoded.value().coverage[0].second
                      : vm::CoverageBitmap();
}

TEST(Wire, BitmapRoundTrip) {
  vm::CoverageBitmap bitmap(1000);
  for (uint32_t off : {0u, 1u, 63u, 64u, 517u, 999u}) bitmap.Set(off);
  vm::CoverageBitmap decoded = RoundTripBitmap(bitmap);
  EXPECT_EQ(decoded, bitmap);
  EXPECT_EQ(decoded.size_bits(), bitmap.size_bits());
  EXPECT_EQ(decoded.words(), bitmap.words());
}

TEST(Wire, EmptyBitmapsRoundTrip) {
  for (size_t bits : {size_t{0}, size_t{1}, size_t{64}, size_t{1000}}) {
    SCOPED_TRACE("bits " + std::to_string(bits));
    vm::CoverageBitmap bitmap(bits);
    vm::CoverageBitmap decoded = RoundTripBitmap(bitmap);
    EXPECT_EQ(decoded.size_bits(), bits);
    EXPECT_EQ(decoded.words(), bitmap.words());
    EXPECT_EQ(decoded.Count(), 0u);
  }
}

// Sizes that end mid-word keep their last offset and their exact size.
TEST(Wire, BitmapWithPartialLastWordRoundTrips) {
  for (size_t bits : {size_t{1}, size_t{63}, size_t{65}, size_t{130}}) {
    SCOPED_TRACE("bits " + std::to_string(bits));
    vm::CoverageBitmap bitmap(bits);
    for (uint32_t off = 0; off < bits; off += 3) bitmap.Set(off);
    bitmap.Set(static_cast<uint32_t>(bits - 1));
    vm::CoverageBitmap decoded = RoundTripBitmap(bitmap);
    EXPECT_EQ(decoded.size_bits(), bits);
    EXPECT_EQ(decoded.words(), bitmap.words());
  }
}

// v5 sends only the non-zero words: 12 header bytes, 12 per word.
TEST(Wire, BitmapCarriesOnlyNonZeroWords) {
  vm::CoverageBitmap bitmap(64 * 100);
  bitmap.Set(5);
  bitmap.Set(6);
  bitmap.Set(64 * 70 + 1);
  EXPECT_EQ(EncodeBatchResult(CoverageOf(bitmap)).size() - kBitmapOffset,
            12u + 2 * 12u);
}

/// Append `v` as a `bytes`-wide little-endian integer: hand-built payloads.
void PutLe(std::vector<uint8_t>& out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

/// A hand-built v5 bitmap: [bits u64] [n u32] then (index u32, word u64).
std::vector<uint8_t> RawBitmap(
    uint64_t bits, const std::vector<std::pair<uint32_t, uint64_t>>& words) {
  std::vector<uint8_t> buf;
  PutLe(buf, bits, 8);
  PutLe(buf, words.size(), 4);
  for (const auto& [index, word] : words) {
    PutLe(buf, index, 4);
    PutLe(buf, word, 8);
  }
  return buf;
}

bool DecodesOk(const std::vector<uint8_t>& bitmap) {
  std::vector<uint8_t> payload =
      EncodeBatchResult(CoverageOf(vm::CoverageBitmap()));
  payload.resize(kBitmapOffset);
  payload.insert(payload.end(), bitmap.begin(), bitmap.end());
  return DecodeBatchResult(payload).ok();
}

TEST(Wire, BitmapRejectsOutOfRangeOffset) {
  // 100 bits end at bit 35 of word 1; bit 36 of word 1 is offset 100.
  EXPECT_TRUE(DecodesOk(RawBitmap(100, {{1, uint64_t{1} << 35}})));
  EXPECT_FALSE(DecodesOk(RawBitmap(100, {{1, uint64_t{1} << 36}})));
  EXPECT_FALSE(DecodesOk(RawBitmap(100, {{1, ~uint64_t{0}}})));
}

TEST(Wire, BitmapRejectsMalformedWords) {
  EXPECT_TRUE(DecodesOk(RawBitmap(256, {{0, 1}, {3, 2}})));
  // A zero word is never sent.
  EXPECT_FALSE(DecodesOk(RawBitmap(256, {{0, 1}, {3, 0}})));
  // Indices strictly ascend: repeated and descending are both malformed.
  EXPECT_FALSE(DecodesOk(RawBitmap(256, {{2, 1}, {2, 4}})));
  EXPECT_FALSE(DecodesOk(RawBitmap(256, {{3, 1}, {1, 4}})));
  // An index past the word count (256 bits = 4 words).
  EXPECT_FALSE(DecodesOk(RawBitmap(256, {{4, 1}})));
  EXPECT_FALSE(DecodesOk(RawBitmap(0, {{0, 1}})));
  // More words than the size allows.
  EXPECT_FALSE(DecodesOk(RawBitmap(64, {{0, 1}, {1, 1}})));
}

// The size is checked before the bitmap is allocated: a hostile peer
// cannot make a worker allocate more than one module's code section.
TEST(Wire, BitmapRejectsSizeAboveCodeCap) {
  EXPECT_TRUE(DecodesOk(RawBitmap(sso::kMaxCodeBytes, {})));
  EXPECT_FALSE(DecodesOk(RawBitmap(sso::kMaxCodeBytes + 1, {})));
  EXPECT_FALSE(DecodesOk(RawBitmap(~uint64_t{0}, {})));
}

TEST(Wire, TruncatedBitmapIsRejectedAtEveryLength) {
  vm::CoverageBitmap bitmap(1000);
  for (uint32_t off : {3u, 64u, 200u, 999u}) bitmap.Set(off);
  std::vector<uint8_t> buf = EncodeBatchResult(CoverageOf(bitmap));
  buf.erase(buf.begin(), buf.begin() + kBitmapOffset);
  for (size_t len = 0; len < buf.size(); ++len) {
    SCOPED_TRACE("length " + std::to_string(len));
    std::vector<uint8_t> cut(buf.begin(), buf.begin() + len);
    EXPECT_FALSE(DecodesOk(cut));
  }
}

TEST(Wire, ResultRoundTrip) {
  campaign::ScenarioResult res;
  res.index = 17;
  res.name = "s17";
  res.status = campaign::ScenarioStatus::Crashed;
  res.exit_code = -1;
  res.signal = vm::Signal::Segv;
  res.fault_message = "load fault at 0xfffffff8";
  res.injections = 3;
  res.instructions = 123456;
  res.seconds = 0.001953125;
  res.covered_offsets = 321;
  res.covered_by_module["readerapp.so"] = 100;
  res.covered_by_module["libc.so"] = 221;
  vm::CoverageBitmap bitmap(256);
  bitmap.Set(3);
  bitmap.Set(250);
  res.coverage["readerapp.so"] = bitmap;
  res.fault_frames = {"read+0x12", "main+0x40"};
  res.crash_site_hash = 0x1111222233334444ull;
  res.crash_hash = 0x5555666677778888ull;
  res.replay = SamplePlan();
  res.first_injection_instructions = 777;
  res.snapshot_fallback = true;
  res.restore_pages = 12;
  res.restore_nodes_walked = 2;
  res.state_digest = 0x9999AAAABBBBCCCCull;
  res.seu_landed = 1;

  BatchResultMsg msg;
  msg.results.push_back(res);
  auto decoded = DecodeBatchResult(EncodeBatchResult(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  const campaign::ScenarioResult& d = decoded.value().results[0];
  EXPECT_EQ(d.index, res.index);
  EXPECT_EQ(d.name, res.name);
  EXPECT_EQ(d.status, res.status);
  EXPECT_EQ(d.exit_code, res.exit_code);
  EXPECT_EQ(d.signal, res.signal);
  EXPECT_EQ(d.fault_message, res.fault_message);
  EXPECT_EQ(d.injections, res.injections);
  EXPECT_EQ(d.instructions, res.instructions);
  EXPECT_EQ(std::bit_cast<uint64_t>(d.seconds),
            std::bit_cast<uint64_t>(res.seconds));
  EXPECT_EQ(d.covered_offsets, res.covered_offsets);
  EXPECT_EQ(d.covered_by_module, res.covered_by_module);
  EXPECT_EQ(d.coverage, res.coverage);
  EXPECT_EQ(d.fault_frames, res.fault_frames);
  EXPECT_EQ(d.crash_site_hash, res.crash_site_hash);
  EXPECT_EQ(d.crash_hash, res.crash_hash);
  ExpectSamePlan(res.replay, d.replay);
  EXPECT_EQ(d.first_injection_instructions, res.first_injection_instructions);
  EXPECT_EQ(d.snapshot_fallback, res.snapshot_fallback);
  EXPECT_EQ(d.restore_pages, res.restore_pages);
  EXPECT_EQ(d.restore_nodes_walked, res.restore_nodes_walked);
  EXPECT_EQ(d.state_digest, res.state_digest);
  EXPECT_EQ(d.seu_landed, res.seu_landed);
}

TEST(Wire, PlanRejectsBadSeuFields) {
  // A malformed peer must not smuggle an out-of-range target or bit index
  // past the decoder: corrupt the encoded bytes and expect errors.
  core::Plan plan;
  core::SeuFault seu;
  seu.target = core::SeuFault::Target::Reg;
  seu.reg = 3;
  seu.bit = 17;
  seu.at_instruction = 5;
  plan.seus.push_back(seu);
  std::vector<uint8_t> good = EncodeBatch(BatchOf(plan));

  // The plan follows the batch count u32, the index u64 and the name "s";
  // after its seed and (empty) trigger section come the seu count u32,
  // then target u8 at a fixed offset.
  size_t target_off = 4 + 8 + 4 + 1 + 8 + 4 + 4;
  std::vector<uint8_t> bad = good;
  bad[target_off] = 7;  // no such target
  EXPECT_FALSE(DecodeBatch(bad).ok());

  bad = good;
  size_t bit_off = target_off + 1 + 8 + 8 + 4;  // + target, reg, offset, str
  bad[bit_off] = 64;  // bit out of range
  EXPECT_FALSE(DecodeBatch(bad).ok());
}

TEST(Wire, ConfigureRoundTrip) {
  ConfigureMsg msg;
  msg.target.modules.push_back({1, 2, 3, 4});
  msg.target.modules.push_back({});
  msg.target.files.emplace_back("/cfg", std::vector<uint8_t>(64, 'x'));
  msg.target.ports.push_back(8080);
  core::FaultProfile profile;
  profile.library = "libc.so";
  msg.profiles.push_back(profile);
  msg.options.entry = "main";
  msg.options.track_coverage = true;
  auto decoded = Decode<ConfigureMsg>(Encode(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value().target.modules, msg.target.modules);
  EXPECT_EQ(decoded.value().target.files, msg.target.files);
  EXPECT_EQ(decoded.value().target.ports, msg.target.ports);
  ASSERT_EQ(decoded.value().profiles.size(), 1u);
  EXPECT_EQ(decoded.value().profiles[0].library, "libc.so");
  EXPECT_EQ(decoded.value().options.entry, "main");
  EXPECT_TRUE(decoded.value().options.track_coverage);
}

TEST(Wire, BatchAndResultMessagesRoundTrip) {
  BatchMsg batch;
  campaign::Scenario s;
  s.name = "s9";
  s.plan = SamplePlan();
  batch.indices.push_back(9);
  batch.scenarios.push_back(s);
  auto decoded = DecodeBatch(EncodeBatch(batch));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  ASSERT_EQ(decoded.value().indices.size(), 1u);
  EXPECT_EQ(decoded.value().indices[0], 9u);
  EXPECT_EQ(decoded.value().scenarios[0].name, "s9");

  BatchResultMsg result;
  campaign::ScenarioResult res;
  res.index = 9;
  res.name = "s9";
  result.results.push_back(res);
  vm::CoverageBitmap bitmap(64);
  bitmap.Set(5);
  result.coverage.emplace_back("libc.so", bitmap);
  auto rdecoded = DecodeBatchResult(EncodeBatchResult(result));
  ASSERT_TRUE(rdecoded.ok()) << rdecoded.error();
  ASSERT_EQ(rdecoded.value().results.size(), 1u);
  EXPECT_EQ(rdecoded.value().results[0].index, 9u);
  ASSERT_EQ(rdecoded.value().coverage.size(), 1u);
  EXPECT_EQ(rdecoded.value().coverage[0].second, bitmap);
}

TEST(Wire, TrailingGarbageIsAnError) {
  BatchMsg batch;
  std::vector<uint8_t> payload = EncodeBatch(batch);
  payload.push_back(0xFF);
  EXPECT_FALSE(DecodeBatch(payload).ok());
}

TEST(Wire, FramesTravelOverASocket) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<uint8_t> payload = {10, 20, 30};
  ASSERT_TRUE(WriteFrame(fds[0], MsgType::RunBatch, payload).ok());
  auto frame = ReadFrame(fds[1], 1000);
  ASSERT_TRUE(frame.ok()) << frame.error();
  EXPECT_EQ(frame.value().type, MsgType::RunBatch);
  EXPECT_EQ(frame.value().payload, payload);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Wire, ReadFrameRejectsBadMagicAndBadType) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<uint8_t> junk;
  PutLe(junk, 0x12345678, 4);  // wrong magic
  PutLe(junk, 1, 1);
  PutLe(junk, 0, 4);
  ASSERT_EQ(::write(fds[0], junk.data(), junk.size()),
            static_cast<ssize_t>(junk.size()));
  EXPECT_FALSE(ReadFrame(fds[1], 1000).ok());

  junk.clear();
  PutLe(junk, kWireMagic, 4);
  PutLe(junk, 99, 1);  // unknown type
  PutLe(junk, 0, 4);
  ASSERT_EQ(::write(fds[0], junk.data(), junk.size()),
            static_cast<ssize_t>(junk.size()));
  EXPECT_FALSE(ReadFrame(fds[1], 1000).ok());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Wire, ReadFrameRejectsOversizePayloadBeforeAllocating) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<uint8_t> junk;
  PutLe(junk, kWireMagic, 4);
  PutLe(junk, static_cast<uint8_t>(MsgType::RunBatch), 1);
  PutLe(junk, kMaxPayload + 1, 4);
  ASSERT_EQ(::write(fds[0], junk.data(), junk.size()),
            static_cast<ssize_t>(junk.size()));
  auto frame = ReadFrame(fds[1], 1000);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.error().find("too large"), std::string::npos);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Wire, ReadFrameTimesOutOnASilentPeer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto frame = ReadFrame(fds[1], 50);
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.error().find("timeout"), std::string::npos);
  ::close(fds[0]);
  ::close(fds[1]);
}

// The timeout is one deadline for the whole frame: a peer that trickles
// a header one byte per 50 ms (450 ms in all) must not keep a 150 ms read
// alive by re-arming a per-read timeout.
TEST(Wire, ReadFrameTimesOutOnATricklingPeer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<uint8_t> header;
  AppendFrame(header, MsgType::Hello, {});
  ASSERT_EQ(header.size(), 9u);
  std::thread peer([&] {
    for (uint8_t byte : header) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      (void)::send(fds[0], &byte, 1, MSG_NOSIGNAL);
    }
  });
  auto frame = ReadFrame(fds[1], 150);
  peer.join();
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.error().find("timeout"), std::string::npos);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---- pinned v6 bytes --------------------------------------------------------
// One rich payload per message type whose FNV-1a digest was captured from
// the hand-written v6 codec. A codec rewrite that moves a single byte fails
// here, so "still v6" is a test, not a claim.

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ull;
  return h;
}

/// SamplePlan plus the two trigger modes and two SEU targets it lacks:
/// every trigger mode, a stacktrace, modifications, all four SEU targets.
core::Plan RichPlan() {
  core::Plan plan = SamplePlan();
  core::FunctionTrigger always;
  always.function = "close";
  always.mode = core::FunctionTrigger::Mode::Always;
  always.retval = INT64_MIN;
  always.max_injections = 0;
  core::ArgModification mod;
  mod.argument = core::kMaxModifyArgument;
  mod.op = core::ArgModification::Op::Xor;
  mod.value = INT64_MAX;
  always.modifications.push_back(mod);
  plan.triggers.push_back(always);
  core::FunctionTrigger rotate;
  rotate.function = "open";
  rotate.mode = core::FunctionTrigger::Mode::Rotate;
  rotate.errno_value = INT32_MIN;
  rotate.call_original = true;
  core::FrameCondition frame;
  frame.address = ~uint64_t{0};
  rotate.stacktrace.push_back(frame);
  plan.triggers.push_back(rotate);
  core::SeuFault stack;
  stack.target = core::SeuFault::Target::Stack;
  stack.offset = 4096;
  stack.bit = 5;
  stack.at_instruction = 9999;
  plan.seus.push_back(stack);
  core::SeuFault heap;
  heap.target = core::SeuFault::Target::Heap;
  heap.offset = 16;
  heap.bit = 31;
  heap.at_instruction = 77;
  heap.pid = INT32_MAX;
  plan.seus.push_back(heap);
  return plan;
}

ConfigureMsg RichConfigure() {
  ConfigureMsg msg;
  msg.target.modules = {{1, 2, 3, 4}, {}, {0xFF}};
  msg.target.files.emplace_back("/etc/cfg", std::vector<uint8_t>{'a', 'b'});
  msg.target.files.emplace_back("/empty", std::vector<uint8_t>{});
  msg.target.ports = {80, -1, INT64_MAX};
  core::FaultProfile profile;
  profile.library = "libc.so";
  core::FunctionProfile fn;
  fn.name = "read";
  core::ProfileErrorCode code;
  code.retval = -1;
  code.provenance = core::Provenance::Analyzed;
  core::ProfileSideEffect errno_store;
  errno_store.type = core::ProfileSideEffect::Type::Tls;
  errno_store.module = "libc.so";
  errno_store.offset = 8;
  errno_store.values = {4, 9};
  code.side_effects.push_back(errno_store);
  fn.error_codes.push_back(code);
  profile.functions.push_back(fn);
  msg.profiles.push_back(profile);
  msg.profiles.push_back(core::FaultProfile{});
  msg.options.jobs = 3;
  msg.options.entry = "handle_request";
  msg.options.max_instructions = 123456789;
  msg.options.default_heap_cap = 1 << 21;
  msg.options.track_coverage = true;
  msg.options.collect_replays = true;
  msg.options.snapshot = true;
  msg.options.collect_state_digest = true;
  msg.options.warmup_instructions = 4096;
  msg.options.exec_mode = vm::ExecMode::Reference;
  msg.options.controller.log_backtraces = false;
  msg.options.controller.log_capacity = 42;
  msg.options.controller.feasible_only = true;
  return msg;
}

BatchMsg RichBatch() {
  BatchMsg msg;
  campaign::Scenario a;
  a.name = "random-p0.3-17";
  a.plan = RichPlan();
  a.entry = "handle_request";
  a.heap_cap_bytes = 1 << 22;
  a.warmup_instructions = 12345;
  campaign::Scenario b;
  b.name = "empty";
  msg.indices = {17, 0xFFFF'FFFF'FFFFull};
  msg.scenarios = {a, b};
  return msg;
}

BatchResultMsg RichBatchResult() {
  BatchResultMsg msg;
  campaign::ScenarioResult res;
  res.index = 17;
  res.name = "s17";
  res.status = campaign::ScenarioStatus::Crashed;
  res.exit_code = -1;
  res.signal = vm::Signal::Segv;
  res.fault_message = "load fault at 0xfffffff8";
  res.injections = 3;
  res.instructions = 123456;
  res.seconds = 0.001953125;
  res.covered_offsets = 321;
  res.covered_by_module["readerapp.so"] = 100;
  res.covered_by_module["libc.so"] = 221;
  vm::CoverageBitmap bitmap(256);
  bitmap.Set(3);
  bitmap.Set(250);
  res.coverage["readerapp.so"] = bitmap;
  res.coverage["libc.so"] = vm::CoverageBitmap(70);
  res.fault_frames = {"read+0x12", "main+0x40"};
  res.crash_site_hash = 0x1111222233334444ull;
  res.crash_hash = 0x5555666677778888ull;
  res.replay = RichPlan();
  res.first_injection_instructions = 777;
  res.snapshot_fallback = true;
  res.restore_pages = 12;
  res.restore_nodes_walked = 2;
  res.state_digest = 0x9999AAAABBBBCCCCull;
  res.seu_landed = 1;
  msg.results.push_back(res);
  campaign::ScenarioResult exited;
  exited.index = 18;
  exited.status = campaign::ScenarioStatus::Exited;
  msg.results.push_back(exited);
  vm::CoverageBitmap unioned(130);
  unioned.Set(0);
  unioned.Set(129);
  msg.coverage.emplace_back("libc.so", unioned);
  msg.coverage.emplace_back("readerapp.so", vm::CoverageBitmap(0));
  return msg;
}

TEST(Wire, PinnedV6PayloadDigests) {
  EXPECT_EQ(kWireVersion, 6u);
  std::vector<uint8_t> configure = Encode(RichConfigure());
  std::vector<uint8_t> batch = EncodeBatch(RichBatch());
  std::vector<uint8_t> result = EncodeBatchResult(RichBatchResult());
  EXPECT_EQ(configure.size(), 480u);
  EXPECT_EQ(Fnv1a(configure), 0x8e0ef501361ea703ull);
  EXPECT_EQ(batch.size(), 688u);
  EXPECT_EQ(Fnv1a(batch), 0x363dc3c03ef02e3full);
  EXPECT_EQ(result.size(), 1093u);
  EXPECT_EQ(Fnv1a(result), 0x7f860244ca0e73e8ull);
  // The pinned payloads are well-formed: each decodes.
  EXPECT_TRUE(Decode<ConfigureMsg>(configure).ok());
  EXPECT_TRUE(DecodeBatch(batch).ok());
  EXPECT_TRUE(DecodeBatchResult(result).ok());
}

// Counts are written up front, so no proper prefix of a payload is itself
// complete: every one must be rejected, for each message type. The batch
// and the batch result each carry RichPlan, so every cut through a plan is
// among them.
TEST(Wire, EveryProperPrefixIsRejected) {
  auto sweep = [](const char* what, const std::vector<uint8_t>& full,
                  auto decode) {
    SCOPED_TRACE(what);
    for (size_t len = 0; len < full.size(); ++len) {
      std::vector<uint8_t> cut(full.begin(), full.begin() + len);
      EXPECT_FALSE(decode(cut).ok()) << "prefix of " << len << " bytes";
    }
  };
  sweep("configure", Encode(RichConfigure()),
        [](const auto& b) { return Decode<ConfigureMsg>(b); });
  sweep("batch", EncodeBatch(RichBatch()),
        [](const auto& b) { return DecodeBatch(b); });
  sweep("batch result", EncodeBatchResult(RichBatchResult()),
        [](const auto& b) { return DecodeBatchResult(b); });
}

/// Call `check(mutated)` for several single-byte mutations at every offset.
template <class Check>
void ForEachByteMutation(const std::vector<uint8_t>& good, Check check) {
  for (size_t at = 0; at < good.size(); ++at) {
    const uint8_t was = good[at];
    for (int value : {was ^ 0x01, was ^ 0x80, 0x00, 0x02, 0xFF}) {
      if (value == was) continue;
      std::vector<uint8_t> mutated = good;
      mutated[at] = static_cast<uint8_t>(value);
      check(mutated);
    }
  }
}

void ExpectValid(const core::Plan& plan) {
  Status st = core::ValidatePlan(plan);
  EXPECT_TRUE(st.ok()) << st.error();
}

// A corrupted payload either fails to decode or carries only plans that
// pass ValidatePlan. A batch that decodes re-encodes to the same bytes:
// every field has one encoding, bools included.
TEST(Wire, SingleByteMutationsFailOrDecodeToValidPlans) {
  ForEachByteMutation(EncodeBatch(RichBatch()), [](const auto& bytes) {
    auto batch = DecodeBatch(bytes);
    if (!batch.ok()) return;
    for (const campaign::Scenario& s : batch.value().scenarios) {
      ExpectValid(s.plan);
    }
    EXPECT_EQ(EncodeBatch(batch.value()), bytes);
  });
  ForEachByteMutation(EncodeBatchResult(RichBatchResult()),
                      [](const auto& bytes) {
                        auto result = DecodeBatchResult(bytes);
                        if (!result.ok()) return;
                        for (const auto& r : result.value().results) {
                          ExpectValid(r.replay);
                        }
                      });
  ForEachByteMutation(Encode(RichConfigure()), [](const auto& bytes) {
    auto configure = Decode<ConfigureMsg>(bytes);
    if (!configure.ok()) return;
    EXPECT_GE(configure.value().options.jobs, 0);
    EXPECT_LE(configure.value().options.jobs, campaign::kMaxJobs);
  });
}

TEST(Wire, BoolBytesOtherThanZeroOrOneAreRejected) {
  campaign::CampaignOptions o;
  o.controller.log_enabled = true;
  std::vector<uint8_t> good = Encode(ConfigureOf(o));
  // log_enabled, log_backtraces, then log_capacity (u64) end the payload.
  const size_t log_enabled_off = good.size() - 8 - 2;
  ASSERT_EQ(good[log_enabled_off], 1u);
  std::vector<uint8_t> bad = good;
  bad[log_enabled_off] = 2;
  EXPECT_TRUE(Decode<ConfigureMsg>(good).ok());
  EXPECT_FALSE(Decode<ConfigureMsg>(bad).ok());
}

// ---- one plan-acceptance rule ----------------------------------------------
// Every plan Plan::FromXml rejects for its meaning (not its spelling) is
// built here as a struct; the wire must refuse it as a batch scenario and
// as a result replay, exactly as the XML parser refuses its ToXml().
// Spellings with no struct form ("EBOGUS", inject="soon") need no wire
// case; out-of-range enums and SEU bits, which the wire always refused,
// are PlanRejectsBadSeuFields' and the mutation sweep's.

struct BadPlan {
  const char* label;
  core::Plan plan;
};

/// A minimal valid plan: one call-count trigger and one register flip.
core::Plan MinimalPlan() {
  core::Plan plan;
  core::FunctionTrigger t;
  t.function = "f";
  t.mode = core::FunctionTrigger::Mode::CallCount;
  t.inject_call = 1;
  plan.triggers.push_back(t);
  core::SeuFault s;
  s.target = core::SeuFault::Target::Reg;
  s.bit = 1;
  s.at_instruction = 5;
  plan.seus.push_back(s);
  return plan;
}

std::vector<BadPlan> PlansFromXmlRejects() {
  std::vector<BadPlan> out;
  auto trigger = [&out](const char* label, auto edit) {
    core::Plan plan = MinimalPlan();
    edit(plan.triggers[0]);
    out.push_back({label, plan});
  };
  auto seu = [&out](const char* label, auto edit) {
    core::Plan plan = MinimalPlan();
    edit(plan.seus[0]);
    out.push_back({label, plan});
  };
  using Mode = core::FunctionTrigger::Mode;
  using Target = core::SeuFault::Target;
  // Scenario.RejectsMalformedPlans
  trigger("empty name", [](auto& t) { t.function.clear(); });
  trigger("modify argument 0", [](auto& t) {
    t.modifications.push_back({0, core::ArgModification::Op::Set, 1});
  });
  // Scenario.CallOriginalAndModifyValidation
  trigger("modify argument 300", [](auto& t) {
    t.modifications.push_back({300, core::ArgModification::Op::Set, 1});
  });
  // Scenario.InjectValidation
  trigger("inject 0", [](auto& t) { t.inject_call = 0; });
  // Scenario.ProbabilityValidation
  for (double p : {1.5, -0.1, std::nan("")}) {
    trigger("bad probability", [p](auto& t) {
      t.mode = Mode::Probability;
      t.probability = p;
    });
  }
  // Scenario.RetvalAndMaxInjectionsRanges
  trigger("maxinjections -2", [](auto& t) { t.max_injections = -2; });
  // SeuXml.RejectsMalformedFaults
  seu("reg R9 (no such register)", [](auto& s) { s.reg = core::kSeuNumRegs; });
  seu("negative reg", [](auto& s) { s.reg = -1; });
  seu("pid 0", [](auto& s) { s.pid = 0; });
  seu("data without module", [](auto& s) {
    s.target = Target::Data;
    s.offset = 8;
  });
  seu("window end before begin", [](auto& s) {
    s.window_module = "m";
    s.window_begin = 9;
    s.window_end = 4;
  });
  seu("window end at begin", [](auto& s) {
    s.window_module = "m";
    s.window_begin = 9;
    s.window_end = 9;
  });
  return out;
}

TEST(Wire, DecoderRejectsEveryPlanFromXmlRejects) {
  for (const BadPlan& bad : PlansFromXmlRejects()) {
    SCOPED_TRACE(bad.label);
    EXPECT_FALSE(core::Plan::FromXml(bad.plan.ToXml()).ok());
    EXPECT_FALSE(DecodeBatch(EncodeBatch(BatchOf(bad.plan))).ok());
    EXPECT_FALSE(DecodeBatchResult(EncodeBatchResult(ReplayOf(bad.plan))).ok());
  }
}

// Both transports accept the same valid plans.
TEST(Wire, BothTransportsAcceptTheSameValidPlans) {
  for (const core::Plan& plan : {MinimalPlan(), SamplePlan(), RichPlan()}) {
    auto xml = core::Plan::FromXml(plan.ToXml());
    ASSERT_TRUE(xml.ok()) << xml.error();
    ExpectSamePlan(plan, xml.value());
    auto batch = DecodeBatch(EncodeBatch(BatchOf(plan)));
    ASSERT_TRUE(batch.ok()) << batch.error();
    ExpectSamePlan(plan, batch.value().scenarios[0].plan);
    auto replay = DecodeBatchResult(EncodeBatchResult(ReplayOf(plan)));
    ASSERT_TRUE(replay.ok()) << replay.error();
    ExpectSamePlan(plan, replay.value().results[0].replay);
  }
}

/// Replace the one little-endian i64 `from` in `buf` with `to`.
void PatchI64(std::vector<uint8_t>& buf, int64_t from, int64_t to) {
  uint8_t pattern[8];
  for (int i = 0; i < 8; ++i) {
    pattern[i] = static_cast<uint8_t>(static_cast<uint64_t>(from) >> (8 * i));
  }
  auto it = std::search(buf.begin(), buf.end(), pattern, pattern + 8);
  ASSERT_NE(it, buf.end());
  ASSERT_EQ(std::search(it + 1, buf.end(), pattern, pattern + 8), buf.end())
      << "sentinel " << from << " is not unique";
  for (int i = 0; i < 8; ++i) {
    it[i] = static_cast<uint8_t>(static_cast<uint64_t>(to) >> (8 * i));
  }
}

// An i64 on the wire that does not fit its int field is an error, not a
// wrap into a valid-looking value (2^32 + 1 would narrow to argument 1).
// The XML parser already refuses these spellings.
TEST(Wire, DecoderRejectsValuesThatWrapTheirField) {
  struct Wrap {
    const char* xml;
    int64_t sentinel;
    int64_t wire;
  };
  const Wrap cases[] = {
      {R"(<function name="f" inject="1">)"
       R"(<modify argument="4294967297" value="1" /></function>)",
       201, (int64_t{1} << 32) + 1},
      {R"(<function name="f" inject="1" maxinjections="4294967296" />)",
       0x5EED, int64_t{1} << 32},
      {R"(<function name="f" inject="1" errno="2147483648" />)", 0x7E57,
       int64_t{1} << 31},
  };
  for (const Wrap& w : cases) {
    SCOPED_TRACE(w.xml);
    EXPECT_FALSE(
        core::Plan::FromXml(std::string("<plan>") + w.xml + "</plan>").ok());
    core::Plan plan;
    core::FunctionTrigger t;
    t.function = "f";
    t.mode = core::FunctionTrigger::Mode::CallCount;
    t.inject_call = 1;
    if (w.sentinel == 201) {
      t.modifications.push_back({201, core::ArgModification::Op::Set, 1});
    } else if (w.sentinel == 0x5EED) {
      t.max_injections = 0x5EED;
    } else {
      t.errno_value = 0x7E57;
    }
    plan.triggers.push_back(t);
    std::vector<uint8_t> batch = EncodeBatch(BatchOf(plan));
    ASSERT_TRUE(DecodeBatch(batch).ok());
    PatchI64(batch, w.sentinel, w.wire);
    EXPECT_FALSE(DecodeBatch(batch).ok());
    std::vector<uint8_t> replay = EncodeBatchResult(ReplayOf(plan));
    ASSERT_TRUE(DecodeBatchResult(replay).ok());
    PatchI64(replay, w.sentinel, w.wire);
    EXPECT_FALSE(DecodeBatchResult(replay).ok());
  }
}

// `jobs` crosses the wire as an i64 into an int: a Configure outside
// [0, kMaxJobs] is refused instead of narrowed.
TEST(Wire, ConfigureRejectsJobsOutOfRange) {
  ConfigureMsg msg;
  msg.options.jobs = 0x7AB5;
  std::vector<uint8_t> good = Encode(msg);
  ASSERT_TRUE(Decode<ConfigureMsg>(good).ok());
  for (int64_t jobs : {int64_t{-1}, int64_t{1'000'001}, int64_t{1} << 32,
                       INT64_MIN}) {
    SCOPED_TRACE(jobs);
    std::vector<uint8_t> bad = good;
    PatchI64(bad, 0x7AB5, jobs);
    EXPECT_FALSE(Decode<ConfigureMsg>(bad).ok());
  }
  for (int64_t jobs : {int64_t{0}, int64_t{1'000'000}}) {
    std::vector<uint8_t> edge = good;
    PatchI64(edge, 0x7AB5, jobs);
    auto decoded = Decode<ConfigureMsg>(edge);
    ASSERT_TRUE(decoded.ok()) << decoded.error();
    EXPECT_EQ(decoded.value().options.jobs, jobs);
  }
}

TEST(Wire, MakeSetupRejectsGarbageModules) {
  TargetSpec spec;
  spec.modules.push_back({0xDE, 0xAD});
  EXPECT_FALSE(MakeSetup(spec).ok());
}

}  // namespace
}  // namespace lfi::serve
