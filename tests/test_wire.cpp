// Wire protocol unit tests: exact round trips for every payload type
// (doubles must survive bit-for-bit — the fabric's byte-identity story
// depends on it), framing over a real socketpair, and rejection of
// malformed or truncated input.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

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

TEST(Wire, PlanRoundTripIsExact) {
  std::vector<uint8_t> buf;
  EncodePlan(buf, SamplePlan());
  Reader r(buf);
  auto decoded = DecodePlan(r);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_TRUE(r.AtEnd());
  ExpectSamePlan(SamplePlan(), decoded.value());
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
  std::vector<uint8_t> buf;
  EncodePlan(buf, plan);
  Reader r(buf);
  auto decoded = DecodePlan(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::bit_cast<uint64_t>(plan.triggers[0].probability),
            std::bit_cast<uint64_t>(decoded.value().triggers[0].probability));
}

TEST(Wire, TruncatedPlanIsRejectedAtEveryLength) {
  std::vector<uint8_t> buf;
  EncodePlan(buf, SamplePlan());
  for (size_t len = 0; len < buf.size(); ++len) {
    std::vector<uint8_t> cut(buf.begin(), buf.begin() + len);
    Reader r(cut);
    auto decoded = DecodePlan(r);
    // Either an explicit decode error, or (when the cut lands on a
    // collection-count boundary) a shorter-but-complete prefix — in which
    // case the reader must not have consumed past the cut.
    if (decoded.ok()) {
      EXPECT_LE(r.pos, len);
    }
  }
}

TEST(Wire, ScenarioRoundTrip) {
  campaign::Scenario s;
  s.name = "random-p0.3-17";
  s.plan = SamplePlan();
  s.entry = "handle_request";
  s.heap_cap_bytes = 1 << 22;
  s.warmup_instructions = 12345;
  std::vector<uint8_t> buf;
  EncodeScenario(buf, s);
  Reader r(buf);
  auto decoded = DecodeScenario(r);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded.value().name, s.name);
  EXPECT_EQ(decoded.value().entry, s.entry);
  EXPECT_EQ(decoded.value().heap_cap_bytes, s.heap_cap_bytes);
  EXPECT_EQ(decoded.value().warmup_instructions, s.warmup_instructions);
  ExpectSamePlan(s.plan, decoded.value().plan);
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
  std::vector<uint8_t> buf;
  EncodeOptions(buf, o);
  Reader r(buf);
  auto decoded = DecodeOptions(r);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_TRUE(r.AtEnd());
  const campaign::CampaignOptions& d = decoded.value();
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
  campaign::CampaignOptions o;
  std::vector<uint8_t> buf;
  EncodeOptions(buf, o);
  Reader r(buf);
  auto decoded = DecodeOptions(r);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_FALSE(decoded.value().controller.feasible_only);
}

TEST(Wire, OptionsRejectUnknownFlagBits) {
  std::vector<uint8_t> good;
  EncodeOptions(good, campaign::CampaignOptions());
  // The flags byte follows jobs (i64), entry (u32 length + bytes),
  // max_instructions and default_heap_cap (u64 each).
  const size_t flags_off = 8 + 4 + std::string("main").size() + 8 + 8;
  ASSERT_EQ(good[flags_off], 0u);
  // Bit 4 (the retired flat-vs-tree snapshot switch) and bit 7 are
  // undefined; every defined bit still decodes.
  for (int bit = 0; bit < 8; ++bit) {
    std::vector<uint8_t> buf = good;
    buf[flags_off] = static_cast<uint8_t>(1u << bit);
    Reader r(buf);
    auto decoded = DecodeOptions(r);
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
    std::vector<uint8_t> reply;
    PutU32(reply, kWireVersion - 1);
    EXPECT_TRUE(WriteFrame(fd, MsgType::Hello, reply).ok());
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
  std::vector<uint8_t> buf;
  EncodeBitmap(buf, bitmap);
  Reader r(buf);
  auto decoded = DecodeBitmap(r);
  EXPECT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_TRUE(r.AtEnd());
  return decoded.ok() ? std::move(decoded).take() : vm::CoverageBitmap();
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
  std::vector<uint8_t> buf;
  EncodeBitmap(buf, bitmap);
  EXPECT_EQ(buf.size(), 12u + 2 * 12u);
}

/// A hand-built v5 bitmap: [bits u64] [n u32] then (index u32, word u64).
std::vector<uint8_t> RawBitmap(
    uint64_t bits, const std::vector<std::pair<uint32_t, uint64_t>>& words) {
  std::vector<uint8_t> buf;
  PutU64(buf, bits);
  PutU32(buf, static_cast<uint32_t>(words.size()));
  for (const auto& [index, word] : words) {
    PutU32(buf, index);
    PutU64(buf, word);
  }
  return buf;
}

bool DecodesOk(const std::vector<uint8_t>& buf) {
  Reader r(buf);
  return DecodeBitmap(r).ok();
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
  std::vector<uint8_t> buf;
  EncodeBitmap(buf, bitmap);
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

  std::vector<uint8_t> buf;
  EncodeResult(buf, res);
  Reader r(buf);
  auto decoded = DecodeResult(r);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_TRUE(r.AtEnd());
  const campaign::ScenarioResult& d = decoded.value();
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
  std::vector<uint8_t> good;
  EncodePlan(good, plan);

  // Layout after the (empty) trigger section: seu count u32, then
  // target u8 at a fixed offset.
  size_t target_off = 8 + 4 + 4;  // seed + trigger count + seu count
  std::vector<uint8_t> bad = good;
  bad[target_off] = 7;  // no such target
  Reader r1(bad);
  EXPECT_FALSE(DecodePlan(r1).ok());

  bad = good;
  size_t bit_off = target_off + 1 + 8 + 8 + 4;  // + target, reg, offset, str
  bad[bit_off] = 64;  // bit out of range
  Reader r2(bad);
  EXPECT_FALSE(DecodePlan(r2).ok());
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
  auto decoded = DecodeConfigure(EncodeConfigure(msg));
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
  PutU32(junk, 0x12345678);  // wrong magic
  PutU8(junk, 1);
  PutU32(junk, 0);
  ASSERT_EQ(::write(fds[0], junk.data(), junk.size()),
            static_cast<ssize_t>(junk.size()));
  EXPECT_FALSE(ReadFrame(fds[1], 1000).ok());

  junk.clear();
  PutU32(junk, kWireMagic);
  PutU8(junk, 99);  // unknown type
  PutU32(junk, 0);
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
  PutU32(junk, kWireMagic);
  PutU8(junk, static_cast<uint8_t>(MsgType::RunBatch));
  PutU32(junk, kMaxPayload + 1);
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

TEST(Wire, MakeSetupRejectsGarbageModules) {
  TargetSpec spec;
  spec.modules.push_back({0xDE, 0xAD});
  EXPECT_FALSE(MakeSetup(spec).ok());
}

}  // namespace
}  // namespace lfi::serve
