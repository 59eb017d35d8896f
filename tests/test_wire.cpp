// Wire protocol unit tests: every payload type pinned byte for byte and
// re-encoded from its decoding (doubles must survive bit-for-bit — the
// fabric's byte-identity story depends on it), framing over a real
// socketpair, and rejection of malformed or truncated input.
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

TEST(Wire, TrailingGarbageIsAnError) {
  BatchMsg batch;
  std::vector<uint8_t> payload = EncodeBatch(batch);
  payload.push_back(0xFF);
  EXPECT_FALSE(DecodeBatch(payload).ok());
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
  // The pinned payloads are well-formed: each decodes and re-encodes to
  // the same bytes, so no field of any message is lost on the way in.
  auto c = Decode<ConfigureMsg>(configure);
  ASSERT_TRUE(c.ok()) << c.error();
  EXPECT_EQ(Encode(c.value()), configure);
  auto b = DecodeBatch(batch);
  ASSERT_TRUE(b.ok()) << b.error();
  EXPECT_EQ(EncodeBatch(b.value()), batch);
  auto r = DecodeBatchResult(result);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(EncodeBatchResult(r.value()), result);
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
