#include "serve/wire.hpp"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>

#include "sso/sso.hpp"

namespace lfi::serve {

namespace {

/// Largest element count a decoder will accept for a collection: every
/// encoded element costs at least one byte, so a count beyond the bytes
/// actually present is malformed — reject before reserving.
bool PlausibleCount(const Reader& r, uint64_t count) {
  return count <= r.size - r.pos;
}

}  // namespace

// -- primitive encode/decode -------------------------------------------------

void PutU8(std::vector<uint8_t>& out, uint8_t v) { out.push_back(v); }

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  uint8_t bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<uint8_t>(v >> (8 * i));
  out.insert(out.end(), bytes, bytes + 4);
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<uint8_t>(v >> (8 * i));
  out.insert(out.end(), bytes, bytes + 8);
}

void PutI64(std::vector<uint8_t>& out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutF64(std::vector<uint8_t>& out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

void PutStr(std::vector<uint8_t>& out, const std::string& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  out.insert(out.end(), v.begin(), v.end());
}

void PutBytes(std::vector<uint8_t>& out, const std::vector<uint8_t>& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  out.insert(out.end(), v.begin(), v.end());
}

bool Reader::U8(uint8_t* v) {
  if (pos + 1 > size) return false;
  *v = data[pos++];
  return true;
}

bool Reader::U32(uint32_t* v) {
  if (pos + 4 > size) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) out |= uint32_t{data[pos + i]} << (8 * i);
  pos += 4;
  *v = out;
  return true;
}

bool Reader::U64(uint64_t* v) {
  if (pos + 8 > size) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) out |= uint64_t{data[pos + i]} << (8 * i);
  pos += 8;
  *v = out;
  return true;
}

bool Reader::I64(int64_t* v) {
  uint64_t raw = 0;
  if (!U64(&raw)) return false;
  *v = static_cast<int64_t>(raw);
  return true;
}

bool Reader::F64(double* v) {
  uint64_t raw = 0;
  if (!U64(&raw)) return false;
  *v = std::bit_cast<double>(raw);
  return true;
}

bool Reader::Str(std::string* v) {
  uint32_t len = 0;
  if (!U32(&len) || pos + len > size) return false;
  v->assign(reinterpret_cast<const char*>(data + pos), len);
  pos += len;
  return true;
}

bool Reader::Bytes(std::vector<uint8_t>* v) {
  uint32_t len = 0;
  if (!U32(&len) || pos + len > size) return false;
  v->assign(data + pos, data + pos + len);
  pos += len;
  return true;
}

// -- plan --------------------------------------------------------------------

void EncodePlan(std::vector<uint8_t>& out, const core::Plan& plan) {
  PutU64(out, plan.seed);
  PutU32(out, static_cast<uint32_t>(plan.triggers.size()));
  for (const core::FunctionTrigger& t : plan.triggers) {
    PutStr(out, t.function);
    PutU8(out, static_cast<uint8_t>(t.mode));
    PutU64(out, t.inject_call);
    PutF64(out, t.probability);
    PutU8(out, t.retval.has_value() ? 1 : 0);
    if (t.retval) PutI64(out, *t.retval);
    PutU8(out, t.errno_value.has_value() ? 1 : 0);
    if (t.errno_value) PutI64(out, *t.errno_value);
    PutU8(out, t.call_original ? 1 : 0);
    PutI64(out, t.max_injections);
    PutU32(out, static_cast<uint32_t>(t.stacktrace.size()));
    for (const core::FrameCondition& f : t.stacktrace) {
      PutU8(out, f.address.has_value() ? 1 : 0);
      if (f.address) PutU64(out, *f.address);
      PutStr(out, f.symbol);
    }
    PutU32(out, static_cast<uint32_t>(t.modifications.size()));
    for (const core::ArgModification& m : t.modifications) {
      PutI64(out, m.argument);
      PutU8(out, static_cast<uint8_t>(m.op));
      PutI64(out, m.value);
    }
  }
  PutU32(out, static_cast<uint32_t>(plan.seus.size()));
  for (const core::SeuFault& s : plan.seus) {
    PutU8(out, static_cast<uint8_t>(s.target));
    PutI64(out, s.reg);
    PutU64(out, s.offset);
    PutStr(out, s.module);
    PutI64(out, s.bit);
    PutU64(out, s.at_instruction);
    PutI64(out, s.pid);
    PutStr(out, s.window_module);
    PutU64(out, s.window_begin);
    PutU64(out, s.window_end);
  }
}

Result<core::Plan> DecodePlan(Reader& r) {
  core::Plan plan;
  uint32_t triggers = 0;
  if (!r.U64(&plan.seed) || !r.U32(&triggers) || !PlausibleCount(r, triggers)) {
    return Err("wire: truncated plan");
  }
  plan.triggers.reserve(triggers);
  for (uint32_t i = 0; i < triggers; ++i) {
    core::FunctionTrigger t;
    uint8_t mode = 0, has_retval = 0, has_errno = 0, call_original = 0;
    int64_t max_injections = -1;
    if (!r.Str(&t.function) || !r.U8(&mode) || !r.U64(&t.inject_call) ||
        !r.F64(&t.probability) || !r.U8(&has_retval)) {
      return Err("wire: truncated trigger");
    }
    if (mode > static_cast<uint8_t>(core::FunctionTrigger::Mode::Rotate)) {
      return Err("wire: bad trigger mode");
    }
    t.mode = static_cast<core::FunctionTrigger::Mode>(mode);
    if (has_retval) {
      int64_t v = 0;
      if (!r.I64(&v)) return Err("wire: truncated trigger");
      t.retval = v;
    }
    if (!r.U8(&has_errno)) return Err("wire: truncated trigger");
    if (has_errno) {
      int64_t v = 0;
      if (!r.I64(&v)) return Err("wire: truncated trigger");
      t.errno_value = static_cast<int32_t>(v);
    }
    if (!r.U8(&call_original) || !r.I64(&max_injections)) {
      return Err("wire: truncated trigger");
    }
    t.call_original = call_original != 0;
    t.max_injections = static_cast<int>(max_injections);
    uint32_t frames = 0;
    if (!r.U32(&frames) || !PlausibleCount(r, frames)) {
      return Err("wire: truncated stacktrace");
    }
    for (uint32_t f = 0; f < frames; ++f) {
      core::FrameCondition cond;
      uint8_t has_address = 0;
      if (!r.U8(&has_address)) return Err("wire: truncated stacktrace");
      if (has_address) {
        uint64_t addr = 0;
        if (!r.U64(&addr)) return Err("wire: truncated stacktrace");
        cond.address = addr;
      }
      if (!r.Str(&cond.symbol)) return Err("wire: truncated stacktrace");
      t.stacktrace.push_back(std::move(cond));
    }
    uint32_t mods = 0;
    if (!r.U32(&mods) || !PlausibleCount(r, mods)) {
      return Err("wire: truncated modifications");
    }
    for (uint32_t m = 0; m < mods; ++m) {
      core::ArgModification mod;
      int64_t argument = 0, value = 0;
      uint8_t op = 0;
      if (!r.I64(&argument) || !r.U8(&op) || !r.I64(&value)) {
        return Err("wire: truncated modification");
      }
      if (op > static_cast<uint8_t>(core::ArgModification::Op::Xor)) {
        return Err("wire: bad modification op");
      }
      mod.argument = static_cast<int>(argument);
      mod.op = static_cast<core::ArgModification::Op>(op);
      mod.value = value;
      t.modifications.push_back(mod);
    }
    plan.triggers.push_back(std::move(t));
  }
  uint32_t seus = 0;
  if (!r.U32(&seus) || !PlausibleCount(r, seus)) {
    return Err("wire: truncated plan");
  }
  plan.seus.reserve(seus);
  for (uint32_t i = 0; i < seus; ++i) {
    core::SeuFault s;
    uint8_t target = 0;
    int64_t reg = 0, bit = 0, pid = 1;
    if (!r.U8(&target) || !r.I64(&reg) || !r.U64(&s.offset) ||
        !r.Str(&s.module) || !r.I64(&bit) || !r.U64(&s.at_instruction) ||
        !r.I64(&pid) || !r.Str(&s.window_module) || !r.U64(&s.window_begin) ||
        !r.U64(&s.window_end)) {
      return Err("wire: truncated seu");
    }
    if (target > static_cast<uint8_t>(core::SeuFault::Target::Data)) {
      return Err("wire: bad seu target");
    }
    if (bit < 0 || bit > 63) return Err("wire: bad seu bit");
    s.target = static_cast<core::SeuFault::Target>(target);
    s.reg = static_cast<int>(reg);
    s.bit = static_cast<int>(bit);
    s.pid = static_cast<int>(pid);
    plan.seus.push_back(std::move(s));
  }
  return plan;
}

// -- scenario ----------------------------------------------------------------

void EncodeScenario(std::vector<uint8_t>& out,
                    const campaign::Scenario& scenario) {
  PutStr(out, scenario.name);
  EncodePlan(out, scenario.plan);
  PutStr(out, scenario.entry);
  PutU64(out, scenario.heap_cap_bytes);
  PutU8(out, scenario.warmup_instructions.has_value() ? 1 : 0);
  if (scenario.warmup_instructions) PutU64(out, *scenario.warmup_instructions);
}

Result<campaign::Scenario> DecodeScenario(Reader& r) {
  campaign::Scenario s;
  if (!r.Str(&s.name)) return Err("wire: truncated scenario");
  auto plan = DecodePlan(r);
  if (!plan.ok()) return Err(plan.error());
  s.plan = std::move(plan).take();
  uint8_t has_warmup = 0;
  if (!r.Str(&s.entry) || !r.U64(&s.heap_cap_bytes) || !r.U8(&has_warmup)) {
    return Err("wire: truncated scenario");
  }
  if (has_warmup) {
    uint64_t w = 0;
    if (!r.U64(&w)) return Err("wire: truncated scenario");
    s.warmup_instructions = w;
  }
  return s;
}

// -- campaign options --------------------------------------------------------

/// The options flag bits EncodeOptions defines: 0-3, 5 and 6.
constexpr uint8_t kOptionFlagsMask = 0b0110'1111;

void EncodeOptions(std::vector<uint8_t>& out,
                   const campaign::CampaignOptions& options) {
  PutI64(out, options.jobs);
  PutStr(out, options.entry);
  PutU64(out, options.max_instructions);
  PutU64(out, options.default_heap_cap);
  uint8_t flags = 0;
  if (options.track_coverage) flags |= 1u << 0;
  if (options.collect_scenario_coverage) flags |= 1u << 1;
  if (options.collect_replays) flags |= 1u << 2;
  if (options.snapshot) flags |= 1u << 3;
  if (options.collect_state_digest) flags |= 1u << 5;
  if (options.controller.feasible_only) flags |= 1u << 6;
  PutU8(out, flags);
  PutU64(out, options.warmup_instructions);
  PutU8(out, options.exec_mode.has_value() ? 1 : 0);
  if (options.exec_mode) PutU8(out, static_cast<uint8_t>(*options.exec_mode));
  PutU8(out, options.controller.log_enabled ? 1 : 0);
  PutU8(out, options.controller.log_backtraces ? 1 : 0);
  PutU64(out, options.controller.log_capacity);
}

Result<campaign::CampaignOptions> DecodeOptions(Reader& r) {
  campaign::CampaignOptions o;
  int64_t jobs = 1;
  uint8_t flags = 0, has_exec = 0, log_enabled = 0, log_backtraces = 0;
  uint64_t log_capacity = 0;
  if (!r.I64(&jobs) || !r.Str(&o.entry) || !r.U64(&o.max_instructions) ||
      !r.U64(&o.default_heap_cap) || !r.U8(&flags) ||
      !r.U64(&o.warmup_instructions) || !r.U8(&has_exec)) {
    return Err("wire: truncated options");
  }
  // Bit 4 (the retired flat-vs-tree snapshot switch) and bit 7 are
  // undefined; a peer setting them speaks a protocol this build does not.
  if ((flags & ~kOptionFlagsMask) != 0) {
    return Err("wire: unknown options flags");
  }
  o.jobs = static_cast<int>(jobs);
  o.track_coverage = (flags & (1u << 0)) != 0;
  o.collect_scenario_coverage = (flags & (1u << 1)) != 0;
  o.collect_replays = (flags & (1u << 2)) != 0;
  o.snapshot = (flags & (1u << 3)) != 0;
  o.collect_state_digest = (flags & (1u << 5)) != 0;
  o.controller.feasible_only = (flags & (1u << 6)) != 0;
  if (has_exec) {
    uint8_t mode = 0;
    if (!r.U8(&mode) ||
        mode > static_cast<uint8_t>(vm::ExecMode::Reference)) {
      return Err("wire: bad exec mode");
    }
    o.exec_mode = static_cast<vm::ExecMode>(mode);
  }
  if (!r.U8(&log_enabled) || !r.U8(&log_backtraces) || !r.U64(&log_capacity)) {
    return Err("wire: truncated options");
  }
  o.controller.log_enabled = log_enabled != 0;
  o.controller.log_backtraces = log_backtraces != 0;
  o.controller.log_capacity = static_cast<size_t>(log_capacity);
  return o;
}

// -- coverage bitmap ---------------------------------------------------------

void EncodeBitmap(std::vector<uint8_t>& out, const vm::CoverageBitmap& bitmap) {
  const std::vector<uint64_t>& words = bitmap.words();
  uint32_t nonzero = 0;
  for (uint64_t word : words) nonzero += word != 0;
  PutU64(out, bitmap.size_bits());
  PutU32(out, nonzero);
  for (size_t w = 0; w < words.size(); ++w) {
    if (words[w] == 0) continue;
    PutU32(out, static_cast<uint32_t>(w));
    PutU64(out, words[w]);
  }
}

Result<vm::CoverageBitmap> DecodeBitmap(Reader& r) {
  uint64_t bits = 0;
  uint32_t count = 0;
  if (!r.U64(&bits) || !r.U32(&count)) return Err("wire: truncated bitmap");
  // A bitmap covers one module's code section; cap it before allocating so
  // a hostile peer cannot size it.
  if (bits > sso::kMaxCodeBytes) return Err("wire: bitmap too large");
  const uint64_t word_count = (bits + 63) / 64;
  // Each sent word costs 12 bytes: (index u32, word u64).
  if (count > word_count || uint64_t{count} * 12 > r.size - r.pos) {
    return Err("wire: truncated bitmap");
  }
  vm::CoverageBitmap bitmap(static_cast<size_t>(bits));
  uint64_t next = 0;  // smallest index the next word may carry
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t index = 0;
    uint64_t word = 0;
    if (!r.U32(&index) || !r.U64(&word)) return Err("wire: truncated bitmap");
    if (index < next || index >= word_count) {
      return Err("wire: bitmap word index out of order or range");
    }
    if (word == 0) return Err("wire: zero bitmap word");
    if (index == word_count - 1 && bits % 64 != 0 &&
        (word >> (bits % 64)) != 0) {
      return Err("wire: bitmap offset out of range");
    }
    bitmap.OrWord(index, word);
    next = uint64_t{index} + 1;
  }
  return bitmap;
}

// -- scenario result ---------------------------------------------------------

void EncodeResult(std::vector<uint8_t>& out,
                  const campaign::ScenarioResult& result) {
  PutU64(out, result.index);
  PutStr(out, result.name);
  PutU8(out, static_cast<uint8_t>(result.status));
  PutI64(out, result.exit_code);
  PutU8(out, static_cast<uint8_t>(result.signal));
  PutStr(out, result.fault_message);
  PutU64(out, result.injections);
  PutU64(out, result.instructions);
  PutF64(out, result.seconds);
  PutU64(out, result.covered_offsets);
  PutU32(out, static_cast<uint32_t>(result.covered_by_module.size()));
  for (const auto& [mod, n] : result.covered_by_module) {
    PutStr(out, mod);
    PutU64(out, n);
  }
  PutU32(out, static_cast<uint32_t>(result.coverage.size()));
  for (const auto& [mod, bitmap] : result.coverage) {
    PutStr(out, mod);
    EncodeBitmap(out, bitmap);
  }
  PutU32(out, static_cast<uint32_t>(result.fault_frames.size()));
  for (const std::string& frame : result.fault_frames) PutStr(out, frame);
  PutU64(out, result.crash_site_hash);
  PutU64(out, result.crash_hash);
  EncodePlan(out, result.replay);
  PutU64(out, result.first_injection_instructions);
  PutU8(out, result.snapshot_fallback ? 1 : 0);
  PutU64(out, result.restore_pages);
  PutU64(out, result.restore_nodes_walked);
  PutU64(out, result.state_digest);
  PutU32(out, result.seu_landed);
}

Result<campaign::ScenarioResult> DecodeResult(Reader& r) {
  campaign::ScenarioResult res;
  uint64_t index = 0;
  uint8_t status = 0, signal = 0, snapshot_fallback = 0;
  uint32_t n = 0;
  if (!r.U64(&index) || !r.Str(&res.name) || !r.U8(&status) ||
      !r.I64(&res.exit_code) || !r.U8(&signal) || !r.Str(&res.fault_message) ||
      !r.U64(&res.injections) || !r.U64(&res.instructions) ||
      !r.F64(&res.seconds) || !r.U64(&res.covered_offsets)) {
    return Err("wire: truncated result");
  }
  if (status > static_cast<uint8_t>(campaign::ScenarioStatus::SetupError) ||
      signal > static_cast<uint8_t>(vm::Signal::Ill)) {
    return Err("wire: bad result enum");
  }
  res.index = static_cast<size_t>(index);
  res.status = static_cast<campaign::ScenarioStatus>(status);
  res.signal = static_cast<vm::Signal>(signal);
  if (!r.U32(&n) || !PlausibleCount(r, n)) return Err("wire: truncated result");
  for (uint32_t i = 0; i < n; ++i) {
    std::string mod;
    uint64_t count = 0;
    if (!r.Str(&mod) || !r.U64(&count)) return Err("wire: truncated result");
    res.covered_by_module[mod] = static_cast<size_t>(count);
  }
  if (!r.U32(&n) || !PlausibleCount(r, n)) return Err("wire: truncated result");
  for (uint32_t i = 0; i < n; ++i) {
    std::string mod;
    if (!r.Str(&mod)) return Err("wire: truncated result");
    auto bitmap = DecodeBitmap(r);
    if (!bitmap.ok()) return Err(bitmap.error());
    res.coverage.emplace(std::move(mod), std::move(bitmap).take());
  }
  if (!r.U32(&n) || !PlausibleCount(r, n)) return Err("wire: truncated result");
  for (uint32_t i = 0; i < n; ++i) {
    std::string frame;
    if (!r.Str(&frame)) return Err("wire: truncated result");
    res.fault_frames.push_back(std::move(frame));
  }
  if (!r.U64(&res.crash_site_hash) || !r.U64(&res.crash_hash)) {
    return Err("wire: truncated result");
  }
  auto replay = DecodePlan(r);
  if (!replay.ok()) return Err(replay.error());
  res.replay = std::move(replay).take();
  if (!r.U64(&res.first_injection_instructions) || !r.U8(&snapshot_fallback) ||
      !r.U64(&res.restore_pages) || !r.U64(&res.restore_nodes_walked) ||
      !r.U64(&res.state_digest) || !r.U32(&res.seu_landed)) {
    return Err("wire: truncated result");
  }
  res.snapshot_fallback = snapshot_fallback != 0;
  return res;
}

// -- messages ----------------------------------------------------------------

std::vector<uint8_t> EncodeConfigure(const ConfigureMsg& msg) {
  std::vector<uint8_t> out;
  PutU32(out, static_cast<uint32_t>(msg.target.modules.size()));
  for (const std::vector<uint8_t>& mod : msg.target.modules) {
    PutBytes(out, mod);
  }
  PutU32(out, static_cast<uint32_t>(msg.target.files.size()));
  for (const auto& [path, contents] : msg.target.files) {
    PutStr(out, path);
    PutBytes(out, contents);
  }
  PutU32(out, static_cast<uint32_t>(msg.target.ports.size()));
  for (int64_t port : msg.target.ports) PutI64(out, port);
  PutU32(out, static_cast<uint32_t>(msg.profiles.size()));
  for (const core::FaultProfile& profile : msg.profiles) {
    PutStr(out, profile.ToXml());
  }
  EncodeOptions(out, msg.options);
  return out;
}

Result<ConfigureMsg> DecodeConfigure(const std::vector<uint8_t>& payload) {
  Reader r(payload);
  ConfigureMsg msg;
  uint32_t n = 0;
  if (!r.U32(&n) || !PlausibleCount(r, n)) return Err("wire: bad configure");
  for (uint32_t i = 0; i < n; ++i) {
    std::vector<uint8_t> mod;
    if (!r.Bytes(&mod)) return Err("wire: bad configure module");
    msg.target.modules.push_back(std::move(mod));
  }
  if (!r.U32(&n) || !PlausibleCount(r, n)) return Err("wire: bad configure");
  for (uint32_t i = 0; i < n; ++i) {
    std::string path;
    std::vector<uint8_t> contents;
    if (!r.Str(&path) || !r.Bytes(&contents)) {
      return Err("wire: bad configure file");
    }
    msg.target.files.emplace_back(std::move(path), std::move(contents));
  }
  if (!r.U32(&n) || !PlausibleCount(r, n)) return Err("wire: bad configure");
  for (uint32_t i = 0; i < n; ++i) {
    int64_t port = 0;
    if (!r.I64(&port)) return Err("wire: bad configure port");
    msg.target.ports.push_back(port);
  }
  if (!r.U32(&n) || !PlausibleCount(r, n)) return Err("wire: bad configure");
  for (uint32_t i = 0; i < n; ++i) {
    std::string xml;
    if (!r.Str(&xml)) return Err("wire: bad configure profile");
    auto profile = core::FaultProfile::FromXml(xml);
    if (!profile.ok()) {
      return Err("wire: configure profile: " + profile.error());
    }
    msg.profiles.push_back(std::move(profile).take());
  }
  auto options = DecodeOptions(r);
  if (!options.ok()) return Err(options.error());
  msg.options = std::move(options).take();
  if (!r.AtEnd()) return Err("wire: trailing bytes in configure");
  return msg;
}

std::vector<uint8_t> EncodeBatch(const BatchMsg& msg) {
  std::vector<uint8_t> out;
  PutU32(out, static_cast<uint32_t>(msg.scenarios.size()));
  for (size_t i = 0; i < msg.scenarios.size(); ++i) {
    PutU64(out, msg.indices[i]);
    EncodeScenario(out, msg.scenarios[i]);
  }
  return out;
}

Result<BatchMsg> DecodeBatch(const std::vector<uint8_t>& payload) {
  Reader r(payload);
  BatchMsg msg;
  uint32_t n = 0;
  if (!r.U32(&n) || !PlausibleCount(r, n)) return Err("wire: bad batch");
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t index = 0;
    if (!r.U64(&index)) return Err("wire: bad batch index");
    auto scenario = DecodeScenario(r);
    if (!scenario.ok()) return Err(scenario.error());
    msg.indices.push_back(index);
    msg.scenarios.push_back(std::move(scenario).take());
  }
  if (!r.AtEnd()) return Err("wire: trailing bytes in batch");
  return msg;
}

std::vector<uint8_t> EncodeBatchResult(const BatchResultMsg& msg) {
  std::vector<uint8_t> out;
  PutU32(out, static_cast<uint32_t>(msg.results.size()));
  for (const campaign::ScenarioResult& res : msg.results) {
    EncodeResult(out, res);
  }
  PutU32(out, static_cast<uint32_t>(msg.coverage.size()));
  for (const auto& [mod, bitmap] : msg.coverage) {
    PutStr(out, mod);
    EncodeBitmap(out, bitmap);
  }
  return out;
}

Result<BatchResultMsg> DecodeBatchResult(const std::vector<uint8_t>& payload) {
  Reader r(payload);
  BatchResultMsg msg;
  uint32_t n = 0;
  if (!r.U32(&n) || !PlausibleCount(r, n)) return Err("wire: bad batch result");
  for (uint32_t i = 0; i < n; ++i) {
    auto res = DecodeResult(r);
    if (!res.ok()) return Err(res.error());
    msg.results.push_back(std::move(res).take());
  }
  if (!r.U32(&n) || !PlausibleCount(r, n)) return Err("wire: bad batch result");
  for (uint32_t i = 0; i < n; ++i) {
    std::string mod;
    if (!r.Str(&mod)) return Err("wire: bad batch result");
    auto bitmap = DecodeBitmap(r);
    if (!bitmap.ok()) return Err(bitmap.error());
    msg.coverage.emplace_back(std::move(mod), std::move(bitmap).take());
  }
  if (!r.AtEnd()) return Err("wire: trailing bytes in batch result");
  return msg;
}

// -- machine setup from a spec -----------------------------------------------

Result<campaign::MachineSetup> MakeSetup(const TargetSpec& spec) {
  auto modules = std::make_shared<std::vector<sso::SharedObject>>();
  for (const std::vector<uint8_t>& blob : spec.modules) {
    auto so = sso::SharedObject::Parse(blob);
    if (!so.ok()) return Err("target module: " + so.error());
    modules->push_back(std::move(so).take());
  }
  auto files = std::make_shared<
      std::vector<std::pair<std::string, std::vector<uint8_t>>>>(spec.files);
  auto ports = std::make_shared<std::vector<int64_t>>(spec.ports);
  return campaign::MachineSetup(
      [modules, files, ports](vm::Machine& machine) {
        for (const sso::SharedObject& so : *modules) machine.Load(so);
        for (const auto& [path, contents] : *files) {
          machine.kernel().add_file(path, contents);
        }
        for (int64_t port : *ports) machine.kernel().listen(port);
      });
}

// -- frame I/O ---------------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

Status WriteAll(int fd, const uint8_t* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    // MSG_NOSIGNAL: a peer that died (a killed worker — the fabric's
    // normal failure mode) must surface as EPIPE to the caller, not as a
    // process-wide SIGPIPE.
    ssize_t n = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Err(std::string("wire: write: ") + strerror(errno));
    }
    if (n == 0) return Err("wire: write: connection closed");
    done += static_cast<size_t>(n);
  }
  return {};
}

/// Read exactly `size` bytes before `deadline`; a null `deadline` blocks
/// forever. Bytes already buffered when the deadline passes are still
/// read, so only a peer that stalls past it times out.
Status ReadAll(int fd, uint8_t* data, size_t size,
               const Clock::time_point* deadline) {
  size_t done = 0;
  while (done < size) {
    if (deadline != nullptr) {
      auto left = std::chrono::ceil<std::chrono::milliseconds>(
          *deadline - Clock::now());
      struct pollfd pfd = {fd, POLLIN, 0};
      int ready = ::poll(&pfd, 1, static_cast<int>(std::max<int64_t>(
                                      0, left.count())));
      if (ready < 0) {
        if (errno == EINTR) continue;
        return Err(std::string("wire: poll: ") + strerror(errno));
      }
      if (ready == 0) return Err("wire: read timeout");
    }
    ssize_t n = ::read(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Err(std::string("wire: read: ") + strerror(errno));
    }
    if (n == 0) return Err("wire: connection closed");
    done += static_cast<size_t>(n);
  }
  return {};
}

}  // namespace

void AppendFrame(std::vector<uint8_t>& out, MsgType type,
                 const std::vector<uint8_t>& payload) {
  PutU32(out, kWireMagic);
  PutU8(out, static_cast<uint8_t>(type));
  PutU32(out, static_cast<uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

Status WriteFrame(int fd, MsgType type, const std::vector<uint8_t>& payload) {
  if (payload.size() > kMaxPayload) return Err("wire: frame too large");
  std::vector<uint8_t> frame;
  frame.reserve(9 + payload.size());
  AppendFrame(frame, type, payload);
  return WriteAll(fd, frame.data(), frame.size());
}

Result<Frame> ReadFrame(int fd, int timeout_ms) {
  // One deadline for the whole frame: a peer that trickles bytes cannot
  // stretch it by re-arming a per-read timeout.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  const Clock::time_point* until = timeout_ms >= 0 ? &deadline : nullptr;
  uint8_t header[9];
  if (auto st = ReadAll(fd, header, sizeof(header), until); !st.ok()) {
    return Err(st.error());
  }
  std::vector<uint8_t> buf(header, header + sizeof(header));
  Reader r(buf);
  uint32_t magic = 0, length = 0;
  uint8_t type = 0;
  r.U32(&magic);
  r.U8(&type);
  r.U32(&length);
  if (magic != kWireMagic) return Err("wire: bad magic");
  if (type < static_cast<uint8_t>(MsgType::Hello) ||
      type > static_cast<uint8_t>(MsgType::Shutdown)) {
    return Err("wire: unknown message type");
  }
  if (length > kMaxPayload) return Err("wire: frame too large");
  Frame frame;
  frame.type = static_cast<MsgType>(type);
  frame.payload.resize(length);
  if (length > 0) {
    if (auto st = ReadAll(fd, frame.payload.data(), length, until);
        !st.ok()) {
      return Err(st.error());
    }
  }
  return frame;
}

}  // namespace lfi::serve
