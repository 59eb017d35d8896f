#include "serve/wire.hpp"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <concepts>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

#include "sso/sso.hpp"

namespace lfi::serve {

namespace {

// -- the two Io types ---------------------------------------------------------
// A field visitor Fields(io, value) names a payload's fields in wire order,
// once. Instantiated with a Writer it appends them; with a Reader it parses
// and checks them. Both take the same calls, so a schema reads the same in
// either direction: U8/U32/U64/I64/F64 are fixed-width little-endian
// integers (F64 the exact IEEE-754 bit pattern), Str/Bytes a u32 length
// then the bytes, Bool a 0/1 byte, Enum a u8 up to a maximum, Opt a Bool
// presence flag then the value, Seq a u32 count then the elements.

/// Appends fields to a payload. Never fails: every call returns true.
class Writer {
 public:
  static constexpr bool kReading = false;

  explicit Writer(std::vector<uint8_t>& out) : out_(out) {}

  bool U8(uint8_t v) {
    out_.push_back(v);
    return true;
  }
  bool U32(uint32_t v) { return Le(v); }
  template <class T>
  bool U64(T v) {
    return Le(static_cast<uint64_t>(v));
  }
  template <class T>
  bool I64(T v, T = 0, T = 0) {
    return Le(static_cast<uint64_t>(static_cast<int64_t>(v)));
  }
  bool F64(double v) { return Le(std::bit_cast<uint64_t>(v)); }
  template <class E>
  bool Enum(E v, E /*max*/) {
    return U8(static_cast<uint8_t>(v));
  }
  bool Bool(bool v) { return Enum(v, true); }
  bool Str(const std::string& v) { return Blob(v); }
  bool Bytes(const std::vector<uint8_t>& v) { return Blob(v); }
  /// One flags byte: the i-th bool is the i-th set bit of `mask`.
  template <class... B>
  bool Bits(uint8_t mask, const B&... bits) {
    uint8_t byte = 0;
    unsigned rest = mask;
    ((byte |= bits ? static_cast<uint8_t>(rest & -rest) : 0, rest &= rest - 1),
     ...);
    return U8(byte);
  }
  template <class T, class F>
  bool Opt(const std::optional<T>& v, F field) {
    return Bool(v.has_value()) && (!v || field(*this, *v));
  }
  bool Count(size_t n) { return U32(static_cast<uint32_t>(n)); }
  template <class C, class F>
  bool Seq(const C& items, F field) {
    Count(items.size());
    for (const auto& item : items) field(*this, item);
    return true;
  }
  bool Valid(const core::Plan&) { return true; }

 private:
  template <class T>
  bool Le(T v) {
    uint8_t bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    out_.insert(out_.end(), bytes, bytes + sizeof(T));
    return true;
  }
  template <class C>
  bool Blob(const C& v) {
    Count(v.size());
    out_.insert(out_.end(), v.begin(), v.end());
    return true;
  }

  std::vector<uint8_t>& out_;
};

/// Parses fields from a received payload and checks each before it is
/// trusted. The first failure is kept in error() and every later call on
/// the chain is skipped by the visitors' &&.
class Reader {
 public:
  static constexpr bool kReading = true;

  explicit Reader(const std::vector<uint8_t>& buf)
      : begin_(buf.data()), pos_(buf.data()), end_(buf.data() + buf.size()) {}

  bool U8(uint8_t& v) { return Le(v); }
  bool U32(uint32_t& v) { return Le(v); }
  template <class T>
  bool U64(T& v) {
    uint64_t raw = 0;
    if (!Le(raw)) return false;
    if (!std::in_range<T>(raw)) return Fail("value out of range");
    v = static_cast<T>(raw);
    return true;
  }
  /// An i64 into a field of type T, which must hold it, and which must lie
  /// in [lo, hi] when the schema bounds it.
  template <class T>
  bool I64(T& v, T lo = std::numeric_limits<T>::min(),
           T hi = std::numeric_limits<T>::max()) {
    uint64_t raw = 0;
    if (!Le(raw)) return false;
    const auto value = static_cast<int64_t>(raw);
    if (value < lo || value > hi) return Fail("value out of range");
    v = static_cast<T>(value);
    return true;
  }
  bool F64(double& v) {
    uint64_t raw = 0;
    if (!Le(raw)) return false;
    v = std::bit_cast<double>(raw);
    return true;
  }
  template <class E>
  bool Enum(E& v, E max) {
    uint8_t byte = 0;
    if (!U8(byte)) return false;
    if (byte > static_cast<uint8_t>(max)) return Fail("value out of range");
    v = static_cast<E>(byte);
    return true;
  }
  /// Only 0 and 1: the writer sends nothing else, so a payload that
  /// decodes re-encodes to the same bytes.
  bool Bool(bool& v) { return Enum(v, true); }
  bool Str(std::string& v) { return Blob(v); }
  bool Bytes(std::vector<uint8_t>& v) { return Blob(v); }
  /// Bits outside `mask` are undefined: a peer setting them speaks a
  /// protocol this build does not.
  template <class... B>
  bool Bits(uint8_t mask, B&... bits) {
    uint8_t byte = 0;
    if (!U8(byte)) return false;
    if ((byte & ~mask) != 0) return Fail("unknown flag bits");
    unsigned rest = mask;
    ((bits = (byte & rest & -rest) != 0, rest &= rest - 1), ...);
    return true;
  }
  template <class T, class F>
  bool Opt(std::optional<T>& v, F field) {
    bool present = false;
    if (!Bool(present)) return false;
    return !present || field(*this, v.emplace());
  }
  /// A collection count. Every encoded element costs at least one byte, so
  /// a count beyond the bytes actually present is malformed.
  bool Count(uint32_t& n) {
    if (!U32(n)) return false;
    return n <= left() || Fail("count exceeds payload");
  }
  /// Elements are appended one at a time, never reserved for the count.
  /// Map keys must strictly ascend, as a std::map writes them.
  template <class C, class F>
  bool Seq(C& items, F field) {
    uint32_t n = 0;
    if (!Count(n)) return false;
    for (uint32_t i = 0; i < n; ++i) {
      if constexpr (requires { typename C::mapped_type; }) {
        std::pair<typename C::key_type, typename C::mapped_type> kv;
        if (!field(*this, kv)) return false;
        if (!items.empty() && !(items.rbegin()->first < kv.first)) {
          return Fail("map keys out of order");
        }
        items.emplace_hint(items.end(), std::move(kv));
      } else if (!field(*this, items.emplace_back())) {
        return false;
      }
    }
    return true;
  }
  bool Valid(const core::Plan& plan) {
    Status st = core::ValidatePlan(plan);
    return st.ok() || Fail(st.error());
  }

  size_t left() const { return static_cast<size_t>(end_ - pos_); }
  bool AtEnd() const { return pos_ == end_; }
  bool Fail(std::string message) {
    error_ = std::move(message) + " at byte " + std::to_string(pos_ - begin_);
    return false;
  }
  bool Truncated() { return Fail("truncated"); }
  const std::string& error() const { return error_; }

 private:
  template <class T>
  bool Le(T& v) {
    if (left() < sizeof(T)) return Truncated();
    T out = 0;
    for (size_t i = 0; i < sizeof(T); ++i) out |= T(pos_[i]) << (8 * i);
    pos_ += sizeof(T);
    v = out;
    return true;
  }
  template <class C>
  bool Blob(C& v) {
    uint32_t len = 0;
    if (!U32(len)) return false;
    if (len > left()) return Truncated();
    const auto* data = reinterpret_cast<const typename C::value_type*>(pos_);
    v.assign(data, data + len);
    pos_ += len;
    return true;
  }

  const uint8_t* begin_;
  const uint8_t* pos_;
  const uint8_t* end_;
  std::string error_;
};

// -- schemas ------------------------------------------------------------------
// One Fields overload per wire type, in wire order. `Is<T, U>` lets one
// template serve both a const value (Writer) and a mutable one (Reader).

template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

// Element codecs for Seq and Opt.
constexpr auto kU64 = [](auto& io, auto& v) { return io.U64(v); };
constexpr auto kI64 = [](auto& io, auto& v) { return io.I64(v); };
constexpr auto kStr = [](auto& io, auto& v) { return io.Str(v); };
constexpr auto kBytes = [](auto& io, auto& v) { return io.Bytes(v); };
constexpr auto kFields = [](auto& io, auto& v) { return Fields(io, v); };
/// (module name, bitmap) pairs, in a map or a vector.
constexpr auto kNamedBitmap = [](auto& io, auto& kv) {
  return io.Str(kv.first) && Fields(io, kv.second);
};

template <class Io, Is<core::FrameCondition> F>
bool Fields(Io& io, F& f) {
  return io.Opt(f.address, kU64) && io.Str(f.symbol);
}

template <class Io, Is<core::ArgModification> M>
bool Fields(Io& io, M& m) {
  return io.I64(m.argument) &&
         io.Enum(m.op, core::ArgModification::Op::Xor) && io.I64(m.value);
}

template <class Io, Is<core::FunctionTrigger> T>
bool Fields(Io& io, T& t) {
  return io.Str(t.function) &&
         io.Enum(t.mode, core::FunctionTrigger::Mode::Rotate) &&
         io.U64(t.inject_call) && io.F64(t.probability) &&
         io.Opt(t.retval, kI64) && io.Opt(t.errno_value, kI64) &&
         io.Bool(t.call_original) && io.I64(t.max_injections) &&
         io.Seq(t.stacktrace, kFields) && io.Seq(t.modifications, kFields);
}

template <class Io, Is<core::SeuFault> S>
bool Fields(Io& io, S& s) {
  return io.Enum(s.target, core::SeuFault::Target::Data) && io.I64(s.reg) &&
         io.U64(s.offset) && io.Str(s.module) && io.I64(s.bit) &&
         io.U64(s.at_instruction) && io.I64(s.pid) &&
         io.Str(s.window_module) && io.U64(s.window_begin) &&
         io.U64(s.window_end);
}

template <class Io, Is<core::Plan> P>
bool Fields(Io& io, P& p) {
  return io.U64(p.seed) && io.Seq(p.triggers, kFields) &&
         io.Seq(p.seus, kFields) && io.Valid(p);
}

template <class Io, Is<campaign::Scenario> S>
bool Fields(Io& io, S& s) {
  return io.Str(s.name) && Fields(io, s.plan) && io.Str(s.entry) &&
         io.U64(s.heap_cap_bytes) && io.Opt(s.warmup_instructions, kU64);
}

template <class Io, Is<campaign::CampaignOptions> O>
bool Fields(Io& io, O& o) {
  // Flag bits 0-3, 5 and 6; bit 4 (the retired flat-vs-tree snapshot
  // switch) and bit 7 are undefined.
  return io.I64(o.jobs, 0, campaign::kMaxJobs) && io.Str(o.entry) &&
         io.U64(o.max_instructions) && io.U64(o.default_heap_cap) &&
         io.Bits(0b0110'1111, o.track_coverage, o.collect_scenario_coverage,
                 o.collect_replays, o.snapshot, o.collect_state_digest,
                 o.controller.feasible_only) &&
         io.U64(o.warmup_instructions) &&
         io.Opt(o.exec_mode,
                [](auto& io, auto& mode) {
                  return io.Enum(mode, vm::ExecMode::Reference);
                }) &&
         io.Bool(o.controller.log_enabled) &&
         io.Bool(o.controller.log_backtraces) &&
         io.U64(o.controller.log_capacity);
}

// A coverage bitmap is word-sparse (v5): [bits u64] [n u32] then n x
// ([word index u32] [word u64]), the non-zero 64-bit words only, indices
// strictly ascending, bits at or past `bits` clear.
bool Fields(Writer& io, const vm::CoverageBitmap& bitmap) {
  const std::vector<uint64_t>& words = bitmap.words();
  uint32_t nonzero = 0;
  for (uint64_t word : words) nonzero += word != 0;
  io.U64(bitmap.size_bits());
  io.U32(nonzero);
  for (size_t w = 0; w < words.size(); ++w) {
    if (words[w] == 0) continue;
    io.U32(static_cast<uint32_t>(w));
    io.U64(words[w]);
  }
  return true;
}

bool Fields(Reader& io, vm::CoverageBitmap& bitmap) {
  uint64_t bits = 0;
  uint32_t count = 0;
  if (!io.U64(bits) || !io.U32(count)) return false;
  // A bitmap covers one module's code section; cap it before allocating so
  // a hostile peer cannot size it.
  if (bits > sso::kMaxCodeBytes) return io.Fail("bitmap too large");
  const uint64_t word_count = (bits + 63) / 64;
  // Each sent word costs 12 bytes: (index u32, word u64).
  if (count > word_count) return io.Fail("bitmap word count above its size");
  if (uint64_t{count} * 12 > io.left()) return io.Truncated();
  bitmap = vm::CoverageBitmap(static_cast<size_t>(bits));
  uint64_t next = 0;  // smallest index the next word may carry
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t index = 0;
    uint64_t word = 0;
    if (!io.U32(index) || !io.U64(word)) return false;
    if (index < next || index >= word_count) {
      return io.Fail("bitmap word index out of order or range");
    }
    if (word == 0) return io.Fail("zero bitmap word");
    if (index == word_count - 1 && bits % 64 != 0 &&
        (word >> (bits % 64)) != 0) {
      return io.Fail("bitmap offset out of range");
    }
    bitmap.OrWord(index, word);
    next = uint64_t{index} + 1;
  }
  return true;
}

template <class Io, Is<campaign::ScenarioResult> R>
bool Fields(Io& io, R& r) {
  return io.U64(r.index) && io.Str(r.name) &&
         io.Enum(r.status, campaign::ScenarioStatus::SetupError) &&
         io.I64(r.exit_code) && io.Enum(r.signal, vm::Signal::Ill) &&
         io.Str(r.fault_message) && io.U64(r.injections) &&
         io.U64(r.instructions) && io.F64(r.seconds) &&
         io.U64(r.covered_offsets) &&
         io.Seq(r.covered_by_module,
                [](auto& io, auto& kv) {
                  return io.Str(kv.first) && io.U64(kv.second);
                }) &&
         io.Seq(r.coverage, kNamedBitmap) && io.Seq(r.fault_frames, kStr) &&
         io.U64(r.crash_site_hash) && io.U64(r.crash_hash) &&
         Fields(io, r.replay) && io.U64(r.first_injection_instructions) &&
         io.Bool(r.snapshot_fallback) && io.U64(r.restore_pages) &&
         io.U64(r.restore_nodes_walked) && io.U64(r.state_digest) &&
         io.U32(r.seu_landed);
}

// A profile travels as its canonical XML and is parsed on arrival.
bool Fields(Writer& io, const core::FaultProfile& profile) {
  return io.Str(profile.ToXml());
}

bool Fields(Reader& io, core::FaultProfile& profile) {
  std::string xml;
  if (!io.Str(xml)) return false;
  auto parsed = core::FaultProfile::FromXml(xml);
  if (!parsed.ok()) return io.Fail("configure profile: " + parsed.error());
  profile = std::move(parsed).take();
  return true;
}

template <class Io, Is<HelloMsg> M>
bool Fields(Io& io, M& m) {
  return io.U32(m.version);
}

template <class Io, Is<ErrorMsg> M>
bool Fields(Io& io, M& m) {
  return io.Str(m.message);
}

template <class Io, Is<ConfigureMsg> M>
bool Fields(Io& io, M& m) {
  return io.Seq(m.target.modules, kBytes) &&
         io.Seq(m.target.files,
                [](auto& io, auto& file) {
                  return io.Str(file.first) && io.Bytes(file.second);
                }) &&
         io.Seq(m.target.ports, kI64) && io.Seq(m.profiles, kFields) &&
         Fields(io, m.options);
}

template <class Io, Is<BatchMsg> M>
bool Fields(Io& io, M& m) {
  // One count for the two parallel vectors: (index u64, scenario) each.
  uint32_t n = static_cast<uint32_t>(m.scenarios.size());
  if (!io.Count(n)) return false;
  for (uint32_t i = 0; i < n; ++i) {
    if constexpr (Io::kReading) {
      m.indices.emplace_back();
      m.scenarios.emplace_back();
    }
    if (!io.U64(m.indices[i]) || !Fields(io, m.scenarios[i])) return false;
  }
  return true;
}

template <class Io, Is<BatchResultMsg> M>
bool Fields(Io& io, M& m) {
  return io.Seq(m.results, kFields) && io.Seq(m.coverage, kNamedBitmap);
}

}  // namespace

template <class T>
std::vector<uint8_t> Encode(const T& value) {
  std::vector<uint8_t> out;
  Writer writer(out);
  Fields(writer, value);
  return out;
}

template <class T>
Result<T> Decode(const std::vector<uint8_t>& payload) {
  Reader reader(payload);
  T value;
  if (!Fields(reader, value)) return Err("wire: " + reader.error());
  if (!reader.AtEnd()) return Err("wire: trailing bytes after payload");
  return value;
}

#define LFI_WIRE_TYPE(T)                                   \
  template std::vector<uint8_t> Encode<T>(const T&);       \
  template Result<T> Decode<T>(const std::vector<uint8_t>&);
LFI_WIRE_TYPE(HelloMsg)
LFI_WIRE_TYPE(ErrorMsg)
LFI_WIRE_TYPE(ConfigureMsg)
LFI_WIRE_TYPE(BatchMsg)
LFI_WIRE_TYPE(BatchResultMsg)
#undef LFI_WIRE_TYPE

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
        for (const sso::SharedObject& so : *modules) machine.Load(so).value();
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
  Writer header(out);
  header.U32(kWireMagic);
  header.U8(static_cast<uint8_t>(type));
  header.U32(static_cast<uint32_t>(payload.size()));
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
  r.U32(magic);
  r.U8(type);
  r.U32(length);
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
