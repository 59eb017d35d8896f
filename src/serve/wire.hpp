// Campaign fabric wire protocol (lfi serve).
//
// Length-prefixed binary frames over a stream socket. Everything the
// coordinator ships to a worker — target image, fault profiles, campaign
// options, scenario batches — and everything that comes back (per-scenario
// results, batch union coverage) is encoded here.
//
// The format is binary, not XML, for one load-bearing reason: byte
// identity. Doubles travel as exact IEEE-754 bit patterns (Plan::ToXml
// now prints %.17g, which also round-trips, but the wire does not want
// to depend on printf/strtod agreeing), and module images travel as
// their canonical sso::SharedObject serialization — the same bytes a
// local Machine loads.
//
// Framing: [magic u32 "LFW1"] [type u8] [length u32 LE] [payload bytes].
// Integers are little-endian. A reader rejects bad magic, unknown types,
// and payloads over kMaxPayload before allocating anything — a confused
// peer (or a port scanner) cannot make a worker allocate gigabytes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/runner.hpp"
#include "core/profile.hpp"
#include "util/result.hpp"

namespace lfi::serve {

inline constexpr uint32_t kWireMagic = 0x3157464Cu;  // "LFW1" little-endian
// Version history: 1 = initial; 2 = SEU faults in plans, state digest +
// landed-flip count in results, collect_state_digest options flag;
// 3 = controller feasible_only options flag (bit 6) and profile error-code
// provenance attributes in the Configure profile XML; 4 = options bit 4
// (flat-vs-tree snapshot) retired and unknown option bits rejected, exec
// mode 1 = reference (the predecoded engine is gone); 5 = word-sparse
// bitmaps: [bits u64] [n u32] then n x ([word index u32] [word u64]), the
// non-zero 64-bit words only, indices strictly ascending, bits at or past
// `bits` clear, `bits` at most sso::kMaxCodeBytes (v4 sent every set
// offset as a u32); 6 = the options shard-policy byte and the
// per-scenario weight u64 dropped (campaigns always place scenario i on
// worker slot i % jobs).
inline constexpr uint32_t kWireVersion = 6;
/// Hard cap on a single frame's payload. Campaign batches are scenario
/// plans + results, not bulk data; 256 MiB is far above any real frame.
inline constexpr uint32_t kMaxPayload = 256u << 20;

enum class MsgType : uint8_t {
  Hello = 1,        // both directions: [version u32]
  Configure = 2,    // coordinator -> worker: target + profiles + options
  ConfigureOk = 3,  // worker -> coordinator: empty
  RunBatch = 4,     // coordinator -> worker: indexed scenario batch
  BatchResult = 5,  // worker -> coordinator: indexed results + coverage
  Error = 6,        // worker -> coordinator: [message string]
  Shutdown = 7,     // coordinator -> worker: empty; worker closes
};

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::Error;
  std::vector<uint8_t> payload;
};

/// Everything a worker needs to reconstruct the coordinator's MachineSetup
/// bit-for-bit: module images in load order (canonical sso serialization),
/// VFS files, and listening ports. The fabric invariant — a distributed
/// report byte-identical to a single-process one — rests on both sides
/// building machines from this same spec.
struct TargetSpec {
  /// Serialized sso::SharedObject per module, in Machine::Load order
  /// (libc first, app last — symbol search order).
  std::vector<std::vector<uint8_t>> modules;
  /// In-memory filesystem seed: (path, contents).
  std::vector<std::pair<std::string, std::vector<uint8_t>>> files;
  /// Ports marked listening so target connect() calls succeed.
  std::vector<int64_t> ports;
};

/// Parse the spec's module blobs and build the MachineSetup campaign
/// workers run on — shared by the worker daemon and the coordinator's
/// local-fallback runner, so "who executed it" cannot change the machine.
Result<campaign::MachineSetup> MakeSetup(const TargetSpec& spec);

// -- payload encoding --------------------------------------------------------
// Encode* appends to `out`; Decode* reads from a cursor and fails (Status /
// Result error) on truncated or malformed input instead of asserting —
// frames come from the network.

/// Cursor over a received payload.
struct Reader {
  const uint8_t* data = nullptr;
  size_t size = 0;
  size_t pos = 0;

  explicit Reader(const std::vector<uint8_t>& buf)
      : data(buf.data()), size(buf.size()) {}

  bool U8(uint8_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool I64(int64_t* v);
  bool F64(double* v);  // exact bit pattern
  bool Str(std::string* v);
  bool Bytes(std::vector<uint8_t>* v);
  /// All input consumed? Decoders check this so trailing garbage is an
  /// error, not silently ignored.
  bool AtEnd() const { return pos == size; }
};

void PutU8(std::vector<uint8_t>& out, uint8_t v);
void PutU32(std::vector<uint8_t>& out, uint32_t v);
void PutU64(std::vector<uint8_t>& out, uint64_t v);
void PutI64(std::vector<uint8_t>& out, int64_t v);
void PutF64(std::vector<uint8_t>& out, double v);  // exact bit pattern
void PutStr(std::vector<uint8_t>& out, const std::string& v);
void PutBytes(std::vector<uint8_t>& out, const std::vector<uint8_t>& v);

void EncodePlan(std::vector<uint8_t>& out, const core::Plan& plan);
Result<core::Plan> DecodePlan(Reader& r);

void EncodeScenario(std::vector<uint8_t>& out,
                    const campaign::Scenario& scenario);
Result<campaign::Scenario> DecodeScenario(Reader& r);

void EncodeOptions(std::vector<uint8_t>& out,
                   const campaign::CampaignOptions& options);
Result<campaign::CampaignOptions> DecodeOptions(Reader& r);

void EncodeBitmap(std::vector<uint8_t>& out, const vm::CoverageBitmap& bitmap);
Result<vm::CoverageBitmap> DecodeBitmap(Reader& r);

void EncodeResult(std::vector<uint8_t>& out,
                  const campaign::ScenarioResult& result);
Result<campaign::ScenarioResult> DecodeResult(Reader& r);

/// Configure payload: target spec + fault profiles (canonical XML — the
/// profile format carries no floating point) + campaign options.
struct ConfigureMsg {
  TargetSpec target;
  std::vector<core::FaultProfile> profiles;
  campaign::CampaignOptions options;
};
std::vector<uint8_t> EncodeConfigure(const ConfigureMsg& msg);
Result<ConfigureMsg> DecodeConfigure(const std::vector<uint8_t>& payload);

/// RunBatch payload: scenarios tagged with their campaign-global indices.
struct BatchMsg {
  std::vector<uint64_t> indices;  // parallel to `scenarios`
  std::vector<campaign::Scenario> scenarios;
};
std::vector<uint8_t> EncodeBatch(const BatchMsg& msg);
Result<BatchMsg> DecodeBatch(const std::vector<uint8_t>& payload);

/// BatchResult payload: one ScenarioResult per batch scenario (its .index
/// already global) plus the batch's union coverage per module name.
struct BatchResultMsg {
  std::vector<campaign::ScenarioResult> results;
  std::vector<std::pair<std::string, vm::CoverageBitmap>> coverage;
};
std::vector<uint8_t> EncodeBatchResult(const BatchResultMsg& msg);
Result<BatchResultMsg> DecodeBatchResult(const std::vector<uint8_t>& payload);

// -- frame I/O ---------------------------------------------------------------

/// Append one frame (header + payload) to `out`: the bytes WriteFrame
/// sends, for callers that write without blocking.
void AppendFrame(std::vector<uint8_t>& out, MsgType type,
                 const std::vector<uint8_t>& payload);

/// Write one frame (header + payload) to `fd`, looping over partial
/// writes. Fails on any socket error (peer gone).
Status WriteFrame(int fd, MsgType type, const std::vector<uint8_t>& payload);

/// Read one frame from `fd`. Validates magic, type, and payload size
/// before allocating. `timeout_ms` bounds the whole frame, header and
/// payload together; < 0 blocks forever. On timeout the error message
/// contains "timeout" (the coordinator's retry path keys on having *an*
/// error, not the text — the text is for humans).
Result<Frame> ReadFrame(int fd, int timeout_ms = -1);

}  // namespace lfi::serve
