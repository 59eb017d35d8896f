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

// -- payloads ----------------------------------------------------------------
// Each wire type is described once, by a field visitor in wire.cpp that a
// writer and a reader both instantiate, so the directions cannot drift. The
// reader owns every check: count caps, enum maxima, option flag bits, 0/1
// bools, and checked narrowing (an i64 that does not fit its field is an
// error, never a wrap). Every plan it decodes, batch scenario or result
// replay, must pass core::ValidatePlan, as every XML plan must.

/// Hello payload, both directions: the sender's protocol version.
struct HelloMsg {
  uint32_t version = kWireVersion;
};

/// Error payload, worker -> coordinator.
struct ErrorMsg {
  std::string message;
};

/// Configure payload: target spec + fault profiles (canonical XML — the
/// profile format carries no floating point) + campaign options.
struct ConfigureMsg {
  TargetSpec target;
  std::vector<core::FaultProfile> profiles;
  campaign::CampaignOptions options;
};

/// RunBatch payload: scenarios tagged with their campaign-global indices.
struct BatchMsg {
  std::vector<uint64_t> indices;  // parallel to `scenarios`
  std::vector<campaign::Scenario> scenarios;
};

/// BatchResult payload: one ScenarioResult per batch scenario (its .index
/// already global) plus the batch's union coverage per module name.
struct BatchResultMsg {
  std::vector<campaign::ScenarioResult> results;
  std::vector<std::pair<std::string, vm::CoverageBitmap>> coverage;
};

/// Encode one message payload (any of the *Msg structs above).
template <class T>
std::vector<uint8_t> Encode(const T& value);

/// Decode one message payload. Fails (never asserts) on truncated,
/// malformed, or trailing input — payloads come from the network.
template <class T>
Result<T> Decode(const std::vector<uint8_t>& payload);

// Named forms of Encode/Decode for the batch messages.
inline std::vector<uint8_t> EncodeBatch(const BatchMsg& msg) {
  return Encode(msg);
}
inline Result<BatchMsg> DecodeBatch(const std::vector<uint8_t>& payload) {
  return Decode<BatchMsg>(payload);
}
inline std::vector<uint8_t> EncodeBatchResult(const BatchResultMsg& msg) {
  return Encode(msg);
}
inline Result<BatchResultMsg> DecodeBatchResult(
    const std::vector<uint8_t>& payload) {
  return Decode<BatchResultMsg>(payload);
}

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
