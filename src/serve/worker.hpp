// Campaign fabric worker (`lfi serve`): hosts a snapshot-warmed machine
// pool and executes scenario batches shipped by a coordinator.
//
// A worker is a dumb executor by design: it never generates scenarios,
// never aggregates a campaign, never decides sharding. It receives one
// Configure (target image + profiles + options), builds a CampaignRunner
// from it, and then answers RunBatch frames until the coordinator hangs
// up. The runner's machine pool persists across batches — the worker pays
// module load + decode + snapshot warm once per connection, which is the
// entire point of a daemon over fork-per-batch.
//
// Determinism: the worker runs batches through the exact same
// CampaignRunner::Run path an in-process campaign uses, on a machine built
// from the same TargetSpec. Per-scenario outcomes depend only on the
// scenario (the runner's contract), so which worker ran a batch — or
// whether it ran twice because a coordinator retried it — cannot change a
// single result byte.
#pragma once

#include <cstdint>
#include <string>

#include "util/result.hpp"

namespace lfi::serve {

struct WorkerConfig {
  /// TCP port to listen on; 0 = kernel-assigned (reported by Listen()).
  uint16_t port = 0;
  /// Worker threads per batch (CampaignOptions::jobs override for the
  /// worker-local runner). 0 = run batches with the jobs count the
  /// coordinator configured.
  int jobs = 0;
  /// Fault hook for tests and CI: after this many scenarios have executed,
  /// hard-close the connection mid-protocol (no Error frame, no goodbye —
  /// indistinguishable from a kill -9 to the coordinator). 0 = off.
  /// Deterministic, unlike an actual signal race, so the retry path can be
  /// exercised reproducibly.
  uint64_t abort_after_scenarios = 0;
  /// Straggler hook for tests: sleep this long before answering each
  /// batch, so other workers finish their batches first. 0 = off.
  uint32_t batch_delay_ms = 0;
};

/// One worker process. Listen() binds; Serve*() runs the protocol.
class WorkerServer {
 public:
  explicit WorkerServer(WorkerConfig config = {}) : config_(config) {}
  ~WorkerServer();

  WorkerServer(const WorkerServer&) = delete;
  WorkerServer& operator=(const WorkerServer&) = delete;

  /// Bind + listen on config.port (loopback only — the fabric is a local
  /// trust domain, not an internet service). Returns the bound port.
  Result<uint16_t> Listen();

  /// Accept loop: serve one coordinator connection at a time, forever
  /// (until the process is killed). `lfi serve` lives here.
  void ServeForever();

  /// Accept and serve exactly one connection, then return. Tests and the
  /// CI smoke use this to bound the daemon's life.
  Status ServeOnce();

  /// Run the worker protocol on an already-connected socket (a TCP accept,
  /// or one end of a socketpair from SpawnLocalWorker). Owns `fd` and
  /// closes it before returning. Returns the reason the conversation
  /// ended ("shutdown", peer EOF, protocol error...).
  Status ServeConnection(int fd);

 private:
  WorkerConfig config_;
  int listen_fd_ = -1;
};

/// A worker process forked off the current one, connected by a socketpair.
/// `fd` speaks the wire protocol (the parent is the coordinator side);
/// `pid` is a real, killable process — tests SIGKILL it to exercise the
/// fabric's failure handling against an actual process death.
struct LocalWorker {
  int pid = -1;
  int fd = -1;
};

/// Fork a worker child that serves the wire protocol on its end of a
/// socketpair and _exit()s when the conversation ends. No exec — the child
/// reuses this image, so there is no binary-path coupling. Must be called
/// before the calling process spawns threads (fork + threads don't mix);
/// the CLI spawns its workers before building the coordinator.
Result<LocalWorker> SpawnLocalWorker(const WorkerConfig& config = {});

}  // namespace lfi::serve
