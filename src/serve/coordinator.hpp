// Campaign fabric coordinator: shard a scenario set across worker
// processes and merge the results back into one CampaignReport that is
// byte-identical to a single-process run.
//
// The coordinator is a ScenarioDispatch, so `lfi campaign --workers N`
// and every explorer round fan out through it exactly where an in-process
// CampaignRunner would sit. The identity invariant rests on three facts:
//
//   1. Scenario outcomes depend only on the scenario (the runner's
//      existing contract) — so *where* a scenario ran, how batches were
//      cut, and whether a batch executed twice cannot change any result.
//   2. Results are placed by campaign-global index into a pre-sized
//      vector, first writer wins — so arrival order is irrelevant.
//   3. Union coverage is a bitwise OR of per-batch union bitmaps — OR is
//      commutative, associative, and idempotent, so stealing (which can
//      make the same batch's coverage arrive twice) merges to the same
//      union.
//
// Dispatch: Run() gives each live connection a thread. Batches are
// contiguous index ranges cut from the front of the list as threads claim
// them. Each connection keeps up to two batches in flight, so a worker's
// next batch is already in its socket buffer while the coordinator
// decodes its last reply; a worker answers in order. Writes never block a
// thread from reading, so frames larger than the socket buffers cannot
// deadlock the pair.
//
// Stealing and the round's end: a thread with nothing in flight and
// nothing left to claim duplicates an in-flight batch of another worker —
// the least duplicated, latest cut one, which is the one that finishes
// last — and whichever copy lands first wins. Run() returns as soon as
// every batch has its first reply. A thread still waiting only on copies
// is woken then and records how many replies its worker still owes on
// the connection (Connection::stale); the next Run() on that connection
// reads and drops them before it sends anything new. So a worker that
// dies while it owes only copies is noticed by that next Run().
//
// Failure model: a worker that dies (EOF, socket error, reply timeout)
// loses its in-flight batches; they go back to the queue and another
// worker — or, when dispatch attempts run out, the coordinator's own
// in-process fallback runner — re-executes them. A coordinator with zero
// reachable workers degrades to a plain in-process campaign. Run() always
// completes with a full result set.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "core/profile.hpp"
#include "serve/wire.hpp"
#include "util/result.hpp"

namespace lfi::serve {

struct FabricOptions {
  /// Scenarios per batch; 0 = guided: each batch takes
  /// ceil(left / (2 * live workers)) of the scenarios not yet dispatched,
  /// clamped to [4, 64], so early batches amortize round trips and the
  /// round's last batches — and any stolen copy of them — are small.
  size_t batch_size = 0;
  /// Reply deadline per batch; a worker that blows it is treated as dead
  /// (the stream cannot be resynchronized mid-protocol). <= 0 = wait
  /// forever.
  int batch_timeout_ms = 120'000;
};

/// Counters for tests, CI assertions, and the CLI's stderr summary. Not
/// part of the report (they describe *how* work was spread, which is
/// exactly what the report must not depend on).
struct FabricStats {
  size_t workers_connected = 0;
  size_t workers_lost = 0;
  size_t batches_dispatched = 0;  // RunBatch frames sent, retries included
  size_t batches_retried = 0;     // re-dispatches after a worker failure
  size_t batches_stolen = 0;      // duplicate dispatches of in-flight work
  size_t scenarios_remote = 0;    // results filled from worker replies
  size_t scenarios_local = 0;     // results filled by the fallback runner
};

class FabricCoordinator : public campaign::ScenarioDispatch {
 public:
  /// `target` is the serializable target spec — the same one workers build
  /// their machines from and the local fallback runner uses, so every
  /// execution environment in the fabric is constructed from one source.
  FabricCoordinator(TargetSpec target,
                    std::vector<core::FaultProfile> profiles,
                    campaign::CampaignOptions options,
                    FabricOptions fabric = {});
  ~FabricCoordinator() override;

  FabricCoordinator(const FabricCoordinator&) = delete;
  FabricCoordinator& operator=(const FabricCoordinator&) = delete;

  /// Adopt an already-connected worker socket (SpawnLocalWorker's parent
  /// end) and run the handshake: Hello, then Configure with this
  /// coordinator's target + profiles + options. Takes ownership of `fd`.
  Status AddWorkerFd(int fd, std::string label = "local");

  /// Dial a `lfi serve` daemon and handshake.
  Status ConnectWorker(const std::string& host, uint16_t port);

  /// Workers that are connected and have not failed.
  size_t live_workers() const;

  /// Execute every scenario across the fabric. Blocks until all results
  /// are in (retrying / falling back as needed). Callable repeatedly —
  /// explorer rounds reuse the connections and the workers' warm machine
  /// pools.
  campaign::CampaignReport Run(
      const std::vector<campaign::Scenario>& scenarios) override;

  const FabricStats& stats() const { return stats_; }
  const campaign::CampaignOptions& options() const { return options_; }

 private:
  struct Connection {
    int fd = -1;
    std::string label;
    bool alive = false;
    /// Replies the worker still owes for copies whose round had already
    /// ended; the next Run() on this connection reads and drops them.
    size_t stale = 0;
  };

  struct RunState;

  Status Handshake(Connection& conn);
  /// One connection's dispatch loop for one Run (executes on its own
  /// thread): claim up to two batches, ship them, apply replies; on any
  /// socket failure mark the connection dead, requeue its batches, and
  /// exit.
  void WorkerLoop(size_t conn_index, RunState& state);
  /// The in-process safety net, built lazily from the same TargetSpec.
  campaign::CampaignRunner& LocalRunner();

  TargetSpec target_;
  std::vector<core::FaultProfile> profiles_;
  campaign::CampaignOptions options_;
  FabricOptions fabric_;
  std::vector<Connection> connections_;
  std::unique_ptr<campaign::CampaignRunner> local_runner_;
  FabricStats stats_;
};

}  // namespace lfi::serve
