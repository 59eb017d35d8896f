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
//      cut, and whether a batch was retried cannot change any result.
//   2. Results are placed by campaign-global index into a pre-sized
//      vector — so arrival order is irrelevant.
//   3. Union coverage is a bitwise OR of per-batch union bitmaps — OR is
//      commutative and associative, so merge order is irrelevant.
//
// Dispatch: Run() gives each live connection a thread. Batches are
// contiguous index ranges cut from the front of the list as threads claim
// them, each guided to ceil(left / (2 * live workers)) scenarios clamped
// to [4, 64], so early batches amortize round trips and the round's last
// batches are small. Each connection keeps up to two batches in flight, so
// a worker's next batch is already in its socket buffer while the
// coordinator decodes its last reply; a worker answers in order. Writes
// never block a thread from reading, so frames larger than the socket
// buffers cannot deadlock the pair.
//
// Batch lifecycle: queued → in flight on exactly one connection → done.
// A thread with nothing in flight and nothing to claim waits until a
// failing thread requeues a batch or the round completes; Run() returns
// once no batch is in flight and none is left to claim.
//
// Failure model: a worker that dies (EOF, socket error, reply timeout)
// loses its in-flight batches; they go back to the queue and another
// worker — or, when dispatch attempts run out or no worker is left, the
// coordinator's own in-process fallback runner — re-executes them. A
// coordinator with zero reachable workers degrades to a plain in-process
// campaign. Run() always completes with a full result set.
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

/// Counters for tests, CI assertions, and the CLI's stderr summary. Not
/// part of the report (they describe *how* work was spread, which is
/// exactly what the report must not depend on).
struct FabricStats {
  size_t workers_connected = 0;
  size_t workers_lost = 0;
  size_t batches_dispatched = 0;  // RunBatch frames sent, retries included
  size_t batches_retried = 0;     // re-dispatches after a worker failure
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
                    campaign::CampaignOptions options);
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
  };

  struct RunState;

  Status Handshake(Connection& conn);
  /// One connection's dispatch loop for one Run (executes on its own
  /// thread): starting from `first_batch` (claimed by Run; kNone when
  /// there was none), keep up to two batches out, ship them, apply
  /// replies; on any socket failure mark the connection dead, requeue its
  /// batches, and exit. Idle, it waits for requeued work until the round
  /// completes.
  void WorkerLoop(size_t conn_index, size_t first_batch, RunState& state);
  /// The in-process safety net, built lazily from the same TargetSpec.
  campaign::CampaignRunner& LocalRunner();

  TargetSpec target_;
  std::vector<core::FaultProfile> profiles_;
  campaign::CampaignOptions options_;
  std::vector<Connection> connections_;
  std::unique_ptr<campaign::CampaignRunner> local_runner_;
  FabricStats stats_;
};

}  // namespace lfi::serve
