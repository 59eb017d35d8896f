#include "serve/coordinator.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netdb.h>
#include <poll.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>

namespace lfi::serve {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// connect(2) with EINTR handling. A signal can interrupt a blocking
/// connect after the handshake is already in flight; re-calling connect
/// then fails with EALREADY/EISCONN, so the correct recovery is to poll
/// for writability and read the final status from SO_ERROR.
int ConnectRetryEintr(int fd, const struct sockaddr* addr, socklen_t len) {
  if (::connect(fd, addr, len) == 0) return 0;
  if (errno != EINTR) return -1;
  struct pollfd p = {};
  p.fd = fd;
  p.events = POLLOUT;
  int rc;
  do {
    rc = ::poll(&p, 1, -1);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return -1;
  int so_error = 0;
  socklen_t so_len = sizeof(so_error);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &so_len) < 0) {
    return -1;
  }
  if (so_error != 0) {
    errno = so_error;
    return -1;
  }
  return 0;
}

}  // namespace

/// Per-Run shared state. One mutex guards all of it: batch bookkeeping is
/// tiny compared to batch execution, so contention is irrelevant.
struct FabricCoordinator::RunState {
  struct Batch {
    size_t start = 0;
    size_t count = 0;
    int attempts = 0;  // dispatches so far (first send + retries + steals)
    int inflight = 0;  // copies currently out on a connection
    bool done = false; // a full reply has been applied
  };

  const std::vector<campaign::Scenario>* scenarios = nullptr;
  std::vector<Batch> batches;
  std::vector<campaign::ScenarioResult> results;
  std::vector<uint8_t> filled;
  std::map<std::string, vm::CoverageBitmap> coverage;
  std::mutex mu;
};

FabricCoordinator::FabricCoordinator(TargetSpec target,
                                     std::vector<core::FaultProfile> profiles,
                                     campaign::CampaignOptions options,
                                     FabricOptions fabric)
    : target_(std::move(target)),
      profiles_(std::move(profiles)),
      options_(std::move(options)),
      fabric_(fabric) {}

FabricCoordinator::~FabricCoordinator() {
  for (Connection& conn : connections_) {
    if (conn.fd < 0) continue;
    if (conn.alive) (void)WriteFrame(conn.fd, MsgType::Shutdown, {});
    ::close(conn.fd);
    conn.fd = -1;
  }
}

Status FabricCoordinator::Handshake(Connection& conn) {
  int one = 1;
  ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::vector<uint8_t> hello;
  PutU32(hello, kWireVersion);
  if (auto st = WriteFrame(conn.fd, MsgType::Hello, hello); !st.ok()) {
    return st;
  }
  auto reply = ReadFrame(conn.fd, fabric_.batch_timeout_ms);
  if (!reply.ok()) return Err(reply.error());
  if (reply.value().type != MsgType::Hello) {
    return Err("fabric: expected Hello from worker");
  }
  Reader r(reply.value().payload);
  uint32_t version = 0;
  if (!r.U32(&version) || version != kWireVersion) {
    return Err("fabric: worker protocol version mismatch");
  }
  ConfigureMsg msg;
  msg.target = target_;
  msg.profiles = profiles_;
  msg.options = options_;
  // Each worker process runs its batches on one machine; fabric
  // parallelism comes from the worker *count*. `lfi serve --jobs` can
  // override this worker-side.
  msg.options.jobs = 1;
  if (auto st = WriteFrame(conn.fd, MsgType::Configure, EncodeConfigure(msg));
      !st.ok()) {
    return st;
  }
  auto ack = ReadFrame(conn.fd, fabric_.batch_timeout_ms);
  if (!ack.ok()) return Err(ack.error());
  if (ack.value().type == MsgType::Error) {
    Reader er(ack.value().payload);
    std::string message;
    (void)er.Str(&message);
    return Err("fabric: worker rejected configure: " + message);
  }
  if (ack.value().type != MsgType::ConfigureOk) {
    return Err("fabric: expected ConfigureOk from worker");
  }
  return Status::Ok();
}

Status FabricCoordinator::AddWorkerFd(int fd, std::string label) {
  Connection conn;
  conn.fd = fd;
  conn.label = std::move(label);
  if (auto st = Handshake(conn); !st.ok()) {
    ::close(fd);
    return st;
  }
  conn.alive = true;
  connections_.push_back(std::move(conn));
  ++stats_.workers_connected;
  return Status::Ok();
}

Status FabricCoordinator::ConnectWorker(const std::string& host,
                                        uint16_t port) {
  struct addrinfo hints = {};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  std::string service = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
  if (rc != 0) {
    return Err("fabric: resolve " + host + ": " + gai_strerror(rc));
  }
  int fd = -1;
  std::string err = "fabric: no addresses for " + host;
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      err = std::string("fabric: socket: ") + strerror(errno);
      continue;
    }
    if (ConnectRetryEintr(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    err = "fabric: connect " + host + ":" + service + ": " + strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) return Err(std::move(err));
  return AddWorkerFd(fd, host + ":" + service);
}

size_t FabricCoordinator::live_workers() const {
  size_t n = 0;
  for (const Connection& conn : connections_) {
    if (conn.alive) ++n;
  }
  return n;
}

campaign::CampaignRunner& FabricCoordinator::LocalRunner() {
  if (!local_runner_) {
    auto setup = MakeSetup(target_);
    // A spec the coordinator itself built cannot normally fail to parse;
    // if it somehow does, an empty machine yields SetupError per scenario,
    // which is also what a worker would have reported.
    campaign::MachineSetup fallback =
        setup.ok() ? std::move(setup).take()
                   : campaign::MachineSetup([](vm::Machine&) {});
    local_runner_ = std::make_unique<campaign::CampaignRunner>(
        std::move(fallback), profiles_, options_);
  }
  return *local_runner_;
}

void FabricCoordinator::WorkerLoop(size_t conn_index, RunState& state) {
  Connection& conn = connections_[conn_index];
  for (;;) {
    // Claim a batch: a never-or-not-currently-dispatched one first, else
    // steal the least-duplicated in-flight batch (straggler cover).
    size_t claimed = SIZE_MAX;
    {
      std::lock_guard<std::mutex> lock(state.mu);
      size_t best_steal = SIZE_MAX;
      for (size_t b = 0; b < state.batches.size(); ++b) {
        RunState::Batch& batch = state.batches[b];
        if (batch.done || batch.attempts >= fabric_.max_batch_attempts) {
          continue;
        }
        if (batch.inflight == 0) {
          claimed = b;
          break;
        }
        if (best_steal == SIZE_MAX ||
            batch.inflight < state.batches[best_steal].inflight) {
          best_steal = b;
        }
      }
      if (claimed == SIZE_MAX) claimed = best_steal;
      if (claimed == SIZE_MAX) return;  // nothing left this thread can do
      RunState::Batch& batch = state.batches[claimed];
      if (batch.inflight > 0) {
        ++stats_.batches_stolen;
      } else if (batch.attempts > 0) {
        ++stats_.batches_retried;
      }
      ++batch.attempts;
      ++batch.inflight;
      ++stats_.batches_dispatched;
    }

    RunState::Batch& batch = state.batches[claimed];
    BatchMsg msg;
    for (size_t i = 0; i < batch.count; ++i) {
      msg.indices.push_back(batch.start + i);
      msg.scenarios.push_back((*state.scenarios)[batch.start + i]);
    }

    bool applied = false;
    Status failure;
    if (auto st = WriteFrame(conn.fd, MsgType::RunBatch, EncodeBatch(msg));
        !st.ok()) {
      failure = st;
    } else {
      auto reply = ReadFrame(conn.fd, fabric_.batch_timeout_ms);
      if (!reply.ok()) {
        failure = Err(reply.error());
      } else if (reply.value().type != MsgType::BatchResult) {
        failure = Err("fabric: unexpected reply from " + conn.label);
      } else {
        auto decoded = DecodeBatchResult(reply.value().payload);
        if (!decoded.ok()) {
          failure = Err(decoded.error());
        } else {
          std::lock_guard<std::mutex> lock(state.mu);
          --batch.inflight;
          // First full reply wins; a stolen batch's duplicate (identical
          // by determinism, so nothing is lost) is dropped.
          if (!batch.done) {
            bool valid = decoded.value().results.size() == batch.count;
            for (const campaign::ScenarioResult& res :
                 decoded.value().results) {
              if (res.index < batch.start ||
                  res.index >= batch.start + batch.count) {
                valid = false;
              }
            }
            if (valid) {
              for (campaign::ScenarioResult& res : decoded.value().results) {
                size_t idx = res.index;
                if (!state.filled[idx]) {
                  state.results[idx] = std::move(res);
                  state.filled[idx] = 1;
                }
              }
              for (auto& [mod, bitmap] : decoded.value().coverage) {
                state.coverage[mod].Merge(bitmap);
              }
              batch.done = true;
              stats_.scenarios_remote += batch.count;
            } else {
              // A worker that misaddresses results is not trustworthy.
              failure = Err("fabric: mismatched batch reply from " +
                            conn.label);
              ++batch.inflight;  // undone below on the failure path
            }
          }
          if (failure.ok()) applied = true;
        }
      }
    }

    if (!applied) {
      // The stream cannot be resynchronized after a failure mid-exchange:
      // drop the worker, put the batch back, let someone else run it.
      std::lock_guard<std::mutex> lock(state.mu);
      --batch.inflight;
      conn.alive = false;
      ::close(conn.fd);
      conn.fd = -1;
      ++stats_.workers_lost;
      return;
    }
  }
}

campaign::CampaignReport FabricCoordinator::Run(
    const std::vector<campaign::Scenario>& scenarios) {
  Clock::time_point begin = Clock::now();
  campaign::CampaignReport report;
  report.snapshot_requested = options_.snapshot;
  if (scenarios.empty()) {
    report.Aggregate();
    return report;
  }

  RunState state;
  state.scenarios = &scenarios;
  state.results.resize(scenarios.size());
  state.filled.assign(scenarios.size(), 0);

  size_t live = live_workers();
  if (live > 0) {
    // Contiguous index-range batches: ~4 per live worker so there is
    // enough granularity to steal and retry, clamped so tiny campaigns
    // still form real batches and huge ones don't drown in round trips.
    size_t batch_size = fabric_.batch_size;
    if (batch_size == 0) {
      batch_size = (scenarios.size() + live * 4 - 1) / (live * 4);
      batch_size = std::clamp<size_t>(batch_size, 1, 64);
    }
    for (size_t start = 0; start < scenarios.size(); start += batch_size) {
      RunState::Batch batch;
      batch.start = start;
      batch.count = std::min(batch_size, scenarios.size() - start);
      state.batches.push_back(batch);
    }

    std::vector<std::thread> threads;
    for (size_t c = 0; c < connections_.size(); ++c) {
      if (!connections_[c].alive) continue;
      threads.emplace_back([this, c, &state] { WorkerLoop(c, state); });
    }
    for (std::thread& t : threads) t.join();
  }

  // Everything the fabric could not place — failed batches, batches that
  // ran out of attempts, or the whole campaign when no worker is
  // reachable — runs in-process on a machine built from the same target
  // spec. Graceful degradation, not partial reports.
  std::vector<size_t> missing;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    if (!state.filled[i]) missing.push_back(i);
  }
  if (!missing.empty()) {
    std::vector<campaign::Scenario> local;
    local.reserve(missing.size());
    for (size_t idx : missing) local.push_back(scenarios[idx]);
    campaign::CampaignReport sub = LocalRunner().Run(local);
    for (size_t i = 0; i < missing.size(); ++i) {
      state.results[missing[i]] = std::move(sub.results[i]);
      state.results[missing[i]].index = missing[i];
      state.filled[missing[i]] = 1;
    }
    for (auto& [mod, bitmap] : sub.coverage) {
      state.coverage[mod].Merge(bitmap);
    }
    stats_.scenarios_local += missing.size();
  }

  report.results = std::move(state.results);
  report.coverage = std::move(state.coverage);
  report.Aggregate();
  report.wall_seconds = Seconds(begin, Clock::now());
  return report;
}

}  // namespace lfi::serve
