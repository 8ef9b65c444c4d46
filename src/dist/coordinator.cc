#include "dist/coordinator.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <thread>
#include <utility>

#include "core/checkpoint.h"
#include "dist/protocol.h"
#include "dist/shard.h"
#include "dist/wire.h"
#include "factor/io.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace dd {

namespace {

/// Errors that justify respawning a forked worker: transient transport
/// faults, a desynchronized stream (reconnect fixes it), a crashed or
/// hung child. Corruption is deliberately absent — a corrupt frame means
/// a bug or torn data, and retrying would mask it.
bool RespawnWorthy(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kIoError:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kInternal:
      return true;
    default:
      return false;
  }
}

struct WorkerHandle {
  uint32_t shard = 0;
  WireConn conn;
  bool connected = false;
  // Thread mode.
  std::thread thread;
  std::shared_ptr<Status> thread_status;
  // Fork mode.
  pid_t pid = -1;
  int restarts = 0;
  // Last kMsgReady, pending until the exchange loop reconciles it.
  ReadyMsg ready;
  bool ready_pending = false;
};

class Coordinator {
 public:
  Coordinator(FactorGraph* graph, const DistributedOptions& options)
      : graph_(graph), options_(options), rng_(0xc00d1ULL) {}

  ~Coordinator() { Teardown(); }

  Result<DistributedResult> Run();

 private:
  Status Validate() const;
  Status Setup();
  Status Spawn(uint32_t shard, bool is_respawn);
  Status AcceptHello();
  Status HandshakeShard(uint32_t shard);
  Status Recover(uint32_t shard, const Status& failure);
  Status ReapChild(WorkerHandle* handle);

  /// Reconcile the shard's pending kMsgReady against exchange
  /// (phase, index). Outputs either the carried result (done) or
  /// clearance to send the start frame.
  Status Reconcile(uint32_t shard, uint32_t phase, uint32_t index,
                   bool* have_result, std::string* result);

  /// Drive exchange `index` of `phase` across every shard: send each its
  /// start frame (the averaged weights and its ghost pins), then collect
  /// all results, respawning forked workers that fail with transient
  /// errors. Checks each result's position and boundary sizes and
  /// absorbs its boundary values before returning the results.
  Result<std::vector<ExchangeResultMsg>> RunExchange(uint32_t phase, uint32_t index);

  Status RunLearning();
  Status RunInference(DistributedResult* result);
  Status Finish();
  void Teardown();

  std::vector<uint8_t> PinsFor(uint32_t shard) const;

  Deadline IoDeadline() const {
    return Deadline::AfterMillis(options_.io_deadline_ms);
  }

  FactorGraph* graph_;
  DistributedOptions options_;
  Rng rng_;

  GraphPartition partition_;
  /// Per shard: the encoded kMsgAssign payload (reused verbatim on
  /// respawn — the assignment is immutable for the whole run) and the
  /// local-id maps needed to route boundary values and marginals.
  std::vector<std::string> assign_payloads_;
  std::vector<std::vector<uint32_t>> local_to_global_;
  std::vector<std::vector<uint32_t>> owned_boundary_;
  std::vector<size_t> num_owned_;

  WireListener listener_;
  std::vector<WorkerHandle> handles_;

  std::vector<double> avg_weights_;
  /// Current chain bit / running estimate of every global variable that
  /// appears in the boundary catalog (other entries stay at the evidence
  /// default and are never read).
  std::vector<uint8_t> global_bits_;
  std::vector<double> global_estimates_;

  int total_restarts_ = 0;
  bool finished_ = false;
};

Status Coordinator::Validate() const {
  if (graph_ == nullptr || !graph_->finalized()) {
    return Status::InvalidArgument(
        "RunDistributed requires a finalized factor graph");
  }
  if (options_.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (static_cast<size_t>(options_.num_shards) > graph_->num_variables()) {
    return Status::InvalidArgument(
        StrFormat("cannot cut %zu variables into %d shards",
                  graph_->num_variables(), options_.num_shards));
  }
  if (options_.epochs < 0) {
    return Status::InvalidArgument("epochs must be >= 0");
  }
  if (options_.num_samples < 1) {
    return Status::InvalidArgument("num_samples must be >= 1");
  }
  if (options_.burn_in < 0) {
    return Status::InvalidArgument("burn_in must be >= 0");
  }
  if (options_.sweeps_per_epoch < 1 || options_.sweeps_per_exchange < 1) {
    return Status::InvalidArgument(
        "sweeps_per_epoch and sweeps_per_exchange must be >= 1");
  }
  if (options_.max_shard_restarts < 0) {
    return Status::InvalidArgument("max_shard_restarts must be >= 0");
  }
  return Status::OK();
}

Status Coordinator::Setup() {
  PartitionOptions popts = options_.partition;
  popts.num_shards = options_.num_shards;
  DD_ASSIGN_OR_RETURN(partition_, PartitionGraph(*graph_, popts));

  std::string checkpoint_base;
  if (!options_.checkpoint_dir.empty()) {
    RunDirectory dir(options_.checkpoint_dir);
    DD_RETURN_IF_ERROR(dir.Create());
    // A stale shard checkpoint from an earlier run must not leak into
    // this one: the coordinator's exchange counters start at zero, so a
    // worker resuming from old state would be unresumable anyway.
    DD_RETURN_IF_ERROR(dir.ClearShardSnapshots());
    checkpoint_base = dir.path();
  }

  const uint32_t n = static_cast<uint32_t>(options_.num_shards);
  assign_payloads_.resize(n);
  local_to_global_.resize(n);
  owned_boundary_.resize(n);
  num_owned_.resize(n);
  for (uint32_t s = 0; s < n; ++s) {
    DD_ASSIGN_OR_RETURN(ShardGraph sg, BuildShardGraph(*graph_, partition_, s));
    local_to_global_[s] = sg.local_to_global;
    owned_boundary_[s] = sg.owned_boundary;
    num_owned_[s] = sg.num_owned;

    AssignMsg assign;
    assign.shard = s;
    assign.num_shards = n;
    assign.num_owned = sg.num_owned;
    assign.local_to_global = sg.local_to_global;
    assign.owned_boundary = sg.owned_boundary;
    assign.epochs = static_cast<uint32_t>(options_.epochs);
    assign.learning_rate = options_.learning_rate;
    assign.decay = options_.decay;
    assign.l2 = options_.l2;
    assign.sweeps_per_epoch = static_cast<uint32_t>(options_.sweeps_per_epoch);
    assign.learn_seed = options_.learn_seed;
    assign.burn_in = static_cast<uint32_t>(options_.burn_in);
    assign.num_samples = static_cast<uint32_t>(options_.num_samples);
    assign.inference_seed = options_.inference_seed;
    assign.sweeps_per_exchange =
        static_cast<uint32_t>(options_.sweeps_per_exchange);
    if (!checkpoint_base.empty()) {
      assign.checkpoint_path =
          RunDirectory(checkpoint_base).ShardSnapshotPath(static_cast<int>(s));
    }
    GraphSnapshot snap;
    snap.has_graph = true;
    snap.graph = std::move(sg.graph);
    assign.graph_snapshot = EncodeGraphSnapshot(snap);
    assign_payloads_[s] = EncodeAssign(assign);
  }

  avg_weights_.resize(graph_->num_weights());
  for (uint32_t w = 0; w < graph_->num_weights(); ++w) {
    avg_weights_[w] = graph_->weight_value(w);
  }
  global_bits_.assign(graph_->num_variables(), 0);
  global_estimates_.assign(graph_->num_variables(), 0.0);
  for (uint32_t v = 0; v < graph_->num_variables(); ++v) {
    if (graph_->is_evidence(v) && graph_->evidence_value(v)) {
      global_bits_[v] = 1;
      global_estimates_[v] = 1.0;
    }
  }

  DD_ASSIGN_OR_RETURN(listener_, WireListener::Listen(options_.endpoint));
  handles_.resize(n);
  for (uint32_t s = 0; s < n; ++s) handles_[s].shard = s;
  return Status::OK();
}

Status Coordinator::Spawn(uint32_t shard, bool is_respawn) {
  WorkerHandle& handle = handles_[shard];
  ShardWorkerOptions wo;
  wo.endpoint = listener_.endpoint();
  wo.shard = shard;
  wo.io_deadline_ms = options_.io_deadline_ms;

  if (options_.launch == DistLaunchMode::kThreads) {
    auto status = std::make_shared<Status>();
    handle.thread_status = status;
    handle.thread = std::thread([wo, status] { *status = RunShardWorker(wo); });
    return Status::OK();
  }

  const pid_t pid = fork();
  if (pid < 0) {
    return Status::IoError(StrFormat("fork shard %u: %s", shard,
                                     std::strerror(errno)));
  }
  if (pid == 0) {
    // Child: drop every socket inherited from the coordinator, apply any
    // test-requested fault configuration, run the worker, and _exit
    // without unwinding parent state.
    listener_.CloseInChild();
    for (WorkerHandle& h : handles_) h.conn.Close();
    const auto& specs =
        is_respawn ? options_.respawn_failpoints : options_.shard_failpoints;
    auto it = specs.find(shard);
    if (it != specs.end()) {
      Failpoints::Instance().Reset();
      if (!Failpoints::Instance().Configure(it->second).ok()) _exit(9);
    }
    const Status st = RunShardWorker(wo);
    if (!st.ok()) {
      DD_LOG(Warning) << "shard " << shard << " worker: " << st.ToString();
    }
    _exit(st.ok() ? 0 : 3);
  }
  handle.pid = pid;
  return Status::OK();
}

Status Coordinator::AcceptHello() {
  DD_ASSIGN_OR_RETURN(
      WireConn conn,
      listener_.Accept(Deadline::AfterMillis(options_.accept_deadline_ms)));
  DD_ASSIGN_OR_RETURN(Frame frame, RecvFrameRetry(&conn, IoDeadline(), &rng_));
  if (frame.type != kMsgHello) {
    return Status::Internal(
        StrFormat("expected kMsgHello, got frame type %u", frame.type));
  }
  DD_ASSIGN_OR_RETURN(HelloMsg hello, DecodeHello(frame.payload));
  if (hello.shard >= handles_.size()) {
    return Status::Internal(
        StrFormat("hello from unknown shard %u (run has %zu)", hello.shard,
                  handles_.size()));
  }
  handles_[hello.shard].conn = std::move(conn);
  handles_[hello.shard].connected = true;
  return Status::OK();
}

Status Coordinator::HandshakeShard(uint32_t shard) {
  WorkerHandle& handle = handles_[shard];
  DD_RETURN_IF_ERROR(SendFrameRetry(&handle.conn, kMsgAssign,
                                    assign_payloads_[shard], IoDeadline(),
                                    &rng_));
  DD_ASSIGN_OR_RETURN(Frame frame,
                      RecvFrameRetry(&handle.conn, IoDeadline(), &rng_));
  if (frame.type != kMsgReady) {
    return Status::Internal(
        StrFormat("shard %u: expected kMsgReady, got frame type %u", shard,
                  frame.type));
  }
  DD_ASSIGN_OR_RETURN(handle.ready, DecodeReady(frame.payload));
  handle.ready_pending = true;
  return Status::OK();
}

Status Coordinator::ReapChild(WorkerHandle* handle) {
  if (handle->pid < 0) return Status::OK();
  int wstatus = 0;
  const pid_t r = waitpid(handle->pid, &wstatus, 0);
  if (r < 0 && errno != ECHILD) {
    return Status::IoError(StrFormat("waitpid shard %u: %s", handle->shard,
                                     std::strerror(errno)));
  }
  handle->pid = -1;
  return Status::OK();
}

Status Coordinator::Recover(uint32_t shard, const Status& failure) {
  WorkerHandle& handle = handles_[shard];
  Status cause = failure;
  for (;;) {
    handle.conn.Close();
    handle.connected = false;
    handle.ready_pending = false;

    if (options_.launch == DistLaunchMode::kThreads) {
      // A thread worker shares our address space; there is nothing safe
      // to respawn. When our own error only names the broken socket,
      // surface the worker's status instead — it names the root cause.
      // But when we hold a substantive error (corruption, protocol
      // violation), keep it: closing the conn just made the worker see
      // a hangup, and its kUnavailable would mask the real failure.
      if (handle.thread.joinable()) handle.thread.join();
      const bool conn_error = cause.code() == StatusCode::kUnavailable ||
                              cause.code() == StatusCode::kIoError;
      if (conn_error && handle.thread_status && !handle.thread_status->ok()) {
        return *handle.thread_status;
      }
      return cause;
    }
    if (!RespawnWorthy(cause)) return cause;
    if (handle.restarts >= options_.max_shard_restarts) {
      return Status(
          cause.code(),
          StrFormat("shard %u exhausted its %d restarts; last error: %s",
                    shard, options_.max_shard_restarts,
                    cause.message().c_str()));
    }
    DD_RETURN_IF_ERROR(ReapChild(&handle));
    ++handle.restarts;
    ++total_restarts_;
    DD_COUNTER_ADD("dd.dist.respawns", 1);
    DD_LOG(Warning) << "respawning shard " << shard << " (restart "
                    << handle.restarts << "): " << cause.ToString();
    DD_RETURN_IF_ERROR(Spawn(shard, /*is_respawn=*/true));
    Status st = Status::OK();
    while (st.ok() && !handle.connected) st = AcceptHello();
    if (st.ok()) st = HandshakeShard(shard);
    if (st.ok()) return st;
    // The respawned worker failed before completing its handshake (it
    // may itself have been fault-injected); burn another restart on it.
    cause = st;
  }
}

Status Coordinator::Reconcile(uint32_t shard, uint32_t phase, uint32_t index,
                              bool* have_result, std::string* result) {
  WorkerHandle& handle = handles_[shard];
  *have_result = false;
  if (!handle.ready_pending) return Status::OK();
  const ReadyMsg& ready = handle.ready;
  handle.ready_pending = false;
  // The worker checkpoints before sending, so it reports exactly one of:
  // "about to run this exchange" or "holding this exchange's result".
  if (ready.phase == phase && ready.next == index) return Status::OK();
  if (ready.phase == phase && ready.next == index + 1 && ready.has_result) {
    *have_result = true;
    *result = ready.result;
    return Status::OK();
  }
  // A worker that finished learning but never started round 0 still
  // reports (learn, epochs); its carried learning result was already
  // consumed, so just start the round.
  if (phase == kPhaseInfer && index == 0 && ready.phase == kPhaseLearn &&
      ready.next == static_cast<uint32_t>(options_.epochs)) {
    return Status::OK();
  }
  return Status::Internal(StrFormat(
      "shard %u is unresumable: it reports phase %u exchange %u, the "
      "coordinator is at phase %u exchange %u",
      shard, ready.phase, ready.next, phase, index));
}

Result<std::vector<ExchangeResultMsg>> Coordinator::RunExchange(uint32_t phase,
                                                                uint32_t index) {
  const size_t n = handles_.size();
  std::vector<std::string> payloads(n);
  // 0 = start not yet sent, 1 = sent (result outstanding), 2 = done.
  std::vector<int> state(n, 0);

  auto try_start = [&](uint32_t s) -> Status {
    bool have = false;
    DD_RETURN_IF_ERROR(Reconcile(s, phase, index, &have, &payloads[s]));
    if (have) {
      state[s] = 2;
      return Status::OK();
    }
    ExchangeStartMsg start{phase, index, avg_weights_, PinsFor(s)};
    DD_RETURN_IF_ERROR(SendFrameRetry(&handles_[s].conn, kMsgExchangeStart,
                                      EncodeExchangeStart(start), IoDeadline(), &rng_));
    state[s] = 1;
    return Status::OK();
  };
  auto try_recv = [&](uint32_t s) -> Status {
    DD_ASSIGN_OR_RETURN(Frame frame,
                        RecvFrameRetry(&handles_[s].conn, IoDeadline(), &rng_));
    if (frame.type != kMsgExchangeResult) {
      return Status::Internal(
          StrFormat("shard %u: expected an exchange result, got frame type %u", s,
                    frame.type));
    }
    payloads[s] = std::move(frame.payload);
    state[s] = 2;
    return Status::OK();
  };
  // Recover + redo one shard's exchange until it lands or is hopeless.
  // max_shard_restarts bounds the loop: every iteration either succeeds
  // or consumes a restart (Recover fails once the budget is gone).
  auto drive = [&](uint32_t s) -> Status {
    for (;;) {
      Status st = Status::OK();
      if (state[s] == 0) st = try_start(s);
      if (st.ok() && state[s] == 1) st = try_recv(s);
      if (st.ok()) return st;
      state[s] = 0;
      DD_RETURN_IF_ERROR(Recover(s, st));
    }
  };

  // Send everything first so all shards compute concurrently, then
  // collect — the epoch barrier is the collection pass itself.
  for (uint32_t s = 0; s < n; ++s) {
    if (state[s] != 0) continue;
    Status st = try_start(s);
    if (!st.ok()) {
      state[s] = 0;
      DD_RETURN_IF_ERROR(Recover(s, st));
    }
  }
  for (uint32_t s = 0; s < n; ++s) {
    DD_RETURN_IF_ERROR(drive(s));
  }

  std::vector<ExchangeResultMsg> results(n);
  for (uint32_t s = 0; s < n; ++s) {
    DD_ASSIGN_OR_RETURN(results[s], DecodeExchangeResult(payloads[s]));
    const ExchangeResultMsg& r = results[s];
    if (r.phase != phase || r.index != index) {
      return Status::Internal(
          StrFormat("shard %u answered phase %u exchange %u during phase %u exchange %u",
                    s, r.phase, r.index, phase, index));
    }
    const std::vector<uint32_t>& boundary = owned_boundary_[s];
    if (r.boundary_bits.size() != boundary.size() ||
        r.boundary_estimates.size() != boundary.size()) {
      return Status::Internal(
          StrFormat("shard %u exchange result has mismatched sizes", s));
    }
    for (size_t i = 0; i < boundary.size(); ++i) {
      const uint32_t global = local_to_global_[s][boundary[i]];
      global_bits_[global] = r.boundary_bits[i];
      global_estimates_[global] = r.boundary_estimates[i];
    }
  }
  return results;
}

std::vector<uint8_t> Coordinator::PinsFor(uint32_t shard) const {
  const std::vector<uint32_t>& ghosts = partition_.shard_ghosts[shard];
  std::vector<uint8_t> pins(ghosts.size());
  for (size_t i = 0; i < ghosts.size(); ++i) pins[i] = global_bits_[ghosts[i]];
  return pins;
}

Status Coordinator::RunLearning() {
  const size_t n = handles_.size();
  const size_t nw = graph_->num_weights();
  for (uint32_t epoch = 0; epoch < static_cast<uint32_t>(options_.epochs); ++epoch) {
    DD_ASSIGN_OR_RETURN(std::vector<ExchangeResultMsg> results,
                        RunExchange(kPhaseLearn, epoch));
    std::vector<double> sum(nw, 0.0);
    for (uint32_t s = 0; s < n; ++s) {
      if (results[s].weights.size() != nw) {
        return Status::Internal(
            StrFormat("shard %u returned %zu weights, the model has %zu", s,
                      results[s].weights.size(), nw));
      }
      for (size_t w = 0; w < nw; ++w) sum[w] += results[s].weights[w];
    }
    // Model averaging (Zinkevich-style parameter mixing). Fixed weights
    // are identical replicas; keep them bit-exact instead of dividing a
    // possibly-rounded sum.
    for (size_t w = 0; w < nw; ++w) {
      if (graph_->weight(static_cast<uint32_t>(w)).is_fixed) continue;
      avg_weights_[w] = sum[w] / static_cast<double>(n);
    }
    DD_COUNTER_ADD("dd.dist.epochs", 1);
  }
  return Status::OK();
}

Status Coordinator::RunInference(DistributedResult* result) {
  const size_t n = handles_.size();
  const uint64_t total = static_cast<uint64_t>(options_.burn_in) +
                         static_cast<uint64_t>(options_.num_samples);
  const uint64_t spe = static_cast<uint64_t>(options_.sweeps_per_exchange);
  const uint32_t rounds = static_cast<uint32_t>((total + spe - 1) / spe);

  result->marginals.assign(graph_->num_variables(), 0.0);
  result->num_accumulated = 0;

  for (uint32_t round = 0; round < rounds; ++round) {
    DD_ASSIGN_OR_RETURN(std::vector<ExchangeResultMsg> results,
                        RunExchange(kPhaseInfer, round));
    const bool expect_final = round + 1 == rounds;
    for (uint32_t s = 0; s < n; ++s) {
      const ExchangeResultMsg& rr = results[s];
      if (rr.is_final != expect_final) {
        return Status::Internal(StrFormat(
            "shard %u finished at round %u, the schedule says %u rounds", s,
            round, rounds));
      }
      if (!expect_final) continue;
      if (rr.owned_marginals.size() != num_owned_[s]) {
        return Status::Internal(
            StrFormat("shard %u reported %zu marginals for %zu owned variables", s,
                      rr.owned_marginals.size(), num_owned_[s]));
      }
      if (s == 0) {
        result->num_accumulated = rr.num_accumulated;
      } else if (rr.num_accumulated != result->num_accumulated) {
        return Status::Internal(StrFormat(
            "shard %u accumulated %llu samples, shard 0 accumulated %llu",
            s, static_cast<unsigned long long>(rr.num_accumulated),
            static_cast<unsigned long long>(result->num_accumulated)));
      }
      for (size_t v = 0; v < num_owned_[s]; ++v) {
        result->marginals[local_to_global_[s][v]] = rr.owned_marginals[v];
      }
    }
    DD_COUNTER_ADD("dd.dist.rounds", 1);
  }
  return Status::OK();
}

Status Coordinator::Finish() {
  Status first;
  for (WorkerHandle& handle : handles_) {
    if (!handle.connected) continue;
    Status st =
        SendFrameRetry(&handle.conn, kMsgFinish, "", IoDeadline(), &rng_);
    if (!st.ok() && first.ok()) first = st;
    // Closing the socket unblocks a worker whose finish frame was lost.
    handle.conn.Close();
    handle.connected = false;
  }
  for (WorkerHandle& handle : handles_) {
    if (handle.thread.joinable()) handle.thread.join();
    if (handle.thread_status && !handle.thread_status->ok() && first.ok()) {
      first = *handle.thread_status;
    }
    Status st = ReapChild(&handle);
    if (!st.ok() && first.ok()) first = st;
  }
  finished_ = true;
  return first;
}

void Coordinator::Teardown() {
  if (finished_) return;
  // Error path: drop the sockets (workers unblock with kUnavailable and
  // exit on their own), then join/reap so no thread or zombie outlives
  // the run.
  for (WorkerHandle& handle : handles_) {
    handle.conn.Close();
    handle.connected = false;
  }
  listener_.Close();
  for (WorkerHandle& handle : handles_) {
    if (handle.thread.joinable()) handle.thread.join();
    if (handle.pid >= 0) {
      int wstatus = 0;
      waitpid(handle.pid, &wstatus, 0);
      handle.pid = -1;
    }
  }
  finished_ = true;
}

Result<DistributedResult> Coordinator::Run() {
  DD_TRACE_SPAN_VAR(span, "dist.run");
  DD_RETURN_IF_ERROR(Validate());
  DD_RETURN_IF_ERROR(Setup());

  for (uint32_t s = 0; s < handles_.size(); ++s) {
    DD_RETURN_IF_ERROR(Spawn(s, /*is_respawn=*/false));
  }
  size_t connected = 0;
  while (connected < handles_.size()) {
    DD_RETURN_IF_ERROR(AcceptHello());
    connected = 0;
    for (const WorkerHandle& h : handles_) connected += h.connected ? 1 : 0;
  }
  for (uint32_t s = 0; s < handles_.size(); ++s) {
    Status st = HandshakeShard(s);
    if (!st.ok()) {
      DD_RETURN_IF_ERROR(Recover(s, st));
    }
  }

  DistributedResult result;
  DD_RETURN_IF_ERROR(RunLearning());
  DD_RETURN_IF_ERROR(RunInference(&result));
  DD_RETURN_IF_ERROR(Finish());

  graph_->set_weight_values(avg_weights_);
  result.weights = avg_weights_;
  result.epochs_run = options_.epochs;
  result.cut_edges = partition_.cut_edges;
  result.initial_cut_edges = partition_.initial_cut_edges;
  result.boundary_vars = partition_.boundary.size();
  result.restarts = total_restarts_;
  span.Attr("num_shards", static_cast<double>(options_.num_shards));
  span.Attr("restarts", static_cast<double>(total_restarts_));
  return result;
}

}  // namespace

Result<DistributedResult> RunDistributed(FactorGraph* graph,
                                         const DistributedOptions& options) {
  Coordinator coordinator(graph, options);
  return coordinator.Run();
}

}  // namespace dd
