#include "dist/shard.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/checkpoint.h"
#include "dist/protocol.h"
#include "dist/wire.h"
#include "factor/io.h"
#include "inference/learner.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace dd {

namespace {

constexpr char kShardSnapshotKind[] = "dist-shard";

/// The full mutable state of one shard worker. Every field below is
/// either shipped in the assignment or reconstructed bit-identically
/// from the checkpoint, which is what makes respawn deterministic.
struct ShardState {
  AssignMsg assign;
  FactorGraph graph;
  uint32_t graph_crc = 0;
  std::vector<uint32_t> free_set;  ///< owned local ids, the inference sweep set
  std::unique_ptr<CdChains> learn;      ///< learning chain pair
  std::unique_ptr<GibbsSampler> chain;  ///< inference over owned vars

  uint32_t phase = kPhaseLearn;
  uint32_t next = 0;  ///< next epoch (learn) / next round (infer)
  double lr = 0.1;
  uint64_t done_sweeps = 0;

  bool durable() const { return !assign.checkpoint_path.empty(); }
  /// The chain whose ghosts the exchange pins and whose owned boundary
  /// it reports: the positive CD chain, or the inference chain.
  GibbsSampler& exchanged() const {
    return phase == kPhaseLearn ? learn->positive : *chain;
  }
  /// The phase's chains as the checkpoint stores them.
  std::vector<GibbsSampler*> chains() const {
    if (phase == kPhaseLearn) return {&learn->positive, &learn->negative};
    return {chain.get()};
  }
};

/// The carried result for exchange state.next - 1, reconstructed from
/// state alone — the checkpoint never stores a second copy, so the
/// result a resumed worker re-sends is bitwise the one it would have
/// sent before the crash.
std::string CarriedResult(const ShardState& state) {
  const auto& boundary = state.assign.owned_boundary;
  const GibbsSampler& chain = state.exchanged();
  ExchangeResultMsg result;
  result.phase = state.phase;
  result.index = state.next - 1;
  // The positive CD chain never accumulates, so its estimates are its bits.
  const uint64_t acc = chain.num_accumulated();
  const std::vector<uint64_t>& counts = chain.true_counts();
  for (uint32_t v : boundary) {
    result.boundary_bits.push_back(chain.assignment()[v]);
    result.boundary_estimates.push_back(
        acc > 0 ? static_cast<double>(counts[v]) / acc : chain.assignment()[v]);
  }
  if (state.phase == kPhaseLearn) {
    result.weights = state.graph.weight_values();
  } else if (state.done_sweeps == state.chain->total_sweeps()) {
    result.is_final = true;
    result.num_accumulated = acc;
    for (size_t v = 0; v < state.assign.num_owned; ++v) {
      result.owned_marginals.push_back(static_cast<double>(counts[v]) / acc);
    }
  }
  return EncodeExchangeResult(result);
}

CheckpointIdentity ShardIdentity(const ShardState& state) {
  return {{"shard", state.assign.shard},
          {"num_shards", state.assign.num_shards},
          {"graph_crc", state.graph_crc},
          {"learn_seed", state.assign.learn_seed},
          {"inference_seed", state.assign.inference_seed}};
}

Status WriteShardCheckpoint(const ShardState& state) {
  GraphSnapshot snap;
  StampCheckpoint(kShardSnapshotKind, ShardIdentity(state), &snap);
  snap.meta["phase"] = std::to_string(state.phase);
  snap.meta["next"] = std::to_string(state.next);
  snap.meta["lr"] = FormatExactDouble(state.lr);
  snap.meta["done_sweeps"] = std::to_string(state.done_sweeps);
  snap.weights = state.graph.weight_values();
  const std::vector<GibbsSampler*> chains = state.chains();
  SaveChains({chains.begin(), chains.end()}, state.phase == kPhaseInfer, &snap);
  return WriteGraphSnapshot(snap, state.assign.checkpoint_path);
}

/// Restore state from the checkpoint file. Any mismatch with the
/// assignment (foreign shard, different subgraph, different seeds) is an
/// error — resuming someone else's chains must fail loudly, not restart
/// silently.
Status RestoreShardCheckpoint(ShardState* state) {
  DD_ASSIGN_OR_RETURN(GraphSnapshot snap,
                      ReadGraphSnapshot(state->assign.checkpoint_path));
  DD_RETURN_IF_ERROR(CheckCheckpoint(snap, kShardSnapshotKind, ShardIdentity(*state)));
  DD_ASSIGN_OR_RETURN(uint64_t phase, MetaU64(snap.meta, "phase"));
  if (phase != kPhaseLearn && phase != kPhaseInfer) {
    return Status::InvalidArgument("shard checkpoint has an unknown phase");
  }
  DD_ASSIGN_OR_RETURN(uint64_t next, MetaU64(snap.meta, "next"));
  DD_ASSIGN_OR_RETURN(state->lr, MetaExactDouble(snap.meta, "lr"));
  DD_ASSIGN_OR_RETURN(state->done_sweeps, MetaU64(snap.meta, "done_sweeps"));
  DD_RETURN_IF_ERROR(RestoreWeights(snap, &state->graph));
  state->phase = static_cast<uint32_t>(phase);
  state->next = static_cast<uint32_t>(next);
  return RestoreChains(snap, state->phase == kPhaseInfer, state->chains());
}

/// One learning exchange: run the epoch's sweeps on both chains and take
/// Learner::Learn's CdStep (the one-shard differential test holds the
/// two bit-for-bit equal) with the shard's ghost-factor filter and ×N
/// gradient scale.
Status RunLearnEpoch(ShardState* state, const ExchangeStartMsg& start) {
  state->learn->Sweep(static_cast<int>(state->assign.sweeps_per_epoch));

  // Replicated cut factors (first literal is a ghost) belong to another
  // shard's gradient domain; counting them here would count them once
  // per replica across the cluster. The coordinator averages the shards'
  // updated replicas (model averaging), which would shrink the effective
  // gradient to 1/N of the cluster-wide sum — each factor contributes to
  // exactly one shard. Scaling the local gradient by N makes the
  // averaged update apply the full summed gradient (and the L2 term,
  // identical on every replica, exactly once). N = 1 multiplies by 1.0,
  // which is bit-exact, so the single-shard run still matches
  // Learner::Learn to the last bit.
  CdStepOptions step;
  step.learning_rate = state->lr;
  step.l2 = state->assign.l2;
  step.epoch = static_cast<int>(start.index);
  step.num_owned = static_cast<uint32_t>(state->assign.num_owned);
  step.gradient_scale = static_cast<double>(state->assign.num_shards);
  std::vector<double> weights = start.weights;
  Result<double> norm = CdStep(state->graph, *state->learn, step, &weights);
  if (!norm.ok()) {
    return Status::InvalidArgument(StrFormat("shard %u %s", state->assign.shard,
                                             norm.status().message().c_str()));
  }
  state->graph.set_weight_values(weights);
  state->lr *= state->assign.decay;
  DD_COUNTER_ADD("dd.dist.shard_epochs", 1);
  return Status::OK();
}

/// One exchange of either phase: open the inference phase at its first
/// round, check the start against the shard's position, install the
/// averaged weights and pin the ghosts, then run the phase's step. An
/// inference round is the next slice of the chain's schedule — exactly
/// IncrementalInference's sampling materialization, cut at exchange
/// boundaries that do not perturb it.
Status RunExchange(ShardState* state, const ExchangeStartMsg& start) {
  if (start.phase == kPhaseInfer && state->phase == kPhaseLearn) {
    if (state->next != state->assign.epochs || start.index != 0) {
      return Status::Internal(
          StrFormat("shard %u got round %u start at learning epoch %u",
                    state->assign.shard, start.index, state->next));
    }
    // Learning is complete; open the inference phase with a fresh chain
    // (deterministic from the inference seed).
    state->phase = kPhaseInfer;
    state->next = 0;
    state->done_sweeps = 0;
    DD_RETURN_IF_ERROR(state->chain->Init());
  }
  if (start.phase != state->phase || start.index != state->next) {
    return Status::Internal(StrFormat(
        "shard %u is at phase %u exchange %u but coordinator started phase %u "
        "exchange %u",
        state->assign.shard, state->phase, state->next, start.phase, start.index));
  }
  FactorGraph& graph = state->graph;
  const uint64_t num_owned = state->assign.num_owned;
  const size_t num_ghosts = graph.num_variables() - num_owned;
  if (start.weights.size() != graph.num_weights() || start.pins.size() != num_ghosts) {
    return Status::InvalidArgument(StrFormat(
        "exchange start carries %zu weights and %zu ghost pins, shard has %zu and %zu",
        start.weights.size(), start.pins.size(), graph.num_weights(), num_ghosts));
  }
  graph.set_weight_values(start.weights);
  // Ghost replicas are pinned in the exchanged chain: evidence in the
  // subgraph, so the positive CD chain never resamples them, and outside
  // the inference chain's free set. The negative CD chain deliberately
  // leaves ghosts free: it estimates the unconditioned model term locally.
  std::vector<uint8_t>* assignment = state->exchanged().mutable_assignment();
  for (size_t g = 0; g < num_ghosts; ++g) {
    (*assignment)[num_owned + g] = start.pins[g] ? 1 : 0;
  }
  if (state->phase == kPhaseLearn) return RunLearnEpoch(state, start);
  const uint64_t to = std::min(state->chain->total_sweeps(),
                               state->done_sweeps + state->assign.sweeps_per_exchange);
  DD_RETURN_IF_ERROR(state->chain->RunSweeps(state->done_sweeps, to));
  state->done_sweeps = std::max(state->done_sweeps, to);
  DD_COUNTER_ADD("dd.dist.shard_rounds", 1);
  return Status::OK();
}

Status RunShardWorkerImpl(const ShardWorkerOptions& options) {
  Rng retry_rng(0xd157ULL * (options.shard + 1));
  auto deadline = [&options]() {
    return Deadline::AfterMillis(options.io_deadline_ms);
  };

  DD_ASSIGN_OR_RETURN(
      WireConn conn, DialRetry(options.endpoint, deadline(), &retry_rng));
  HelloMsg hello;
  hello.shard = options.shard;
  DD_RETURN_IF_ERROR(SendFrameRetry(&conn, kMsgHello, EncodeHello(hello),
                                    deadline(), &retry_rng));

  DD_ASSIGN_OR_RETURN(Frame frame,
                      RecvFrameRetry(&conn, deadline(), &retry_rng));
  if (frame.type != kMsgAssign) {
    return Status::Internal(
        StrFormat("shard %u expected kMsgAssign, got frame type %u",
                  options.shard, frame.type));
  }
  ShardState state;
  DD_ASSIGN_OR_RETURN(state.assign, DecodeAssign(frame.payload));
  if (state.assign.shard != options.shard) {
    return Status::Internal(
        StrFormat("shard %u received an assignment for shard %u",
                  options.shard, state.assign.shard));
  }
  DD_ASSIGN_OR_RETURN(GraphSnapshot graph_snap,
                      DecodeGraphSnapshot(state.assign.graph_snapshot));
  if (!graph_snap.has_graph) {
    return Status::InvalidArgument("shard assignment carries no graph");
  }
  state.graph = std::move(graph_snap.graph);
  DD_RETURN_IF_ERROR(state.graph.Finalize());
  // num_owned and owned_boundary index the decoded graph; reject a
  // frame that disagrees with it instead of reading past the chains.
  const auto& boundary = state.assign.owned_boundary;
  if (state.assign.num_owned > state.graph.num_variables()) {
    return Status::InvalidArgument(
        StrFormat("shard %u owns %llu variables, its subgraph has %zu",
                  state.assign.shard,
                  static_cast<unsigned long long>(state.assign.num_owned),
                  state.graph.num_variables()));
  }
  for (size_t i = 0; i < boundary.size(); ++i) {
    if (boundary[i] >= state.assign.num_owned || (i > 0 && boundary[i] <= boundary[i - 1])) {
      return Status::InvalidArgument(StrFormat(
          "shard %u owned boundary must be strictly ascending owned ids; "
          "entry %zu is %u",
          state.assign.shard, i, boundary[i]));
    }
  }
  state.graph_crc = GraphFingerprint(state.graph);
  state.lr = state.assign.learning_rate;

  const uint64_t seed_mix = ShardSeedMix(state.assign.shard);
  const uint64_t learn_seed = state.assign.learn_seed + seed_mix;
  state.learn =
      std::make_unique<CdChains>(&state.graph, learn_seed, learn_seed ^ 0x5bd1e995);
  state.free_set.resize(state.assign.num_owned);
  for (size_t v = 0; v < state.free_set.size(); ++v) {
    state.free_set[v] = static_cast<uint32_t>(v);
  }
  GibbsOptions chain_opts;
  chain_opts.burn_in = static_cast<int>(state.assign.burn_in);
  chain_opts.num_samples = static_cast<int>(state.assign.num_samples);
  chain_opts.seed = state.assign.inference_seed + seed_mix;
  chain_opts.clamp_evidence = false;
  chain_opts.free_set = &state.free_set;
  state.chain = std::make_unique<GibbsSampler>(&state.graph, chain_opts);

  // The learning chains start fresh unless a learn-phase checkpoint
  // restores them (past learning they are unused but still initialized).
  if (state.durable() && FileExists(state.assign.checkpoint_path)) {
    DD_RETURN_IF_ERROR(RestoreShardCheckpoint(&state));
    if (state.phase == kPhaseInfer) DD_RETURN_IF_ERROR(state.learn->Init());
  } else {
    DD_RETURN_IF_ERROR(state.learn->Init());
  }

  ReadyMsg ready;
  ready.phase = state.phase;
  ready.next = state.next;
  if (state.next > 0) {
    ready.has_result = true;
    ready.result = CarriedResult(state);
  }
  DD_RETURN_IF_ERROR(SendFrameRetry(&conn, kMsgReady, EncodeReady(ready),
                                    deadline(), &retry_rng));

  for (;;) {
    DD_ASSIGN_OR_RETURN(frame, RecvFrameRetry(&conn, deadline(), &retry_rng));
    if (frame.type == kMsgFinish) return Status::OK();
    if (frame.type != kMsgExchangeStart) {
      return Status::Internal(
          StrFormat("shard %u received unexpected frame type %u",
                    state.assign.shard, frame.type));
    }
    DD_ASSIGN_OR_RETURN(ExchangeStartMsg start, DecodeExchangeStart(frame.payload));
    DD_RETURN_IF_ERROR(RunExchange(&state, start));
    Status injected;
    DD_FAILPOINT(failpoints::kDistBarrier, &injected);
    DD_RETURN_IF_ERROR(injected);
    ++state.next;
    if (state.durable()) DD_RETURN_IF_ERROR(WriteShardCheckpoint(state));
    DD_RETURN_IF_ERROR(SendFrameRetry(&conn, kMsgExchangeResult, CarriedResult(state),
                                      deadline(), &retry_rng));
  }
}

}  // namespace

Status RunShardWorker(const ShardWorkerOptions& options) {
  return RunShardWorkerImpl(options);
}

}  // namespace dd
