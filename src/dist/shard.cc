#include "dist/shard.h"

#include <cstdlib>
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

  uint64_t total_sweeps() const {
    return static_cast<uint64_t>(assign.burn_in) + assign.num_samples;
  }
  bool durable() const { return !assign.checkpoint_path.empty(); }
};

std::vector<uint8_t> BoundarySlice(const std::vector<uint8_t>& assignment,
                                   const std::vector<uint32_t>& locals) {
  std::vector<uint8_t> out(locals.size());
  for (size_t i = 0; i < locals.size(); ++i) out[i] = assignment[locals[i]];
  return out;
}

/// The carried result for exchange state.next - 1, reconstructed from
/// state alone — the checkpoint never stores a second copy, so the
/// result a resumed worker re-sends is bitwise the one it would have
/// sent before the crash.
std::string CarriedResult(const ShardState& state) {
  const auto& boundary = state.assign.owned_boundary;
  if (state.phase == kPhaseLearn) {
    EpochResultMsg result;
    result.epoch = state.next - 1;
    result.weights = state.graph.weight_values();
    result.boundary_bits = BoundarySlice(state.learn->positive.assignment(), boundary);
    result.boundary_estimates.resize(boundary.size());
    for (size_t i = 0; i < boundary.size(); ++i) {
      result.boundary_estimates[i] = result.boundary_bits[i] ? 1.0 : 0.0;
    }
    return EncodeEpochResult(result);
  }
  RoundResultMsg result;
  result.round = state.next - 1;
  result.is_final = state.done_sweeps == state.total_sweeps();
  result.boundary_bits = BoundarySlice(state.chain->assignment(), boundary);
  result.boundary_estimates.resize(boundary.size());
  const uint64_t acc = state.chain->num_accumulated();
  const std::vector<uint64_t>& counts = state.chain->true_counts();
  for (size_t i = 0; i < boundary.size(); ++i) {
    result.boundary_estimates[i] =
        acc > 0 ? static_cast<double>(counts[boundary[i]]) / acc
                : (result.boundary_bits[i] ? 1.0 : 0.0);
  }
  if (result.is_final) {
    result.num_accumulated = acc;
    result.owned_marginals.resize(state.assign.num_owned);
    for (size_t v = 0; v < state.assign.num_owned; ++v) {
      result.owned_marginals[v] = static_cast<double>(counts[v]) / acc;
    }
  }
  return EncodeRoundResult(result);
}

Status WriteShardCheckpoint(const ShardState& state) {
  GraphSnapshot snap;
  snap.meta["kind"] = kShardSnapshotKind;
  snap.meta["shard"] = StrFormat("%u", state.assign.shard);
  snap.meta["num_shards"] = StrFormat("%u", state.assign.num_shards);
  snap.meta["graph_crc"] = StrFormat("%u", state.graph_crc);
  snap.meta["learn_seed"] = StrFormat(
      "%llu", static_cast<unsigned long long>(state.assign.learn_seed));
  snap.meta["inference_seed"] = StrFormat(
      "%llu", static_cast<unsigned long long>(state.assign.inference_seed));
  snap.meta["phase"] = StrFormat("%u", state.phase);
  snap.meta["next"] = StrFormat("%u", state.next);
  snap.meta["lr"] = FormatExactDouble(state.lr);
  snap.meta["done_sweeps"] =
      StrFormat("%llu", static_cast<unsigned long long>(state.done_sweeps));
  snap.weights = state.graph.weight_values();
  if (state.phase == kPhaseLearn) {
    snap.chains = {state.learn->positive.assignment(),
                   state.learn->negative.assignment()};
    snap.rng_states = {state.learn->positive.rng_state(),
                       state.learn->negative.rng_state()};
  } else {
    snap.chains = {state.chain->assignment()};
    snap.rng_states = {state.chain->rng_state()};
    snap.counts = state.chain->true_counts();
    snap.meta["num_accumulated"] = StrFormat(
        "%llu", static_cast<unsigned long long>(state.chain->num_accumulated()));
  }
  return WriteGraphSnapshot(snap, state.assign.checkpoint_path);
}

Result<uint64_t> MetaU64(const GraphSnapshot& snap, const std::string& key) {
  auto it = snap.meta.find(key);
  if (it == snap.meta.end()) {
    return Status::InvalidArgument("shard checkpoint missing meta key " + key);
  }
  return static_cast<uint64_t>(strtoull(it->second.c_str(), nullptr, 10));
}

/// Restore state from the checkpoint file. Any mismatch with the
/// assignment (foreign shard, different subgraph, different seeds) is an
/// error — resuming someone else's chains must fail loudly, not restart
/// silently.
Status RestoreShardCheckpoint(ShardState* state) {
  DD_ASSIGN_OR_RETURN(GraphSnapshot snap,
                      ReadGraphSnapshot(state->assign.checkpoint_path));
  auto kind = snap.meta.find("kind");
  if (kind == snap.meta.end() || kind->second != kShardSnapshotKind) {
    return Status::InvalidArgument("snapshot is not a dist-shard checkpoint: " +
                                   state->assign.checkpoint_path);
  }
  uint64_t value = 0;
  DD_ASSIGN_OR_RETURN(value, MetaU64(snap, "shard"));
  if (value != state->assign.shard) {
    return Status::InvalidArgument(
        StrFormat("checkpoint belongs to shard %llu, this worker is shard %u",
                  static_cast<unsigned long long>(value), state->assign.shard));
  }
  DD_ASSIGN_OR_RETURN(value, MetaU64(snap, "num_shards"));
  if (value != state->assign.num_shards) {
    return Status::InvalidArgument("checkpoint was written under a different "
                                   "shard count");
  }
  DD_ASSIGN_OR_RETURN(value, MetaU64(snap, "graph_crc"));
  if (value != state->graph_crc) {
    return Status::InvalidArgument(
        "checkpoint belongs to a different subgraph (fingerprint mismatch)");
  }
  DD_ASSIGN_OR_RETURN(value, MetaU64(snap, "learn_seed"));
  if (value != state->assign.learn_seed) {
    return Status::InvalidArgument("checkpoint was written with a different "
                                   "learning seed");
  }
  DD_ASSIGN_OR_RETURN(value, MetaU64(snap, "inference_seed"));
  if (value != state->assign.inference_seed) {
    return Status::InvalidArgument("checkpoint was written with a different "
                                   "inference seed");
  }
  if (snap.weights.size() != state->graph.num_weights()) {
    return Status::InvalidArgument(
        StrFormat("shard checkpoint has %zu weights, subgraph has %zu",
                  snap.weights.size(), state->graph.num_weights()));
  }
  DD_ASSIGN_OR_RETURN(value, MetaU64(snap, "phase"));
  if (value != kPhaseLearn && value != kPhaseInfer) {
    return Status::InvalidArgument("shard checkpoint has an unknown phase");
  }
  state->phase = static_cast<uint32_t>(value);
  DD_ASSIGN_OR_RETURN(value, MetaU64(snap, "next"));
  state->next = static_cast<uint32_t>(value);
  auto lr = snap.meta.find("lr");
  if (lr == snap.meta.end()) {
    return Status::InvalidArgument("shard checkpoint missing lr");
  }
  DD_ASSIGN_OR_RETURN(state->lr, ParseExactDouble(lr->second));
  DD_ASSIGN_OR_RETURN(state->done_sweeps, MetaU64(snap, "done_sweeps"));

  state->graph.set_weight_values(snap.weights);
  if (state->phase == kPhaseLearn) {
    if (snap.chains.size() != 2 || snap.rng_states.size() != 2) {
      return Status::InvalidArgument(
          "learn-phase shard checkpoint must carry two chains");
    }
    DD_RETURN_IF_ERROR(state->learn->positive.RestoreState(snap.chains[0], {}, 0,
                                                           snap.rng_states[0]));
    DD_RETURN_IF_ERROR(state->learn->negative.RestoreState(snap.chains[1], {}, 0,
                                                           snap.rng_states[1]));
  } else {
    if (snap.chains.size() != 1 || snap.rng_states.size() != 1) {
      return Status::InvalidArgument(
          "infer-phase shard checkpoint must carry one chain");
    }
    uint64_t acc = 0;
    DD_ASSIGN_OR_RETURN(acc, MetaU64(snap, "num_accumulated"));
    DD_RETURN_IF_ERROR(state->chain->RestoreState(snap.chains[0], snap.counts,
                                                  acc, snap.rng_states[0]));
  }
  return Status::OK();
}

/// One learning exchange: install the averaged weights and ghost pins,
/// run the epoch's sweeps on both chains, and take Learner::Learn's
/// CdStep (the one-shard differential test holds the two bit-for-bit
/// equal) with the shard's ghost-factor filter and ×N gradient scale.
Status RunLearnEpoch(ShardState* state, const EpochStartMsg& start) {
  FactorGraph& graph = state->graph;
  const uint64_t num_owned = state->assign.num_owned;
  if (start.weights.size() != graph.num_weights()) {
    return Status::InvalidArgument(
        StrFormat("epoch start carries %zu weights, subgraph has %zu",
                  start.weights.size(), graph.num_weights()));
  }
  const size_t num_ghosts = graph.num_variables() - num_owned;
  if (start.pins.size() != num_ghosts) {
    return Status::InvalidArgument(
        StrFormat("epoch start carries %zu ghost pins, shard has %zu",
                  start.pins.size(), num_ghosts));
  }
  graph.set_weight_values(start.weights);
  // Ghost replicas are evidence in the subgraph, so the positive chain
  // never resamples them — poking the exchanged values pins them for
  // the whole epoch. The negative chain deliberately leaves ghosts
  // free: it estimates the unconditioned model term locally.
  std::vector<uint8_t>* pos_assignment = state->learn->positive.mutable_assignment();
  for (size_t g = 0; g < num_ghosts; ++g) {
    (*pos_assignment)[num_owned + g] = start.pins[g] ? 1 : 0;
  }
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
  step.epoch = static_cast<int>(start.epoch);
  step.num_owned = static_cast<uint32_t>(num_owned);
  step.gradient_scale = static_cast<double>(state->assign.num_shards);
  std::vector<double> weights = start.weights;
  Result<double> norm = CdStep(graph, *state->learn, step, &weights);
  if (!norm.ok()) {
    return Status::InvalidArgument(StrFormat("shard %u %s", state->assign.shard,
                                             norm.status().message().c_str()));
  }
  graph.set_weight_values(weights);
  state->lr *= state->assign.decay;
  DD_COUNTER_ADD("dd.dist.shard_epochs", 1);
  return Status::OK();
}

/// One inference exchange: pin ghosts, install weights, run this round's
/// slice of the burn-in + sampling schedule. The sweep/accumulate
/// sequence is exactly IncrementalInference's sampling materialization,
/// cut at exchange boundaries that do not perturb it.
Status RunInferRound(ShardState* state, const RoundStartMsg& start) {
  FactorGraph& graph = state->graph;
  if (start.weights.size() != graph.num_weights()) {
    return Status::InvalidArgument(
        StrFormat("round start carries %zu weights, subgraph has %zu",
                  start.weights.size(), graph.num_weights()));
  }
  const size_t num_ghosts = graph.num_variables() - state->assign.num_owned;
  if (start.pins.size() != num_ghosts) {
    return Status::InvalidArgument(
        StrFormat("round start carries %zu ghost pins, shard has %zu",
                  start.pins.size(), num_ghosts));
  }
  graph.set_weight_values(start.weights);
  std::vector<uint8_t>* assignment = state->chain->mutable_assignment();
  for (size_t g = 0; g < num_ghosts; ++g) {
    (*assignment)[state->assign.num_owned + g] = start.pins[g] ? 1 : 0;
  }
  const uint64_t total = state->total_sweeps();
  uint64_t budget = state->assign.sweeps_per_exchange;
  while (budget > 0 && state->done_sweeps < total) {
    state->chain->Sweep();
    if (state->done_sweeps >= static_cast<uint64_t>(state->assign.burn_in)) {
      state->chain->Accumulate();
    }
    ++state->done_sweeps;
    --budget;
  }
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
    switch (frame.type) {
      case kMsgFinish:
        return Status::OK();
      case kMsgEpochStart: {
        if (state.phase != kPhaseLearn) {
          return Status::Internal("epoch start received during inference");
        }
        EpochStartMsg start;
        DD_ASSIGN_OR_RETURN(start, DecodeEpochStart(frame.payload));
        if (start.epoch != state.next) {
          return Status::Internal(
              StrFormat("shard %u is at epoch %u but coordinator started %u",
                        state.assign.shard, state.next, start.epoch));
        }
        DD_RETURN_IF_ERROR(RunLearnEpoch(&state, start));
        Status injected;
        DD_FAILPOINT(failpoints::kDistBarrier, &injected);
        DD_RETURN_IF_ERROR(injected);
        ++state.next;
        if (state.durable()) DD_RETURN_IF_ERROR(WriteShardCheckpoint(state));
        DD_RETURN_IF_ERROR(SendFrameRetry(&conn, kMsgEpochResult,
                                          CarriedResult(state), deadline(),
                                          &retry_rng));
        break;
      }
      case kMsgRoundStart: {
        RoundStartMsg start;
        DD_ASSIGN_OR_RETURN(start, DecodeRoundStart(frame.payload));
        if (state.phase == kPhaseLearn) {
          if (state.next != state.assign.epochs || start.round != 0) {
            return Status::Internal(StrFormat(
                "shard %u got round %u start at learning epoch %u",
                state.assign.shard, start.round, state.next));
          }
          // Learning is complete; open the inference phase with a fresh
          // chain (deterministic from the inference seed).
          state.phase = kPhaseInfer;
          state.next = 0;
          state.done_sweeps = 0;
          DD_RETURN_IF_ERROR(state.chain->Init());
        }
        if (start.round != state.next) {
          return Status::Internal(
              StrFormat("shard %u is at round %u but coordinator started %u",
                        state.assign.shard, state.next, start.round));
        }
        DD_RETURN_IF_ERROR(RunInferRound(&state, start));
        Status injected;
        DD_FAILPOINT(failpoints::kDistBarrier, &injected);
        DD_RETURN_IF_ERROR(injected);
        ++state.next;
        if (state.durable()) DD_RETURN_IF_ERROR(WriteShardCheckpoint(state));
        DD_RETURN_IF_ERROR(SendFrameRetry(&conn, kMsgRoundResult,
                                          CarriedResult(state), deadline(),
                                          &retry_rng));
        break;
      }
      default:
        return Status::Internal(
            StrFormat("shard %u received unexpected frame type %u",
                      state.assign.shard, frame.type));
    }
  }
}

}  // namespace

Status RunShardWorker(const ShardWorkerOptions& options) {
  return RunShardWorkerImpl(options);
}

}  // namespace dd
