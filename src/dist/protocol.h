#ifndef DEEPDIVE_DIST_PROTOCOL_H_
#define DEEPDIVE_DIST_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dist/partition.h"
#include "factor/graph.h"
#include "util/result.h"

namespace dd {

/// Application message types carried in wire frames, in handshake order.
/// The protocol is strictly epoch-synchronous: the coordinator sends one
/// kMsgExchangeStart per shard per exchange (a learning epoch or an
/// inference round), every shard answers with one kMsgExchangeResult,
/// and the coordinator averages before the next exchange begins.
enum DistMsgType : uint32_t {
  kMsgHello = 1,           ///< shard -> coord: version + shard id
  kMsgAssign = 2,          ///< coord -> shard: subgraph + run configuration
  kMsgReady = 3,           ///< shard -> coord: resume position (+ carried result)
  kMsgExchangeStart = 4,   ///< coord -> shard: averaged weights + ghost pins
  kMsgExchangeResult = 5,  ///< shard -> coord: boundary values (+ weights / marginals)
  kMsgFinish = 6,          ///< coord -> shard: run complete, shut down
};

inline constexpr uint32_t kDistProtocolVersion = 2;

/// The two exchange phases (reported in kMsgReady, carried by every exchange).
enum DistPhase : uint32_t {
  kPhaseLearn = 0,
  kPhaseInfer = 1,
};

struct HelloMsg {
  uint32_t version = kDistProtocolVersion;
  uint32_t shard = 0;
};

/// Everything a shard worker needs to run: its subgraph (shipped as an
/// encoded graph snapshot so the existing container validation covers
/// the transfer) plus the learning/inference schedule. The schedule is
/// part of the assignment so a respawned worker rebuilds bit-identical
/// state from its checkpoint + this message alone.
struct AssignMsg {
  uint32_t shard = 0;
  uint32_t num_shards = 1;
  uint64_t num_owned = 0;
  std::vector<uint32_t> local_to_global;
  std::vector<uint32_t> owned_boundary;  ///< local ids, ascending
  // Learning schedule (mirrors LearnOptions).
  uint32_t epochs = 0;
  double learning_rate = 0.1;
  double decay = 0.99;
  double l2 = 0.01;
  uint32_t sweeps_per_epoch = 1;
  uint64_t learn_seed = 1234;
  // Inference schedule.
  uint32_t burn_in = 300;
  uint32_t num_samples = 1000;
  uint64_t inference_seed = 7;
  uint32_t sweeps_per_exchange = 8;
  std::string checkpoint_path;  ///< empty = not durable
  std::string graph_snapshot;   ///< EncodeGraphSnapshot bytes (subgraph)
};

struct ReadyMsg {
  uint32_t phase = kPhaseLearn;
  uint32_t next = 0;  ///< next epoch (learn) / next round (infer) to run
  /// When next > 0, the result of exchange next-1 rides along so a
  /// coordinator whose recv raced the crash still gets it exactly once.
  bool has_result = false;
  std::string result;  ///< encoded ExchangeResultMsg
};

/// Opens exchange `index` of `phase` (epoch or round) on one shard.
struct ExchangeStartMsg {
  uint32_t phase = kPhaseLearn;
  uint32_t index = 0;
  std::vector<double> weights;  ///< averaged, one per global weight id
  std::vector<uint8_t> pins;    ///< ghost values, shard's ghost order
};

/// One shard's answer to exchange `index` of `phase`.
struct ExchangeResultMsg {
  uint32_t phase = kPhaseLearn;
  uint32_t index = 0;
  std::vector<uint8_t> boundary_bits;      ///< chain values, owned_boundary order
  std::vector<double> boundary_estimates;  ///< running estimates, same order
  /// Learning only: the shard's replica after its local update.
  std::vector<double> weights;
  /// Set on the final inference round, which also carries the empirical
  /// marginals of the shard's owned variables (local order) and the
  /// sample count behind them.
  bool is_final = false;
  std::vector<double> owned_marginals;
  uint64_t num_accumulated = 0;
};

std::string EncodeHello(const HelloMsg& msg);
Result<HelloMsg> DecodeHello(const std::string& payload);

std::string EncodeAssign(const AssignMsg& msg);
Result<AssignMsg> DecodeAssign(const std::string& payload);

std::string EncodeReady(const ReadyMsg& msg);
Result<ReadyMsg> DecodeReady(const std::string& payload);

std::string EncodeExchangeStart(const ExchangeStartMsg& msg);
Result<ExchangeStartMsg> DecodeExchangeStart(const std::string& payload);

std::string EncodeExchangeResult(const ExchangeResultMsg& msg);
Result<ExchangeResultMsg> DecodeExchangeResult(const std::string& payload);

/// Seed offset decorrelating shard chains; shard 0 keeps the base seed
/// so a one-shard run is bit-identical to the single-node engines.
inline uint64_t ShardSeedMix(uint32_t shard) {
  return 0x9e3779b97f4a7c15ULL * shard;
}

}  // namespace dd

#endif  // DEEPDIVE_DIST_PROTOCOL_H_
