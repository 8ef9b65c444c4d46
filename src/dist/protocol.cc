#include "dist/protocol.h"

#include <cstring>

#include "dist/wire.h"
#include "util/string_util.h"

namespace dd {

namespace {

/// Vectors travel as one length-prefixed byte field holding the raw
/// little-endian element images — bounds-checked by WireCursor, cheap to
/// slice back into typed vectors.
template <typename T>
void PutVec(std::string* out, const std::vector<T>& v) {
  PutBytes(out, std::string_view(reinterpret_cast<const char*>(v.data()),
                                 v.size() * sizeof(T)));
}

template <typename T>
Status ReadVec(WireCursor* cursor, std::vector<T>* out) {
  std::string bytes;
  DD_RETURN_IF_ERROR(cursor->ReadBytes(&bytes));
  if (bytes.size() % sizeof(T) != 0) {
    return Status::Corruption(
        StrFormat("wire vector of %zu bytes is not a multiple of %zu",
                  bytes.size(), sizeof(T)));
  }
  out->resize(bytes.size() / sizeof(T));
  if (!bytes.empty()) memcpy(out->data(), bytes.data(), bytes.size());
  return Status::OK();
}

void PutBool(std::string* out, bool v) { PutU32(out, v ? 1 : 0); }

Status ReadBool(WireCursor* cursor, bool* v) {
  uint32_t raw = 0;
  DD_RETURN_IF_ERROR(cursor->ReadU32(&raw));
  if (raw > 1) {
    return Status::Corruption(StrFormat("wire bool field holds %u", raw));
  }
  *v = raw == 1;
  return Status::OK();
}

}  // namespace

std::string EncodeHello(const HelloMsg& msg) {
  std::string out;
  PutU32(&out, msg.version);
  PutU32(&out, msg.shard);
  return out;
}

Result<HelloMsg> DecodeHello(const std::string& payload) {
  WireCursor cursor(payload);
  HelloMsg msg;
  DD_RETURN_IF_ERROR(cursor.ReadU32(&msg.version));
  DD_RETURN_IF_ERROR(cursor.ReadU32(&msg.shard));
  DD_RETURN_IF_ERROR(cursor.ExpectEnd());
  if (msg.version != kDistProtocolVersion) {
    return Status::InvalidArgument(
        StrFormat("peer speaks dist protocol v%u, this build speaks v%u",
                  msg.version, kDistProtocolVersion));
  }
  return msg;
}

std::string EncodeAssign(const AssignMsg& msg) {
  std::string out;
  PutU32(&out, msg.shard);
  PutU32(&out, msg.num_shards);
  PutU64(&out, msg.num_owned);
  PutVec(&out, msg.local_to_global);
  PutVec(&out, msg.owned_boundary);
  PutU32(&out, msg.epochs);
  PutDouble(&out, msg.learning_rate);
  PutDouble(&out, msg.decay);
  PutDouble(&out, msg.l2);
  PutU32(&out, msg.sweeps_per_epoch);
  PutU64(&out, msg.learn_seed);
  PutU32(&out, msg.burn_in);
  PutU32(&out, msg.num_samples);
  PutU64(&out, msg.inference_seed);
  PutU32(&out, msg.sweeps_per_exchange);
  PutBytes(&out, msg.checkpoint_path);
  PutBytes(&out, msg.graph_snapshot);
  return out;
}

Result<AssignMsg> DecodeAssign(const std::string& payload) {
  WireCursor cursor(payload);
  AssignMsg msg;
  DD_RETURN_IF_ERROR(cursor.ReadU32(&msg.shard));
  DD_RETURN_IF_ERROR(cursor.ReadU32(&msg.num_shards));
  DD_RETURN_IF_ERROR(cursor.ReadU64(&msg.num_owned));
  DD_RETURN_IF_ERROR(ReadVec(&cursor, &msg.local_to_global));
  DD_RETURN_IF_ERROR(ReadVec(&cursor, &msg.owned_boundary));
  DD_RETURN_IF_ERROR(cursor.ReadU32(&msg.epochs));
  DD_RETURN_IF_ERROR(cursor.ReadDouble(&msg.learning_rate));
  DD_RETURN_IF_ERROR(cursor.ReadDouble(&msg.decay));
  DD_RETURN_IF_ERROR(cursor.ReadDouble(&msg.l2));
  DD_RETURN_IF_ERROR(cursor.ReadU32(&msg.sweeps_per_epoch));
  DD_RETURN_IF_ERROR(cursor.ReadU64(&msg.learn_seed));
  DD_RETURN_IF_ERROR(cursor.ReadU32(&msg.burn_in));
  DD_RETURN_IF_ERROR(cursor.ReadU32(&msg.num_samples));
  DD_RETURN_IF_ERROR(cursor.ReadU64(&msg.inference_seed));
  DD_RETURN_IF_ERROR(cursor.ReadU32(&msg.sweeps_per_exchange));
  DD_RETURN_IF_ERROR(cursor.ReadBytes(&msg.checkpoint_path));
  DD_RETURN_IF_ERROR(cursor.ReadBytes(&msg.graph_snapshot));
  DD_RETURN_IF_ERROR(cursor.ExpectEnd());
  return msg;
}

std::string EncodeReady(const ReadyMsg& msg) {
  std::string out;
  PutU32(&out, msg.phase);
  PutU32(&out, msg.next);
  PutBool(&out, msg.has_result);
  PutBytes(&out, msg.result);
  return out;
}

Result<ReadyMsg> DecodeReady(const std::string& payload) {
  WireCursor cursor(payload);
  ReadyMsg msg;
  DD_RETURN_IF_ERROR(cursor.ReadU32(&msg.phase));
  DD_RETURN_IF_ERROR(cursor.ReadU32(&msg.next));
  DD_RETURN_IF_ERROR(ReadBool(&cursor, &msg.has_result));
  DD_RETURN_IF_ERROR(cursor.ReadBytes(&msg.result));
  DD_RETURN_IF_ERROR(cursor.ExpectEnd());
  return msg;
}

std::string EncodeExchangeStart(const ExchangeStartMsg& msg) {
  std::string out;
  PutU32(&out, msg.phase);
  PutU32(&out, msg.index);
  PutVec(&out, msg.weights);
  PutVec(&out, msg.pins);
  return out;
}

Result<ExchangeStartMsg> DecodeExchangeStart(const std::string& payload) {
  WireCursor cursor(payload);
  ExchangeStartMsg msg;
  DD_RETURN_IF_ERROR(cursor.ReadU32(&msg.phase));
  DD_RETURN_IF_ERROR(cursor.ReadU32(&msg.index));
  DD_RETURN_IF_ERROR(ReadVec(&cursor, &msg.weights));
  DD_RETURN_IF_ERROR(ReadVec(&cursor, &msg.pins));
  DD_RETURN_IF_ERROR(cursor.ExpectEnd());
  return msg;
}

std::string EncodeExchangeResult(const ExchangeResultMsg& msg) {
  std::string out;
  PutU32(&out, msg.phase);
  PutU32(&out, msg.index);
  PutVec(&out, msg.boundary_bits);
  PutVec(&out, msg.boundary_estimates);
  PutVec(&out, msg.weights);
  PutBool(&out, msg.is_final);
  PutVec(&out, msg.owned_marginals);
  PutU64(&out, msg.num_accumulated);
  return out;
}

Result<ExchangeResultMsg> DecodeExchangeResult(const std::string& payload) {
  WireCursor cursor(payload);
  ExchangeResultMsg msg;
  DD_RETURN_IF_ERROR(cursor.ReadU32(&msg.phase));
  DD_RETURN_IF_ERROR(cursor.ReadU32(&msg.index));
  DD_RETURN_IF_ERROR(ReadVec(&cursor, &msg.boundary_bits));
  DD_RETURN_IF_ERROR(ReadVec(&cursor, &msg.boundary_estimates));
  DD_RETURN_IF_ERROR(ReadVec(&cursor, &msg.weights));
  DD_RETURN_IF_ERROR(ReadBool(&cursor, &msg.is_final));
  DD_RETURN_IF_ERROR(ReadVec(&cursor, &msg.owned_marginals));
  DD_RETURN_IF_ERROR(cursor.ReadU64(&msg.num_accumulated));
  DD_RETURN_IF_ERROR(cursor.ExpectEnd());
  return msg;
}

}  // namespace dd
