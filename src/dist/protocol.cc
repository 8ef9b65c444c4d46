#include "dist/protocol.h"

#include <cstring>

#include "dist/wire.h"
#include "util/string_util.h"

namespace dd {

namespace {

/// Vectors travel as one length-prefixed byte field holding the raw
/// little-endian element images — bounds-checked by ByteReader, cheap to
/// slice back into typed vectors.
template <typename T>
void PutVec(std::string* out, const std::vector<T>& v) {
  PutBytes(out, std::string_view(reinterpret_cast<const char*>(v.data()),
                                 v.size() * sizeof(T)));
}

template <typename T>
Status ReadVec(ByteReader* r, std::vector<T>* out, const char* what) {
  std::string_view bytes;
  DD_RETURN_IF_ERROR(r->LengthPrefixed(kWireMaxPayload, &bytes, what));
  if (bytes.size() % sizeof(T) != 0) {
    return Status::Corruption(
        StrFormat("wire vector of %zu bytes is not a multiple of %zu",
                  bytes.size(), sizeof(T)));
  }
  out->resize(bytes.size() / sizeof(T));
  if (!bytes.empty()) memcpy(out->data(), bytes.data(), bytes.size());
  return Status::OK();
}

Status ReadString(ByteReader* r, std::string* out, const char* what) {
  std::string_view bytes;
  DD_RETURN_IF_ERROR(r->LengthPrefixed(kWireMaxPayload, &bytes, what));
  out->assign(bytes);
  return Status::OK();
}

Status ReadBool(ByteReader* r, bool* v, const char* what) {
  uint32_t raw = 0;
  DD_RETURN_IF_ERROR(r->U32(&raw, what));
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
  ByteReader r(payload);
  HelloMsg msg;
  DD_RETURN_IF_ERROR(r.U32(&msg.version, "Hello"));
  DD_RETURN_IF_ERROR(r.U32(&msg.shard, "Hello"));
  DD_RETURN_IF_ERROR(r.Done("Hello"));
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
  ByteReader r(payload);
  AssignMsg msg;
  DD_RETURN_IF_ERROR(r.U32(&msg.shard, "Assign"));
  DD_RETURN_IF_ERROR(r.U32(&msg.num_shards, "Assign"));
  DD_RETURN_IF_ERROR(r.U64(&msg.num_owned, "Assign"));
  DD_RETURN_IF_ERROR(ReadVec(&r, &msg.local_to_global, "Assign"));
  DD_RETURN_IF_ERROR(ReadVec(&r, &msg.owned_boundary, "Assign"));
  DD_RETURN_IF_ERROR(r.U32(&msg.epochs, "Assign"));
  DD_RETURN_IF_ERROR(r.Double(&msg.learning_rate, "Assign"));
  DD_RETURN_IF_ERROR(r.Double(&msg.decay, "Assign"));
  DD_RETURN_IF_ERROR(r.Double(&msg.l2, "Assign"));
  DD_RETURN_IF_ERROR(r.U32(&msg.sweeps_per_epoch, "Assign"));
  DD_RETURN_IF_ERROR(r.U64(&msg.learn_seed, "Assign"));
  DD_RETURN_IF_ERROR(r.U32(&msg.burn_in, "Assign"));
  DD_RETURN_IF_ERROR(r.U32(&msg.num_samples, "Assign"));
  DD_RETURN_IF_ERROR(r.U64(&msg.inference_seed, "Assign"));
  DD_RETURN_IF_ERROR(r.U32(&msg.sweeps_per_exchange, "Assign"));
  DD_RETURN_IF_ERROR(ReadString(&r, &msg.checkpoint_path, "Assign"));
  DD_RETURN_IF_ERROR(ReadString(&r, &msg.graph_snapshot, "Assign"));
  DD_RETURN_IF_ERROR(r.Done("Assign"));
  return msg;
}

std::string EncodeReady(const ReadyMsg& msg) {
  std::string out;
  PutU32(&out, msg.phase);
  PutU32(&out, msg.next);
  PutU32(&out, msg.has_result ? 1 : 0);
  PutBytes(&out, msg.result);
  return out;
}

Result<ReadyMsg> DecodeReady(const std::string& payload) {
  ByteReader r(payload);
  ReadyMsg msg;
  DD_RETURN_IF_ERROR(r.U32(&msg.phase, "Ready"));
  DD_RETURN_IF_ERROR(r.U32(&msg.next, "Ready"));
  DD_RETURN_IF_ERROR(ReadBool(&r, &msg.has_result, "Ready"));
  DD_RETURN_IF_ERROR(ReadString(&r, &msg.result, "Ready"));
  DD_RETURN_IF_ERROR(r.Done("Ready"));
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
  ByteReader r(payload);
  ExchangeStartMsg msg;
  DD_RETURN_IF_ERROR(r.U32(&msg.phase, "ExchangeStart"));
  DD_RETURN_IF_ERROR(r.U32(&msg.index, "ExchangeStart"));
  DD_RETURN_IF_ERROR(ReadVec(&r, &msg.weights, "ExchangeStart"));
  DD_RETURN_IF_ERROR(ReadVec(&r, &msg.pins, "ExchangeStart"));
  DD_RETURN_IF_ERROR(r.Done("ExchangeStart"));
  return msg;
}

std::string EncodeExchangeResult(const ExchangeResultMsg& msg) {
  std::string out;
  PutU32(&out, msg.phase);
  PutU32(&out, msg.index);
  PutVec(&out, msg.boundary_bits);
  PutVec(&out, msg.boundary_estimates);
  PutVec(&out, msg.weights);
  PutU32(&out, msg.is_final ? 1 : 0);
  PutVec(&out, msg.owned_marginals);
  PutU64(&out, msg.num_accumulated);
  return out;
}

Result<ExchangeResultMsg> DecodeExchangeResult(const std::string& payload) {
  ByteReader r(payload);
  ExchangeResultMsg msg;
  DD_RETURN_IF_ERROR(r.U32(&msg.phase, "ExchangeResult"));
  DD_RETURN_IF_ERROR(r.U32(&msg.index, "ExchangeResult"));
  DD_RETURN_IF_ERROR(ReadVec(&r, &msg.boundary_bits, "ExchangeResult"));
  DD_RETURN_IF_ERROR(ReadVec(&r, &msg.boundary_estimates, "ExchangeResult"));
  DD_RETURN_IF_ERROR(ReadVec(&r, &msg.weights, "ExchangeResult"));
  DD_RETURN_IF_ERROR(ReadBool(&r, &msg.is_final, "ExchangeResult"));
  DD_RETURN_IF_ERROR(ReadVec(&r, &msg.owned_marginals, "ExchangeResult"));
  DD_RETURN_IF_ERROR(r.U64(&msg.num_accumulated, "ExchangeResult"));
  DD_RETURN_IF_ERROR(r.Done("ExchangeResult"));
  return msg;
}

}  // namespace dd
