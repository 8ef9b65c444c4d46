#include "factor/graph.h"

#include <cstring>

#include "util/string_util.h"

namespace dd {

const char* FactorFuncName(FactorFunc func) {
  switch (func) {
    case FactorFunc::kIsTrue: return "istrue";
    case FactorFunc::kAnd: return "and";
    case FactorFunc::kOr: return "or";
    case FactorFunc::kImply: return "imply";
    case FactorFunc::kEqual: return "equal";
  }
  return "?";
}

uint32_t FactorGraph::AddVariable(bool is_evidence, bool value) {
  var_is_evidence_.push_back(is_evidence ? 1 : 0);
  var_evidence_value_.push_back(value ? 1 : 0);
  finalized_ = false;
  return static_cast<uint32_t>(var_is_evidence_.size() - 1);
}

uint32_t FactorGraph::AddWeight(double initial_value, bool is_fixed,
                                std::string description) {
  weights_.push_back(Weight{initial_value, is_fixed, std::move(description)});
  weight_values_.push_back(initial_value);
  return static_cast<uint32_t>(weights_.size() - 1);
}

void FactorGraph::set_weight_value(uint32_t w, double value) {
  weight_values_[w] = value;
  weights_[w].value = value;
  if (finalized_) RefoldBiases();
}

void FactorGraph::set_weight_values(const std::vector<double>& values) {
  // Write every changed value first, then refold once: a learning epoch
  // installs its whole model here and pays O(folded ops), not one refold
  // per weight.
  bool changed = false;
  for (uint32_t w = 0; w < values.size(); ++w) {
    if (std::memcmp(&values[w], &weight_values_[w], sizeof(double)) == 0) continue;
    weight_values_[w] = values[w];
    weights_[w].value = values[w];
    changed = true;
  }
  if (finalized_ && changed) RefoldBiases();
}

Status FactorGraph::AddFactor(FactorFunc func, uint32_t weight_id,
                              std::vector<Literal> literals) {
  if (weight_id >= weights_.size()) {
    return Status::InvalidArgument(StrFormat("weight id %u out of range", weight_id));
  }
  if (literals.empty()) {
    return Status::InvalidArgument("factor needs at least one literal");
  }
  if (literals.size() >= (1u << 24)) {
    return Status::InvalidArgument("factor arity exceeds kernel stream limit (2^24)");
  }
  if (func == FactorFunc::kEqual && literals.size() != 2) {
    return Status::InvalidArgument("equal factor requires exactly 2 literals");
  }
  if (func == FactorFunc::kIsTrue && literals.size() != 1) {
    return Status::InvalidArgument("istrue factor requires exactly 1 literal");
  }
  for (const Literal& l : literals) {
    if (l.var >= var_is_evidence_.size()) {
      return Status::InvalidArgument(StrFormat("variable id %u out of range", l.var));
    }
  }
  if (factor_offsets_.empty()) factor_offsets_.push_back(0);
  factor_func_.push_back(func);
  factor_weight_.push_back(weight_id);
  for (const Literal& l : literals) factor_literals_.push_back(l);
  factor_offsets_.push_back(static_cast<uint32_t>(factor_literals_.size()));
  finalized_ = false;
  return Status::OK();
}

Status FactorGraph::Finalize() {
  if (finalized_) return Status::OK();
  if (factor_offsets_.empty()) factor_offsets_.push_back(0);
  const size_t nv = num_variables();
  const size_t nf = num_factors();
  if (nv >= (1u << 30)) {
    return Status::InvalidArgument(
        "kernel stream literal encoding supports < 2^30 variables");
  }
  if (num_weights() >= (1u << 31)) {
    return Status::InvalidArgument("bias fold encoding supports < 2^31 weights");
  }

  // Counting sort of (var -> factor) edges, deduplicated per factor so a
  // variable occurring in several literals of one factor is indexed once
  // (PotentialDelta must weigh each adjacent factor exactly once). The
  // scratch marker records the last token that touched each variable, so
  // dedup is O(1) per literal and the whole pass is linear in edges —
  // this runs on every incremental re-ground. Pass 1 uses token f, pass
  // 2 token nf+f, so no reset between passes is needed.
  std::vector<uint64_t> seen(nv, ~uint64_t{0});
  std::vector<uint32_t> degree(nv, 0);
  size_t num_unique_edges = 0;
  for (uint32_t f = 0; f < nf; ++f) {
    for (uint32_t e = factor_offsets_[f]; e < factor_offsets_[f + 1]; ++e) {
      const uint32_t v = factor_literals_[e].var;
      if (seen[v] == f) continue;
      seen[v] = f;
      degree[v]++;
      ++num_unique_edges;
    }
  }
  var_offsets_.assign(nv + 1, 0);
  for (size_t v = 0; v < nv; ++v) var_offsets_[v + 1] = var_offsets_[v] + degree[v];
  var_factor_ids_.resize(num_unique_edges);
  std::vector<uint32_t> cursor(var_offsets_.begin(), var_offsets_.end() - 1);
  for (uint32_t f = 0; f < nf; ++f) {
    const uint64_t token = static_cast<uint64_t>(nf) + f;
    for (uint32_t e = factor_offsets_[f]; e < factor_offsets_[f + 1]; ++e) {
      const uint32_t v = factor_literals_[e].var;
      if (seen[v] == token) continue;
      seen[v] = token;
      var_factor_ids_[cursor[v]++] = f;
    }
  }
  CompileKernels();
  finalized_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Compiled kernel streams.
//
// For each variable v, Finalize() emits one contiguous uint32 stream
// holding, per adjacent factor (in var_factors order), an op that yields
// w_f · (h_f(v=1) − h_f(v=0)) with v's role resolved at compile time:
//
//   header word : tag (bits 0-2) | sign (bit 3, 1 = negative)
//                 | func (bits 4-7, kOpGeneral only) | nlit (bits 8-31)
//   weight word : index into the dense weight_values_ array
//   nlit words  : literals, var<<2 | is_self<<1 | is_positive
//                 (is_self is set only inside kOpGeneral ops)
//
// Op semantics (sw = ±weight):
//   kOpUnary   delta += sw                  (any single-literal factor, and
//                                            factors whose non-self guard
//                                            is empty)
//   kOpGuard   delta += sw iff every stored literal is true (kAnd over
//              non-self literals; kOr and kImply reduce to the same shape
//              with literals negated as needed)
//   kOpEqual   delta += (lit ? sw : -sw)    (kEqual with one self literal)
//   kOpGeneral delta += w · (h(v=1) − h(v=0)) evaluated over the stored
//              literals — fallback for the rare shapes above can't
//              express (v in both body and head of an imply)
//
// Factors whose delta is provably zero (e.g. v appears with both
// polarities in an AND) are dropped at compile time. The maximal leading
// run of kOpUnary ops of v, fixed or learned weights alike, folds into
// the var_bias_[v] constant: the kernel starts from 0.0 and adds ops in
// adjacency order, so a bias summed as 0.0 + sw1 + sw2 + ... followed by
// the remaining ops is the identical sequence of IEEE additions. A unary
// op after the first non-unary op stays in the stream (moving it would
// reassociate the sum). The folded (weight, sign) words are kept per
// variable, so a weight install refolds every bias in O(folded ops).
// ---------------------------------------------------------------------------

namespace {

enum : uint32_t {
  kOpUnary = 0,
  kOpGuard = 1,
  kOpEqual = 2,
  kOpGeneral = 3,
};

constexpr uint32_t kSignBit = 1u << 3;

inline uint32_t OpHeader(uint32_t tag, bool negative, FactorFunc func,
                         uint32_t nlit) {
  return tag | (negative ? kSignBit : 0u) | (static_cast<uint32_t>(func) << 4) |
         (nlit << 8);
}

inline uint32_t LitWord(uint32_t var, bool is_self, bool is_positive) {
  return (var << 2) | (is_self ? 2u : 0u) | (is_positive ? 1u : 0u);
}

/// Literal value inside a kOpGeneral op: self literals read the override
/// value b, others read the assignment.
inline bool GeneralLit(uint32_t word, const uint8_t* assignment, uint8_t b) {
  const uint8_t raw = (word & 2u) ? b : assignment[word >> 2];
  return (raw != 0) == ((word & 1u) != 0);
}

bool GeneralEval(FactorFunc func, const uint32_t* lits, uint32_t n,
                 const uint8_t* assignment, uint8_t b) {
  switch (func) {
    case FactorFunc::kIsTrue:
      return GeneralLit(lits[0], assignment, b);
    case FactorFunc::kAnd: {
      for (uint32_t i = 0; i < n; ++i) {
        if (!GeneralLit(lits[i], assignment, b)) return false;
      }
      return true;
    }
    case FactorFunc::kOr: {
      for (uint32_t i = 0; i < n; ++i) {
        if (GeneralLit(lits[i], assignment, b)) return true;
      }
      return false;
    }
    case FactorFunc::kImply: {
      for (uint32_t i = 0; i + 1 < n; ++i) {
        if (!GeneralLit(lits[i], assignment, b)) return true;
      }
      return GeneralLit(lits[n - 1], assignment, b);
    }
    case FactorFunc::kEqual:
      return GeneralLit(lits[0], assignment, b) == GeneralLit(lits[1], assignment, b);
  }
  return false;
}

}  // namespace

bool FactorGraph::CompileFactorOp(uint32_t f, uint32_t v,
                                  std::vector<uint32_t>* out,
                                  int* foldable_sign) const {
  *foldable_sign = 0;
  const uint32_t begin = factor_offsets_[f];
  const uint32_t end = factor_offsets_[f + 1];
  const uint32_t arity = end - begin;
  const uint32_t w = factor_weight_[f];
  const FactorFunc func = factor_func_[f];

  bool self_pos = false, self_neg = false;
  for (uint32_t e = begin; e < end; ++e) {
    if (factor_literals_[e].var == v) {
      if (factor_literals_[e].is_positive) self_pos = true;
      else self_neg = true;
    }
  }

  auto emit_unary = [&](bool positive) {
    out->push_back(OpHeader(kOpUnary, !positive, func, 0));
    out->push_back(w);
    *foldable_sign = positive ? 1 : -1;
    return true;
  };
  // Guard op: delta += ±w iff every literal in [out-appended] is true.
  // Collapses to kOpUnary when the guard list ends up empty.
  auto emit_guard = [&](bool positive, const std::vector<uint32_t>& lits) {
    if (lits.empty()) return emit_unary(positive);
    out->push_back(OpHeader(kOpGuard, !positive, func,
                            static_cast<uint32_t>(lits.size())));
    out->push_back(w);
    out->insert(out->end(), lits.begin(), lits.end());
    return true;
  };

  // Any single-literal factor has h = l1 regardless of func (an imply
  // with no body is its head, a one-term AND/OR is the term).
  if (arity == 1) return emit_unary(self_pos);

  std::vector<uint32_t> lits;
  switch (func) {
    case FactorFunc::kIsTrue:  // arity == 1, handled above
      return emit_unary(self_pos);
    case FactorFunc::kAnd: {
      if (self_pos && self_neg) return false;  // v ∧ ¬v ⇒ h ≡ 0
      for (uint32_t e = begin; e < end; ++e) {
        const Literal& l = factor_literals_[e];
        if (l.var == v) continue;
        lits.push_back(LitWord(l.var, false, l.is_positive));
      }
      return emit_guard(self_pos, lits);
    }
    case FactorFunc::kOr: {
      if (self_pos && self_neg) return false;  // v ∨ ¬v ⇒ h ≡ 1
      // h = O ∨ (±v): delta = ±(1 − O) — fire iff every other literal is
      // false, i.e. every negated literal is true.
      for (uint32_t e = begin; e < end; ++e) {
        const Literal& l = factor_literals_[e];
        if (l.var == v) continue;
        lits.push_back(LitWord(l.var, false, !l.is_positive));
      }
      return emit_guard(self_pos, lits);
    }
    case FactorFunc::kImply: {
      const Literal& head = factor_literals_[end - 1];
      const bool head_self = head.var == v;
      bool body_pos = false, body_neg = false;
      for (uint32_t e = begin; e + 1 < end; ++e) {
        if (factor_literals_[e].var == v) {
          if (factor_literals_[e].is_positive) body_pos = true;
          else body_neg = true;
        }
      }
      if (body_pos && body_neg) return false;  // body ≡ false ⇒ h ≡ 1
      const bool body_self = body_pos || body_neg;
      if (head_self && !body_self) {
        // h = ¬B ∨ (±v): delta = ±B — fire iff the whole body holds.
        for (uint32_t e = begin; e + 1 < end; ++e) {
          const Literal& l = factor_literals_[e];
          lits.push_back(LitWord(l.var, false, l.is_positive));
        }
        return emit_guard(head.is_positive, lits);
      }
      if (body_self && !head_self) {
        // h = ¬Bother ∨ ¬(±v) ∨ H: delta = ∓(Bother ∧ ¬H).
        for (uint32_t e = begin; e + 1 < end; ++e) {
          const Literal& l = factor_literals_[e];
          if (l.var == v) continue;
          lits.push_back(LitWord(l.var, false, l.is_positive));
        }
        lits.push_back(LitWord(head.var, false, !head.is_positive));
        return emit_guard(!body_pos, lits);
      }
      // v in both body and head: fall back to the general evaluator.
      break;
    }
    case FactorFunc::kEqual: {
      const Literal& l1 = factor_literals_[begin];
      const Literal& l2 = factor_literals_[begin + 1];
      if (l1.var == v && l2.var == v) return false;  // constant in v
      const Literal& self = l1.var == v ? l1 : l2;
      const Literal& other = l1.var == v ? l2 : l1;
      // h(v=b) = (±b == other): delta = ±(2·other − 1).
      out->push_back(OpHeader(kOpEqual, !self.is_positive, func, 1));
      out->push_back(w);
      out->push_back(LitWord(other.var, false, other.is_positive));
      return true;
    }
  }

  // General fallback: store the full literal list with self marks and
  // interpret the function over it (no CSR lookups, no var comparisons).
  out->push_back(OpHeader(kOpGeneral, false, func, arity));
  out->push_back(w);
  for (uint32_t e = begin; e < end; ++e) {
    const Literal& l = factor_literals_[e];
    out->push_back(LitWord(l.var, l.var == v, l.is_positive));
  }
  return true;
}

void FactorGraph::CompileKernels() {
  const size_t nv = num_variables();
  kernel_offsets_.assign(nv + 1, 0);
  kernel_stream_.clear();
  fold_offsets_.assign(nv + 1, 0);
  fold_words_.clear();

  for (uint32_t v = 0; v < nv; ++v) {
    size_t count = 0;
    const uint32_t* factors = var_factors(v, &count);
    bool in_prefix = true;  // no non-unary op emitted for v yet
    for (size_t i = 0; i < count; ++i) {
      const size_t start = kernel_stream_.size();
      int sign = 0;
      if (!CompileFactorOp(factors[i], v, &kernel_stream_, &sign)) {
        continue;  // provably zero contribution
      }
      in_prefix = in_prefix && sign != 0;
      if (!in_prefix) continue;
      // Leading unary op: move its (weight, sign) word out of the stream.
      const uint32_t w = kernel_stream_[start + 1];
      kernel_stream_.resize(start);
      fold_words_.push_back(w << 1 | (sign < 0 ? 1u : 0u));
    }
    kernel_offsets_[v + 1] = static_cast<uint32_t>(kernel_stream_.size());
    fold_offsets_[v + 1] = static_cast<uint32_t>(fold_words_.size());
  }
  RefoldBiases();
}

void FactorGraph::RefoldBiases() {
  const size_t nv = num_variables();
  var_bias_.resize(nv);
  for (size_t v = 0; v < nv; ++v) {
    double bias = 0.0;
    for (uint32_t i = fold_offsets_[v]; i < fold_offsets_[v + 1]; ++i) {
      const double w = weight_values_[fold_words_[i] >> 1];
      bias += (fold_words_[i] & 1u) ? -w : w;
    }
    var_bias_[v] = bias;
  }
}

double FactorGraph::PotentialDeltaCompiled(uint32_t v,
                                           const uint8_t* assignment) const {
  double delta = var_bias_[v];
  const uint32_t* s = kernel_stream_.data() + kernel_offsets_[v];
  const uint32_t* const end = kernel_stream_.data() + kernel_offsets_[v + 1];
  const double* weights = weight_values_.data();
  while (s != end) {
    const uint32_t header = *s++;
    const double w = weights[*s++];
    const uint32_t nlit = header >> 8;
    const double sw = (header & kSignBit) ? -w : w;
    switch (header & 7u) {
      case kOpUnary:
        delta += sw;
        break;
      case kOpGuard: {
        bool pass = true;
        for (uint32_t i = 0; i < nlit; ++i) {
          const uint32_t lit = s[i];
          if ((assignment[lit >> 2] != 0) != ((lit & 1u) != 0)) {
            pass = false;
            break;
          }
        }
        if (pass) delta += sw;
        s += nlit;
        break;
      }
      case kOpEqual: {
        const uint32_t lit = *s++;
        delta += ((assignment[lit >> 2] != 0) == ((lit & 1u) != 0)) ? sw : -sw;
        break;
      }
      default: {  // kOpGeneral
        const FactorFunc func = static_cast<FactorFunc>((header >> 4) & 15u);
        const int diff = static_cast<int>(GeneralEval(func, s, nlit, assignment, 1)) -
                         static_cast<int>(GeneralEval(func, s, nlit, assignment, 0));
        delta += w * static_cast<double>(diff);
        s += nlit;
        break;
      }
    }
  }
  return delta;
}

namespace {
inline bool LiteralValue(const Literal& l, const uint8_t* assignment,
                         uint32_t override_var, uint8_t override_value) {
  uint8_t raw = (l.var == override_var) ? override_value : assignment[l.var];
  return l.is_positive ? raw != 0 : raw == 0;
}
}  // namespace

double FactorGraph::EvalFactor(uint32_t f, const uint8_t* assignment,
                               uint32_t override_var, uint8_t override_value) const {
  const uint32_t begin = factor_offsets_[f];
  const uint32_t end = factor_offsets_[f + 1];
  switch (factor_func_[f]) {
    case FactorFunc::kIsTrue:
      return LiteralValue(factor_literals_[begin], assignment, override_var,
                          override_value)
                 ? 1.0
                 : 0.0;
    case FactorFunc::kAnd: {
      for (uint32_t e = begin; e < end; ++e) {
        if (!LiteralValue(factor_literals_[e], assignment, override_var,
                          override_value)) {
          return 0.0;
        }
      }
      return 1.0;
    }
    case FactorFunc::kOr: {
      for (uint32_t e = begin; e < end; ++e) {
        if (LiteralValue(factor_literals_[e], assignment, override_var,
                         override_value)) {
          return 1.0;
        }
      }
      return 0.0;
    }
    case FactorFunc::kImply: {
      // Body = literals [begin, end-1), head = last literal.
      for (uint32_t e = begin; e + 1 < end; ++e) {
        if (!LiteralValue(factor_literals_[e], assignment, override_var,
                          override_value)) {
          return 1.0;  // body false => implication true
        }
      }
      return LiteralValue(factor_literals_[end - 1], assignment, override_var,
                          override_value)
                 ? 1.0
                 : 0.0;
    }
    case FactorFunc::kEqual: {
      bool a = LiteralValue(factor_literals_[begin], assignment, override_var,
                            override_value);
      bool b = LiteralValue(factor_literals_[begin + 1], assignment, override_var,
                            override_value);
      return a == b ? 1.0 : 0.0;
    }
  }
  return 0.0;
}

double FactorGraph::EvalFactor(uint32_t f, const uint8_t* assignment) const {
  // An override on a variable id that cannot exist disables the override.
  return EvalFactor(f, assignment, static_cast<uint32_t>(-1), 0);
}

double FactorGraph::LogPotential(const uint8_t* assignment) const {
  double total = 0.0;
  const size_t nf = num_factors();
  for (uint32_t f = 0; f < nf; ++f) {
    total += weights_[factor_weight_[f]].value * EvalFactor(f, assignment);
  }
  return total;
}

double FactorGraph::PotentialDelta(uint32_t v, const uint8_t* assignment) const {
  double delta = 0.0;
  size_t count = 0;
  const uint32_t* factors = var_factors(v, &count);
  for (size_t i = 0; i < count; ++i) {
    uint32_t f = factors[i];
    double w = weights_[factor_weight_[f]].value;
    if (w == 0.0) continue;
    delta += w * (EvalFactor(f, assignment, v, 1) - EvalFactor(f, assignment, v, 0));
  }
  return delta;
}

}  // namespace dd
