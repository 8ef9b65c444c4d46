#ifndef DEEPDIVE_FACTOR_GRAPH_H_
#define DEEPDIVE_FACTOR_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace dd {

/// Factor functions over Boolean literals, following the DimmWitted
/// sampler's repertoire. Each returns h ∈ {0, 1}; the factor contributes
/// weight · h to the log-potential of a world (§3.3: Pr[I] ∝ exp ΣW).
enum class FactorFunc {
  kIsTrue,   ///< h = l1
  kAnd,      ///< h = l1 ∧ ... ∧ lk
  kOr,       ///< h = l1 ∨ ... ∨ lk
  kImply,    ///< h = (l1 ∧ ... ∧ l(k-1)) → lk   (MLN semantics)
  kEqual,    ///< h = (l1 == l2); arity 2
};

const char* FactorFuncName(FactorFunc func);

/// A variable occurrence inside a factor: variable id plus polarity.
/// With is_positive = false the literal reads ¬v.
struct Literal {
  uint32_t var = 0;
  bool is_positive = true;
};

/// Cold side of a tied weight: metadata that inference never touches.
/// Multiple factors grounded from the same rule with the same feature
/// value share one WeightId (Example 3.2's weight tying). The hot value
/// lives in FactorGraph's dense weight_values_ array; `value` here is a
/// mirror kept in sync by set_weight_value() so io/diagnostics code can
/// keep reading the struct.
struct Weight {
  double value = 0.0;
  bool is_fixed = false;      ///< fixed weights are not learned
  std::string description;    ///< human-readable feature name (debuggability)
};

/// Builder + compiled CSR ("column-to-row") representation of a factor
/// graph. Build with AddVariable/AddWeight/AddFactor, then Finalize()
/// compiles the flat arrays DimmWitted-style: factor→vars adjacency, the
/// inverted var→factors adjacency, and the per-variable delta kernel
/// streams that the samplers execute (see DESIGN.md "Compiled kernel
/// layout").
class FactorGraph {
 public:
  FactorGraph() = default;

  /// Add a query or evidence variable; returns its id.
  /// Evidence variables are clamped to `value` during learning's
  /// positive phase and during conditional inference.
  uint32_t AddVariable(bool is_evidence = false, bool value = false);

  /// Add a weight; returns its id.
  uint32_t AddWeight(double initial_value, bool is_fixed, std::string description);

  /// Add a factor over `literals` with function `func` and weight
  /// `weight_id`. Must be called before Finalize().
  Status AddFactor(FactorFunc func, uint32_t weight_id, std::vector<Literal> literals);

  /// Compile the CSR arrays and the per-variable kernel streams.
  /// Idempotent; called automatically by the samplers if needed.
  Status Finalize();
  bool finalized() const { return finalized_; }

  size_t num_variables() const { return var_is_evidence_.size(); }
  size_t num_factors() const { return factor_func_.size(); }
  size_t num_weights() const { return weights_.size(); }
  size_t num_edges() const { return factor_literals_.size(); }

  bool is_evidence(uint32_t v) const { return var_is_evidence_[v]; }
  bool evidence_value(uint32_t v) const { return var_evidence_value_[v]; }
  const Weight& weight(uint32_t w) const { return weights_[w]; }

  /// Hot-side weight access: the dense SoA array every inference and
  /// learning loop reads. Writes go through set_weight_value(s) so the
  /// cold Weight mirror and the compiled biases folding the weight stay
  /// consistent. A write refolds every bias, so neither setter may race
  /// with a sampler reading the graph.
  double weight_value(uint32_t w) const { return weight_values_[w]; }
  const std::vector<double>& weight_values() const { return weight_values_; }
  void set_weight_value(uint32_t w, double value);
  /// Install a whole weight vector (one value per weight id): writes the
  /// weights whose bits change, then refolds the biases once. Learners
  /// install each epoch's model through this.
  void set_weight_values(const std::vector<double>& values);

  FactorFunc factor_func(uint32_t f) const { return factor_func_[f]; }
  uint32_t factor_weight(uint32_t f) const { return factor_weight_[f]; }

  /// Literals of factor f (valid after Finalize or before, same storage).
  const Literal* factor_literals(uint32_t f, size_t* count) const {
    *count = factor_offsets_[f + 1] - factor_offsets_[f];
    return factor_literals_.data() + factor_offsets_[f];
  }

  /// Factor ids adjacent to variable v (valid after Finalize).
  const uint32_t* var_factors(uint32_t v, size_t* count) const {
    *count = var_offsets_[v + 1] - var_offsets_[v];
    return var_factor_ids_.data() + var_offsets_[v];
  }

  /// Evaluate factor f's function under `assignment`, optionally
  /// overriding variable `override_var` with `override_value`.
  /// `assignment` holds one byte per variable (0/1).
  double EvalFactor(uint32_t f, const uint8_t* assignment, uint32_t override_var,
                    uint8_t override_value) const;
  double EvalFactor(uint32_t f, const uint8_t* assignment) const;

  /// Σ_f w_f · h_f(I) for a full assignment — the log-potential W(F, I).
  double LogPotential(const uint8_t* assignment) const;

  /// Energy difference experienced by variable v:
  /// Σ_{f ∋ v} w_f · (h_f(v=1) − h_f(v=0)) under `assignment`.
  /// The Gibbs conditional is sigmoid of this value.
  ///
  /// This is the interpreted reference implementation (two EvalFactor
  /// calls per adjacent factor through the CSR indirection); the
  /// samplers run PotentialDeltaCompiled, which must agree bit-for-bit.
  double PotentialDelta(uint32_t v, const uint8_t* assignment) const;

  /// Compiled delta kernel: walks variable v's flattened stream (built
  /// by Finalize) — one contiguous buffer of ops with v's own position
  /// pre-resolved, reading weights from the dense hot array. Produces
  /// exactly the same double as PotentialDelta for every assignment.
  double PotentialDeltaCompiled(uint32_t v, const uint8_t* assignment) const;

  /// Size of the compiled stream in 32-bit words (diagnostics/tests).
  size_t kernel_stream_words() const { return kernel_stream_.size(); }

  /// Raw compiled kernel state (valid after Finalize). Exposed so
  /// differential tests can assert the streams are bit-identical across
  /// grounding configurations (e.g. serial vs morsel-parallel).
  const std::vector<uint32_t>& kernel_stream() const { return kernel_stream_; }
  const std::vector<uint32_t>& kernel_offsets() const { return kernel_offsets_; }
  const std::vector<double>& var_bias() const { return var_bias_; }

 private:
  // Classify factor f's contribution to v's delta and append the
  // compiled op to *out. Returns false when the contribution is provably
  // zero (op dropped). Sets *foldable_sign to ±1 when the op reduces to
  // a signed weight read (kOpUnary), else 0.
  bool CompileFactorOp(uint32_t f, uint32_t v, std::vector<uint32_t>* out,
                       int* foldable_sign) const;
  void CompileKernels();
  // var_bias_[v] = 0.0 + the folded ±weights of v, in adjacency order.
  void RefoldBiases();

  // Variables.
  std::vector<uint8_t> var_is_evidence_;
  std::vector<uint8_t> var_evidence_value_;
  // Weights: cold metadata (AoS) + hot values (SoA), kept in sync.
  std::vector<Weight> weights_;
  std::vector<double> weight_values_;
  // Factors (flat CSR).
  std::vector<FactorFunc> factor_func_;
  std::vector<uint32_t> factor_weight_;
  std::vector<uint32_t> factor_offsets_;  // size num_factors+1
  std::vector<Literal> factor_literals_;
  // Inverted index (built by Finalize).
  std::vector<uint32_t> var_offsets_;  // size num_variables+1
  std::vector<uint32_t> var_factor_ids_;
  // Compiled per-variable kernel streams (built by Finalize). Stream
  // word format is documented in graph.cc next to the op tags.
  std::vector<uint32_t> kernel_offsets_;  // size num_variables+1
  std::vector<uint32_t> kernel_stream_;
  std::vector<double> var_bias_;         // sum of v's folded unary prefix
  std::vector<uint32_t> fold_offsets_;   // size num_variables+1
  std::vector<uint32_t> fold_words_;     // folded ops: weight<<1 | negative
  bool finalized_ = false;
};

}  // namespace dd

#endif  // DEEPDIVE_FACTOR_GRAPH_H_
