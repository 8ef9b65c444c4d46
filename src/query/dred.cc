#include "query/dred.h"

#include <algorithm>
#include <memory>
#include <set>

#include "query/datalog.h"
#include "query/evaluator.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace dd {

namespace {

/// Body atoms, positives first then negatives (matching RuleEvaluator):
/// the telescoping identity sum_i (new_<i, delta_i, old_>i) is valid for
/// any fixed order, so we fix this one.
std::vector<const Atom*> OrderedBody(const ConjunctiveRule& rule) {
  std::vector<const Atom*> ordered;
  for (const Atom& a : rule.body) {
    if (!a.negated) ordered.push_back(&a);
  }
  for (const Atom& a : rule.body) {
    if (a.negated) ordered.push_back(&a);
  }
  return ordered;
}

}  // namespace

Status IncrementalEngine::Initialize() {
  for (const ConjunctiveRule& rule : rules_) DD_RETURN_IF_ERROR(rule.Validate());
  DD_ASSIGN_OR_RETURN(Stratification strat, Stratify(rules_));
  if (strat.has_recursion) {
    return Status::Unimplemented(
        "IncrementalEngine supports non-recursive programs only; use DatalogEngine");
  }
  topo_order_.clear();
  derived_.clear();
  rules_of_.clear();
  counts_.clear();
  for (const auto& stratum : strat.strata) {
    for (const std::string& rel : stratum) {
      topo_order_.push_back(rel);
      derived_.insert(rel);
    }
  }
  for (size_t i = 0; i < rules_.size(); ++i) {
    rules_of_[rules_[i].head.relation].push_back(i);
  }

  // Full evaluation in dependency order, accumulating derivation counts.
  // The joins build their indexes in index_cache_, which batches keep.
  index_cache_ = JoinIndexCache();
  RuleEvaluator evaluator(catalog_);
  for (const std::string& rel : topo_order_) {
    DD_ASSIGN_OR_RETURN(Table* table, catalog_->GetTable(rel));
    if (!table->empty()) {
      return Status::InvalidArgument("derived table must start empty: " + rel);
    }
    CountMap& counts = counts_[rel];
    for (size_t rid : rules_of_[rel]) {
      DD_RETURN_IF_ERROR(evaluator.Evaluate(
          rules_[rid], [&](const Tuple& t) { counts[t] += 1; }, par_, &index_cache_));
    }
    // Known-size re-materialization: size storage and index up front so
    // the insert loop never rehashes.
    table->Reserve(counts.size());
    for (const auto& [tuple, count] : counts) {
      if (count > 0) {
        DD_RETURN_IF_ERROR(table->CheckTuple(tuple));
        table->InsertUnchecked(tuple);
      }
    }
  }
  // Build every index a delta join probes now, so that no batch scans a
  // whole table: compile each rule at each delta position (the plan, and
  // so the key positions, do not depend on the delta's contents).
  const DeltaSet no_delta;
  const std::map<std::string, DeltaSet> no_pending;
  for (const ConjunctiveRule& rule : rules_) {
    for (size_t i = 0; i < rule.body.size(); ++i) {
      DeltaPlan plan;
      DD_RETURN_IF_ERROR(PlanDeltaJoin(rule, i, &no_delta, no_pending, nullptr, &plan));
      plan.cc.PrepareIndexes();
    }
  }
  initialized_ = true;
  return Status::OK();
}

int64_t IncrementalEngine::DerivationCount(const std::string& relation,
                                           const Tuple& tuple) const {
  auto it = counts_.find(relation);
  if (it == counts_.end()) return 0;
  auto jt = it->second.find(tuple);
  return jt == it->second.end() ? 0 : jt->second;
}

Status IncrementalEngine::PlanDeltaJoin(const ConjunctiveRule& rule, size_t delta_pos,
                                        const DeltaSet* delta,
                                        const std::map<std::string, DeltaSet>& pending,
                                        Overlays* overlays, DeltaPlan* plan) {
  const std::vector<const Atom*> ordered = OrderedBody(rule);
  const Atom* delta_atom = ordered[delta_pos];

  // Build (atom, source) pairs in identity order — new state before the
  // delta position, old state after — then *evaluate* with the delta
  // atom first so the join cost is O(|delta| · probes), not O(|R1|).
  // Evaluation order does not affect the result set, only the plan.
  std::vector<AtomInput> identity_inputs;
  for (size_t j = 0; j < ordered.size(); ++j) {
    const Atom* atom = ordered[j];
    DD_ASSIGN_OR_RETURN(const Table* table, catalog_->GetTable(atom->relation));
    const TupleSource* src = nullptr;
    auto it = pending.find(atom->relation);
    if (j == delta_pos) {
      plan->owned.push_back(std::make_unique<DeltaSource>(delta));
    } else if (j < delta_pos && it != pending.end() && !it->second.empty()) {
      std::unique_ptr<OverlaySource>& overlay = (*overlays)[atom->relation];
      if (overlay == nullptr) overlay = std::make_unique<OverlaySource>(table, &it->second);
      src = overlay.get();  // new state
    } else {
      plan->owned.push_back(std::make_unique<TableSource>(table));  // old state
    }
    if (src == nullptr) src = plan->owned.back().get();
    identity_inputs.push_back(AtomInput{atom, src});
  }

  // The delta-position atom participates positively in the scan even if
  // negated in the rule; the sign flip in DeltaJoin accounts for
  // complement semantics (a tuple entering R leaves !R and vice versa).
  if (delta_atom->negated) {
    plan->stripped = *delta_atom;
    plan->stripped.negated = false;
    identity_inputs[delta_pos].atom = &plan->stripped;
  }

  // Plan order: delta scan first, then remaining positives, negated last
  // (they must be fully bound when reached).
  std::vector<AtomInput> inputs;
  inputs.push_back(identity_inputs[delta_pos]);
  for (size_t j = 0; j < identity_inputs.size(); ++j) {
    if (j == delta_pos || identity_inputs[j].atom->negated) continue;
    inputs.push_back(identity_inputs[j]);
  }
  for (size_t j = 0; j < identity_inputs.size(); ++j) {
    if (j == delta_pos || !identity_inputs[j].atom->negated) continue;
    inputs.push_back(identity_inputs[j]);
  }
  return plan->cc.Build(std::move(inputs), &rule.conditions, &index_cache_);
}

Status IncrementalEngine::DeltaJoin(const ConjunctiveRule& rule, size_t delta_pos,
                                    const std::map<std::string, DeltaSet>& pending,
                                    Overlays* overlays, CountMap* out) {
  const Atom* delta_atom = OrderedBody(rule)[delta_pos];
  auto pend_it = pending.find(delta_atom->relation);
  if (pend_it == pending.end() || pend_it->second.empty()) return Status::OK();

  DeltaPlan plan;
  DD_RETURN_IF_ERROR(
      PlanDeltaJoin(rule, delta_pos, &pend_it->second, pending, overlays, &plan));
  const CompiledConjunction& cc = plan.cc;
  const int sign = delta_atom->negated ? -1 : 1;

  if (par_.pool != nullptr) {
    // Private index building happens here, on the coordinating thread;
    // workers afterwards only probe.
    cc.PrepareIndexes();
    const size_t n = cc.TopLevelSize();
    const size_t morsel_size = par_.MorselSizeFor(cc.EstimatedUnitCost());
    const size_t num_morsels = NumMorsels(n, morsel_size);
    if (num_morsels > 1) {
      std::vector<std::vector<std::pair<Tuple, int64_t>>> buffers(num_morsels);
      DD_RETURN_IF_ERROR(ParallelMorsels(
          par_.pool, n, morsel_size,
          [&](size_t m, size_t begin, size_t end) {
            auto& buf = buffers[m];
            cc.RunMorsel(begin, end, [&](const std::vector<Value>& slots,
                                         int64_t mult) {
              buf.emplace_back(RuleEvaluator::ProjectHead(rule.head, cc, slots),
                               mult);
            });
            return Status::OK();
          }));
      // Ordered merge: accumulating in morsel order reproduces the exact
      // CountMap the serial scan builds (same insertion sequence).
      for (const auto& buffer : buffers) {
        for (const auto& [head, mult] : buffer) (*out)[head] += sign * mult;
      }
      return Status::OK();
    }
  }

  cc.Run([&](const std::vector<Value>& slots, int64_t mult) {
    Tuple head = RuleEvaluator::ProjectHead(rule.head, cc, slots);
    (*out)[head] += sign * mult;
  });
  return Status::OK();
}

Result<std::map<std::string, DeltaSet>> IncrementalEngine::ApplyDeltas(
    const std::map<std::string, DeltaSet>& base_deltas) {
  if (!initialized_) return Status::Internal("IncrementalEngine not initialized");

  // Normalize base deltas against current table state: presence semantics,
  // counts in {-1, +1}, drop no-ops. Reject deltas on derived relations.
  std::map<std::string, DeltaSet> pending;
  for (const auto& [rel, delta] : base_deltas) {
    if (derived_.count(rel) > 0) {
      return Status::InvalidArgument("cannot apply base delta to derived relation: " +
                                     rel);
    }
    DD_ASSIGN_OR_RETURN(Table* table, catalog_->GetTable(rel));
    DeltaSet normalized;
    for (const auto& [tuple, count] : delta) {
      if (count == 0) continue;
      DD_RETURN_IF_ERROR(table->CheckTuple(tuple));
      bool present = table->Contains(tuple);
      if (count > 0 && !present) normalized[tuple] = 1;
      if (count < 0 && present) normalized[tuple] = -1;
    }
    if (!normalized.empty()) pending[rel] = std::move(normalized);
  }
  if (pending.empty()) return pending;

  // Propagate through derived relations in dependency order. Tables still
  // hold the OLD state; "new" views are overlays over them, whose probes
  // go to the kept indexes minus the rows the delta erases, plus a small
  // index over the tuples it inserts.
  Overlays overlays;
  for (const std::string& rel : topo_order_) {
    DD_TRACE_SPAN_VAR(span, "grounding.dred");
    CountMap dcount;
    std::set<std::string> inputs;
    for (size_t rid : rules_of_[rel]) {
      const ConjunctiveRule& rule = rules_[rid];
      for (const Atom& atom : rule.body) inputs.insert(atom.relation);
      for (size_t i = 0; i < rule.body.size(); ++i) {
        DD_RETURN_IF_ERROR(DeltaJoin(rule, i, pending, &overlays, &dcount));
      }
    }
    size_t delta_in = 0;
    for (const std::string& input : inputs) {
      auto it = pending.find(input);
      if (it != pending.end()) delta_in += it->second.size();
    }
    span.Attr("delta_in", static_cast<double>(delta_in));
    if (dcount.empty()) {
      span.Attr("delta_out", 0);
      continue;
    }
    CountMap& counts = counts_[rel];
    DeltaSet presence;
    for (const auto& [tuple, dc] : dcount) {
      if (dc == 0) continue;
      int64_t before = 0;
      auto it = counts.find(tuple);
      if (it != counts.end()) before = it->second;
      int64_t after = before + dc;
      if (after < 0) {
        return Status::Internal("negative derivation count for " + rel + " tuple " +
                                tuple.ToString());
      }
      if (after == 0) {
        counts.erase(tuple);
      } else {
        counts[tuple] = after;
      }
      if (before == 0 && after > 0) presence[tuple] = 1;
      if (before > 0 && after == 0) presence[tuple] = -1;
    }
    span.Attr("delta_out", static_cast<double>(presence.size()));
    if (!presence.empty()) pending[rel] = std::move(presence);
  }
  overlays.clear();  // they read the old table state

  // Commit: apply every presence delta to its table.
  for (const auto& [rel, delta] : pending) {
    DD_ASSIGN_OR_RETURN(Table* table, catalog_->GetTable(rel));
    for (const auto& [tuple, count] : delta) {
      if (count > 0) {
        table->InsertUnchecked(tuple);
      } else if (count < 0) {
        table->Erase(tuple);
      }
    }
  }
  // Erasures and revivals keep their row ids, which the indexes already
  // list; only the rows the commit appended need indexing.
  index_cache_.CatchUp();
  return pending;
}

}  // namespace dd
