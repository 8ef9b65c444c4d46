#include "query/evaluator.h"

#include <algorithm>
#include <cassert>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace dd {

const JoinIndexCache::SharedIndex* JoinIndexCache::Get(
    const Table* table, const std::vector<int>& positions) {
  auto key = std::make_pair(table, positions);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second.get();
  auto index = std::make_unique<SharedIndex>();
  index->table = table;
  index->positions = positions;
  Extend(index.get());
  const SharedIndex* out = index.get();
  cache_.emplace(std::move(key), std::move(index));
  return out;
}

void JoinIndexCache::CatchUp() {
  for (auto& [key, index] : cache_) Extend(index.get());
}

void JoinIndexCache::Extend(SharedIndex* index) {
  const Table* table = index->table;
  const size_t cap = table->capacity();
  if (cap < index->rows_indexed) {
    index->map.clear();
    index->rows_indexed = 0;
  }
  for (size_t row = index->rows_indexed; row < cap; ++row) {
    // Cells are read in place from the column arrays.
    const int64_t id = static_cast<int64_t>(row);
    Tuple key_tuple;
    for (int pos : index->positions) {
      key_tuple.Append(table->ValueAt(id, static_cast<size_t>(pos)));
    }
    index->map[key_tuple].push_back(id);
  }
  DD_COUNTER_ADD("dd.grounding.index_rows_built", cap - index->rows_indexed);
  index->rows_indexed = cap;
}

Status CompiledConjunction::Build(std::vector<AtomInput> atoms,
                                  const std::vector<Condition>* conditions,
                                  JoinIndexCache* index_cache) {
  index_cache_ = index_cache;
  atoms_.clear();
  conditions_.clear();
  slot_names_.clear();
  slot_of_.clear();
  indexes_.clear();

  auto slot_for = [&](const std::string& var) {
    auto it = slot_of_.find(var);
    if (it != slot_of_.end()) return it->second;
    int slot = static_cast<int>(slot_names_.size());
    slot_names_.push_back(var);
    slot_of_.emplace(var, slot);
    return slot;
  };

  std::vector<bool> bound;  // per slot, bound after previously planned atoms
  for (const AtomInput& input : atoms) {
    if (input.atom == nullptr || input.source == nullptr) {
      return Status::InvalidArgument("AtomInput with null atom or source");
    }
    AtomPlan plan;
    plan.source = input.source;
    plan.negated = input.atom->negated;
    bool any_unbound = false;
    // Only positions whose value is known *before* this atom starts may be
    // used as index-key positions. A variable repeated within this atom is
    // bound mid-unification, so later occurrences become equality checks,
    // not key positions.
    const std::vector<bool> bound_before = bound;
    for (size_t pos = 0; pos < input.atom->terms.size(); ++pos) {
      const Term& term = input.atom->terms[pos];
      TermPlan tp;
      if (!term.is_var()) {
        tp.is_constant = true;
        tp.constant = term.constant;
        plan.bound_positions.push_back(static_cast<int>(pos));
      } else {
        tp.slot = slot_for(term.var);
        if (static_cast<size_t>(tp.slot) >= bound.size()) bound.resize(tp.slot + 1, false);
        bool was_bound_before =
            static_cast<size_t>(tp.slot) < bound_before.size() && bound_before[tp.slot];
        if (was_bound_before) {
          plan.bound_positions.push_back(static_cast<int>(pos));
        } else if (!bound[tp.slot]) {
          tp.first_occurrence = true;
          bound[tp.slot] = true;
          any_unbound = true;
        }
        // else: repeated within this atom -> equality check during unify.
      }
      plan.terms.push_back(std::move(tp));
    }
    plan.all_bound = !any_unbound;
    if (plan.negated && !plan.all_bound) {
      return Status::InvalidArgument("negated atom reached with unbound variables: " +
                                     input.atom->ToString());
    }
    atoms_.push_back(std::move(plan));
  }

  if (conditions != nullptr) {
    for (const Condition& c : *conditions) {
      ConditionPlan cp;
      cp.op = c.op;
      int max_depth = -1;
      auto plan_side = [&](const Term& t, bool* is_const, Value* value,
                           int* slot) -> Status {
        if (!t.is_var()) {
          *is_const = true;
          *value = t.constant;
          return Status::OK();
        }
        auto it = slot_of_.find(t.var);
        if (it == slot_of_.end()) {
          return Status::InvalidArgument("condition variable never bound: " + t.var);
        }
        *slot = it->second;
        return Status::OK();
      };
      DD_RETURN_IF_ERROR(plan_side(c.lhs, &cp.lhs_const, &cp.lhs_value, &cp.lhs_slot));
      DD_RETURN_IF_ERROR(plan_side(c.rhs, &cp.rhs_const, &cp.rhs_value, &cp.rhs_slot));
      // Find the first atom depth after which both sides are bound.
      std::vector<bool> seen(slot_names_.size(), false);
      for (size_t d = 0; d < atoms_.size(); ++d) {
        for (const TermPlan& tp : atoms_[d].terms) {
          if (tp.slot >= 0) seen[tp.slot] = true;
        }
        bool lhs_ok = cp.lhs_const || seen[cp.lhs_slot];
        bool rhs_ok = cp.rhs_const || seen[cp.rhs_slot];
        if (lhs_ok && rhs_ok) {
          max_depth = static_cast<int>(d);
          break;
        }
      }
      if (max_depth < 0) {
        return Status::InvalidArgument("condition never becomes bound: " + c.ToString());
      }
      int cond_id = static_cast<int>(conditions_.size());
      conditions_.push_back(cp);
      atoms_[max_depth].conditions_ready.push_back(cond_id);
    }
  }

  indexes_.resize(atoms_.size());
  return Status::OK();
}

int CompiledConjunction::SlotOf(const std::string& var) const {
  auto it = slot_of_.find(var);
  return it == slot_of_.end() ? -1 : it->second;
}

bool CompiledConjunction::CheckCondition(const ConditionPlan& c,
                                         const std::vector<Value>& slots) const {
  const Value& lhs = c.lhs_const ? c.lhs_value : slots[c.lhs_slot];
  const Value& rhs = c.rhs_const ? c.rhs_value : slots[c.rhs_slot];
  return EvalCondition(lhs, c.op, rhs);
}

const CompiledConjunction::Index& CompiledConjunction::GetIndex(size_t depth) const {
  Index& index = indexes_[depth];
  if (index.built) return index;
  const AtomPlan& plan = atoms_[depth];
  size_t own_rows = 0;
  auto add_own = [&](const RowRef& t, int64_t count) {
    if (t.size() != plan.terms.size()) return;  // arity mismatch: no match
    Tuple key;
    for (int pos : plan.bound_positions) key.Append(t.at(static_cast<size_t>(pos)));
    // The ref's storage (frozen table or delta-map key) outlives the index.
    index.map[key].emplace_back(t, count);
    ++own_rows;
  };
  const Table* table = plan.source->backing_table();
  if (index_cache_ != nullptr && table != nullptr) {
    index.shared = index_cache_->Get(table, plan.bound_positions);
    index.erased = plan.source->erased_rows();
    plan.source->ForEachInserted(add_own);
  } else {
    plan.source->ForEach(add_own);
  }
  DD_COUNTER_ADD("dd.grounding.index_rows_built", own_rows);
  index.built = true;
  return index;
}

CompiledConjunction::Matches CompiledConjunction::Lookup(size_t depth,
                                                         const Tuple& key) const {
  const Index& index = GetIndex(depth);
  Matches m;
  if (index.shared != nullptr) {
    auto it = index.shared->map.find(key);
    if (it != index.shared->map.end()) {
      m.shared = &it->second;
      m.table = index.shared->table;
      m.erased = index.erased;
    }
  }
  if (!index.map.empty()) {
    auto it = index.map.find(key);
    if (it != index.map.end()) m.own = &it->second;
  }
  return m;
}

void CompiledConjunction::TryMatches(size_t depth, const Matches& m, size_t begin,
                                     size_t end, std::vector<Value>& slots,
                                     int64_t mult, const BindingEmit& emit) const {
  const size_t shared_end = std::min(end, m.shared_size());
  for (size_t i = begin; i < shared_end; ++i) {
    const int64_t row = (*m.shared)[i];
    if (!m.table->is_live(row)) continue;
    if (m.erased != nullptr && m.erased->count(row) > 0) continue;
    TryRow(depth, m.table->ref(row), 1, slots, mult, emit);
  }
  const size_t own_end = std::min(end, m.size());
  for (size_t i = std::max(begin, m.shared_size()); i < own_end; ++i) {
    const auto& [row, count] = (*m.own)[i - m.shared_size()];
    TryRow(depth, row, count, slots, mult, emit);
  }
}

void CompiledConjunction::Run(const BindingEmit& emit) const {
  std::vector<Value> slots(slot_names_.size());
  Recurse(0, slots, 1, emit);
}

void CompiledConjunction::PrepareIndexes() const {
  for (size_t depth = 0; depth < atoms_.size(); ++depth) {
    if (!atoms_[depth].all_bound) GetIndex(depth);
  }
}

CompiledConjunction::Matches CompiledConjunction::TopLevelRows() const {
  if (atoms_.empty() || atoms_[0].all_bound) return Matches();
  const AtomPlan& plan = atoms_[0];
  // At depth 0 nothing is bound yet, so bound_positions are all constant
  // terms; the key is the same for the whole enumeration.
  Tuple key;
  for (int pos : plan.bound_positions) {
    key.Append(plan.terms[static_cast<size_t>(pos)].constant);
  }
  return Lookup(0, key);
}

size_t CompiledConjunction::TopLevelSize() const {
  if (atoms_.empty() || atoms_[0].all_bound) return 1;
  return TopLevelRows().size();
}

void CompiledConjunction::RunMorsel(size_t begin, size_t end,
                                    const BindingEmit& emit) const {
  if (begin >= end) return;
  std::vector<Value> slots(slot_names_.size());
  if (atoms_.empty() || atoms_[0].all_bound) {
    // Single indivisible unit: run fully for the morsel covering unit 0.
    if (begin == 0) Recurse(0, slots, 1, emit);
    return;
  }
  TryMatches(0, TopLevelRows(), begin, end, slots, 1, emit);
}

void CompiledConjunction::Recurse(size_t depth, std::vector<Value>& slots, int64_t mult,
                                  const BindingEmit& emit) const {
  if (depth == atoms_.size()) {
    emit(slots, mult);
    return;
  }
  const AtomPlan& plan = atoms_[depth];

  if (plan.all_bound) {
    auto conditions_hold = [&]() {
      for (int cid : plan.conditions_ready) {
        if (!CheckCondition(conditions_[cid], slots)) return false;
      }
      return true;
    };
    // Membership (or absence, for negated atoms) probe.
    Tuple probe;
    for (const TermPlan& tp : plan.terms) {
      probe.Append(tp.is_constant ? tp.constant : slots[tp.slot]);
    }
    int64_t count = plan.source->Count(probe);
    if (plan.negated) {
      if (count > 0) return;
      if (!conditions_hold()) return;
      Recurse(depth + 1, slots, mult, emit);
    } else {
      if (count == 0) return;
      if (!conditions_hold()) return;
      Recurse(depth + 1, slots, mult * count, emit);
    }
    return;
  }

  // Enumerate matching rows via the index on bound positions.
  Tuple key;
  for (int pos : plan.bound_positions) {
    const TermPlan& tp = plan.terms[static_cast<size_t>(pos)];
    key.Append(tp.is_constant ? tp.constant : slots[tp.slot]);
  }
  const Matches m = Lookup(depth, key);
  TryMatches(depth, m, 0, m.size(), slots, mult, emit);
}

void CompiledConjunction::TryRow(size_t depth, const RowRef& row, int64_t count,
                                 std::vector<Value>& slots, int64_t mult,
                                 const BindingEmit& emit) const {
  const AtomPlan& plan = atoms_[depth];
  // Unify: bind first occurrences, check repeated occurrences.
  for (size_t pos = 0; pos < plan.terms.size(); ++pos) {
    const TermPlan& tp = plan.terms[pos];
    if (tp.first_occurrence) {
      slots[tp.slot] = row.at(pos);
    } else if (!tp.is_constant) {
      // Bound earlier within this atom or before it; the index key already
      // guarantees equality for positions in bound_positions, but repeated
      // first occurrences within this atom need an explicit check.
      if (!(slots[tp.slot] == row.at(pos))) return;
    }
  }
  for (int cid : plan.conditions_ready) {
    if (!CheckCondition(conditions_[cid], slots)) return;
  }
  Recurse(depth + 1, slots, mult * count, emit);
}

double CompiledConjunction::EstimatedUnitCost() const {
  constexpr double kProbeCost = 8.0;  // index lookup + unification
  const size_t joins = atoms_.empty() ? 0 : atoms_.size() - 1;
  return 1.0 + kProbeCost * static_cast<double>(joins) +
         static_cast<double>(conditions_.size());
}

size_t EvalParallelism::MorselSizeFor(double cost_per_item) const {
  if (morsel_size != 0) return morsel_size;
  return AdaptiveMorselSize(cost_per_item);
}

Status RuleEvaluator::Compile(const ConjunctiveRule& rule, JoinIndexCache* cache,
                              CompiledRule* out) const {
  DD_RETURN_IF_ERROR(rule.Validate());
  out->rule = &rule;
  out->sources.clear();

  // Order atoms positive-first so negated atoms are fully bound.
  std::vector<const Atom*> ordered;
  for (const Atom& a : rule.body) {
    if (!a.negated) ordered.push_back(&a);
  }
  for (const Atom& a : rule.body) {
    if (a.negated) ordered.push_back(&a);
  }

  std::vector<AtomInput> inputs;
  for (const Atom* atom : ordered) {
    DD_ASSIGN_OR_RETURN(const Table* table, catalog_->GetTable(atom->relation));
    out->sources.push_back(std::make_unique<TableSource>(table));
    inputs.push_back(AtomInput{atom, out->sources.back().get()});
  }
  DD_RETURN_IF_ERROR(out->cc.Build(std::move(inputs), &rule.conditions, cache));

  // Pre-resolve head slots.
  for (const Term& t : rule.head.terms) {
    if (t.is_var() && out->cc.SlotOf(t.var) < 0) {
      return Status::InvalidArgument("head variable not bound: " + t.var);
    }
  }
  return Status::OK();
}

Status RuleEvaluator::Evaluate(const ConjunctiveRule& rule,
                               const std::function<void(const Tuple&)>& emit,
                               const EvalParallelism& par,
                               JoinIndexCache* cache) const {
  CompiledRule cr;
  DD_RETURN_IF_ERROR(Compile(rule, cache, &cr));
  const CompiledConjunction& cc = cr.cc;

  if (par.pool != nullptr) {
    cc.PrepareIndexes();
    const size_t n = cc.TopLevelSize();
    const size_t morsel_size = par.MorselSizeFor(cc.EstimatedUnitCost());
    if (NumMorsels(n, morsel_size) > 1) {
      // Workers project head tuples into per-morsel buffers; the merge
      // emits them in morsel order, reproducing the serial sequence.
      std::vector<std::vector<Tuple>> buffers(NumMorsels(n, morsel_size));
      DD_RETURN_IF_ERROR(ParallelMorsels(
          par.pool, n, morsel_size,
          [&](size_t m, size_t begin, size_t end) {
            std::vector<Tuple>& out = buffers[m];
            cc.RunMorsel(begin, end, [&](const std::vector<Value>& slots,
                                         int64_t mult) {
              (void)mult;  // set semantics over tables: always 1
              out.push_back(ProjectHead(rule.head, cc, slots));
            });
            return Status::OK();
          }));
      for (const std::vector<Tuple>& buffer : buffers) {
        for (const Tuple& t : buffer) emit(t);
      }
      return Status::OK();
    }
  }

  cc.Run([&](const std::vector<Value>& slots, int64_t mult) {
    (void)mult;  // set semantics over tables: always 1
    emit(ProjectHead(rule.head, cc, slots));
  });
  return Status::OK();
}

Tuple RuleEvaluator::ProjectHead(const Atom& head, const CompiledConjunction& cc,
                                 const std::vector<Value>& slots) {
  Tuple out;
  for (const Term& t : head.terms) {
    if (t.is_var()) {
      out.Append(slots[static_cast<size_t>(cc.SlotOf(t.var))]);
    } else {
      out.Append(t.constant);
    }
  }
  return out;
}

}  // namespace dd
