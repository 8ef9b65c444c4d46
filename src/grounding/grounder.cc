#include "grounding/grounder.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "ddlog/parser.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/task_graph.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"
#include "util/string_util.h"

namespace dd {

namespace {

/// Infer the types of a rule's body variables from the declared schemas
/// of the positive atoms they appear in.
Status InferVarTypes(const ConjunctiveRule& rule, const DdlogProgram& program,
                     std::map<std::string, ValueType>* types) {
  for (const Atom& atom : rule.body) {
    if (atom.negated) continue;
    const RelationDecl* decl = program.FindDecl(atom.relation);
    if (decl == nullptr) {
      return Status::InvalidArgument("undeclared relation in body: " + atom.relation);
    }
    for (size_t i = 0; i < atom.terms.size() && i < decl->schema.num_columns(); ++i) {
      if (atom.terms[i].is_var()) {
        types->emplace(atom.terms[i].var, decl->schema.column(i).type);
      }
    }
  }
  return Status::OK();
}

std::string PseudoRelationName(size_t rule_index) {
  return StrFormat("__factors_%zu", rule_index);
}

// Per-row cost hints for the grounder's scans, in the same unit as
// CompiledConjunction::EstimatedUnitCost (≈ one comparison), feeding
// AdaptiveMorselSize. Constants, so the morsel decomposition stays a
// pure function of the input tables.
constexpr double kEvidenceScanCost = 16.0;   // tuple copy + hash probe
constexpr double kFactorDraftCost = 48.0;    // probes + registry lookups + key
constexpr double kFactorDraftUdfCost = 96.0; // ... plus a UDF call per row

}  // namespace

Grounder::Grounder(Catalog* catalog, const DdlogProgram* program,
                   const UdfRegistry* udfs, const GroundingOptions& options)
    : catalog_(catalog), program_(program), udfs_(udfs), options_(options) {
  if (options_.pool != nullptr) {
    num_threads_ = std::max<size_t>(1, options_.pool->num_threads());
  } else {
    num_threads_ = options_.num_threads == 0 ? HardwareThreads() : options_.num_threads;
  }
}

Grounder::~Grounder() = default;

EvalParallelism Grounder::Parallelism() {
  if (options_.pool != nullptr) {
    return EvalParallelism{options_.pool, options_.morsel_size};
  }
  // The owned pool is created on first demand so serial grounders (and
  // the num_threads=1 differential-testing oracle) never spawn workers.
  // BuildGraph resolves parallelism on the coordinating thread before
  // launching its task graph, so node bodies calling Parallelism() from
  // workers only ever read pool_, never create it.
  if (num_threads_ > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
  }
  return EvalParallelism{pool_.get(), options_.morsel_size};
}

Status Grounder::RewriteRules() {
  rewritten_rules_.clear();
  factor_rule_meta_.clear();
  for (size_t i = 0; i < program_->rules.size(); ++i) {
    const DdlogRule& rule = program_->rules[i];
    if (rule.kind == RuleKind::kDerivation) {
      rewritten_rules_.push_back(rule.rule);
      continue;
    }
    // Feature / correlation rule -> pseudo-relation derivation.
    FactorRuleMeta meta;
    meta.rule_index = i;
    meta.pseudo_relation = PseudoRelationName(i);
    meta.head_relation = rule.rule.head.relation;
    meta.head_arity = rule.rule.head.terms.size();
    meta.is_correlation = rule.kind == RuleKind::kCorrelation;

    ConjunctiveRule rewritten;
    rewritten.body = rule.rule.body;
    rewritten.conditions = rule.rule.conditions;
    rewritten.head.relation = meta.pseudo_relation;
    rewritten.head.terms = rule.rule.head.terms;
    if (meta.is_correlation) {
      meta.implied_relation = rule.implied_head.relation;
      meta.implied_arity = rule.implied_head.terms.size();
      for (const Term& t : rule.implied_head.terms) {
        rewritten.head.terms.push_back(t);
      }
    }
    meta.weight_args_begin = rewritten.head.terms.size();
    if (rule.weight.has_value()) {
      meta.num_weight_args = rule.weight->args.size();
      for (const std::string& arg : rule.weight->args) {
        rewritten.head.terms.push_back(Term::Var(arg));
      }
    }
    factor_rule_meta_.push_back(std::move(meta));
    rewritten_rules_.push_back(std::move(rewritten));
  }
  return Status::OK();
}

Status Grounder::CreateDerivedTables() {
  // Declared relations: create empty tables for any that are missing
  // (base tables are expected to be pre-populated by the caller, but a
  // missing empty one is not an error).
  for (const RelationDecl& decl : program_->declarations) {
    if (!catalog_->HasTable(decl.name)) {
      DD_RETURN_IF_ERROR(catalog_->CreateTable(decl.name, decl.schema).status());
    } else {
      // Schema must match.
      DD_ASSIGN_OR_RETURN(Table * existing, catalog_->GetTable(decl.name));
      if (!(existing->schema() == decl.schema)) {
        return Status::TypeError("table " + decl.name + " exists with schema " +
                                 existing->schema().ToString() + " but is declared " +
                                 decl.schema.ToString());
      }
    }
  }
  // Pseudo factor tables: schema from head terms of the original rule.
  for (const FactorRuleMeta& meta : factor_rule_meta_) {
    const DdlogRule& rule = program_->rules[meta.rule_index];
    std::map<std::string, ValueType> var_types;
    DD_RETURN_IF_ERROR(InferVarTypes(rule.rule, *program_, &var_types));

    std::vector<Column> columns;
    auto append_terms = [&](const Atom& atom, const std::string& decl_name,
                            const char* prefix) -> Status {
      const RelationDecl* decl = program_->FindDecl(decl_name);
      if (decl == nullptr) {
        return Status::InvalidArgument("undeclared relation: " + decl_name);
      }
      for (size_t i = 0; i < atom.terms.size(); ++i) {
        columns.push_back(
            Column{StrFormat("%s%zu", prefix, i), decl->schema.column(i).type});
      }
      return Status::OK();
    };
    DD_RETURN_IF_ERROR(append_terms(rule.rule.head, meta.head_relation, "h"));
    if (meta.is_correlation) {
      DD_RETURN_IF_ERROR(append_terms(rule.implied_head, meta.implied_relation, "g"));
    }
    if (rule.weight.has_value()) {
      for (size_t a = 0; a < rule.weight->args.size(); ++a) {
        auto it = var_types.find(rule.weight->args[a]);
        if (it == var_types.end()) {
          return Status::InvalidArgument("cannot infer type of weight argument " +
                                         rule.weight->args[a]);
        }
        columns.push_back(Column{StrFormat("w%zu", a), it->second});
      }
    }
    if (catalog_->HasTable(meta.pseudo_relation)) {
      DD_RETURN_IF_ERROR(catalog_->DropTable(meta.pseudo_relation));
    }
    DD_RETURN_IF_ERROR(
        catalog_->CreateTable(meta.pseudo_relation, Schema(std::move(columns)))
            .status());
  }
  return Status::OK();
}

Status Grounder::ClearDerivedTables() {
  // Query rows are renumbered by the clear: keep each registered tuple
  // with its var id, so variable ids keep their meaning across a full
  // re-evaluation just as they do across DRed rounds.
  for (QueryRelation& q : query_relations_) {
    DD_ASSIGN_OR_RETURN(const Table* table, catalog_->GetTable(q.name));
    for (size_t row = 0; row < q.row_var.size(); ++row) {
      if (q.row_var[row] == kNoVar) continue;
      q.carried.emplace_back(table->row(static_cast<int64_t>(row)), q.row_var[row]);
    }
    q.row_var.clear();
    q.rows_seen = 0;
  }
  std::set<std::string> derived;
  for (const ConjunctiveRule& rule : rewritten_rules_) derived.insert(rule.head.relation);
  for (const std::string& rel : derived) {
    DD_ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(rel));
    table->Clear();
  }
  // Row ids die with the rows: drop every cache keyed by them. Tying keys
  // (and the learned values kept with them) do not depend on rows.
  for (FactorRuleMeta& meta : factor_rule_meta_) {
    meta.drafts.clear();
    meta.unresolved.clear();
  }
  for (QueryRelation& q : query_relations_) {
    q.evidence.clear();
    q.orphans.clear();
  }
  return Status::OK();
}

Status Grounder::Initialize() {
  DD_RETURN_IF_ERROR(AnalyzeProgram(*program_));
  // Fail fast on unregistered weight UDFs instead of during grounding.
  for (const DdlogRule& rule : program_->rules) {
    if (rule.weight.has_value() && rule.weight->kind == WeightSpec::Kind::kUdf &&
        !udfs_->Has(rule.weight->udf_name)) {
      return Status::NotFound("weight UDF not registered: " + rule.weight->udf_name);
    }
  }
  DD_RETURN_IF_ERROR(RewriteRules());
  query_relations_.clear();
  for (const RelationDecl& decl : program_->declarations) {
    if (!decl.is_query) continue;
    query_relations_.emplace_back();
    query_relations_.back().name = decl.name;
  }
  DD_RETURN_IF_ERROR(CreateDerivedTables());
  DD_RETURN_IF_ERROR(ClearDerivedTables());

  // The incremental-vs-full path choice is made up front from the
  // program's stratification, so the recursive path can schedule stratum
  // evaluation and graph assembly in one task graph. IncrementalEngine
  // rejects exactly the recursive programs and both paths surface the
  // same validation/stratification errors, so behavior matches the old
  // try-incremental-then-fall-back flow.
  for (const ConjunctiveRule& rule : rewritten_rules_) {
    DD_RETURN_IF_ERROR(rule.Validate());
  }
  DD_ASSIGN_OR_RETURN(Stratification strat, Stratify(rewritten_rules_));
  initialized_ = true;

  if (!strat.has_recursion) {
    Stopwatch eval_watch;
    {
      DD_TRACE_SPAN("grounding.eval");
      incremental_ = std::make_unique<IncrementalEngine>(catalog_, rewritten_rules_,
                                                         Parallelism());
      DD_RETURN_IF_ERROR(incremental_->Initialize());
      use_incremental_ = true;
    }
    double eval_seconds = eval_watch.Seconds();
    DD_RETURN_IF_ERROR(BuildGraph(nullptr, nullptr));
    stats_.eval_seconds = eval_seconds;
  } else {
    // Recursive program: full semi-naive evaluation, no DRed. Stratum
    // nodes join BuildGraph's task graph (which also sets eval_seconds
    // from their measured node times).
    use_incremental_ = false;
    incremental_.reset();
    DD_RETURN_IF_ERROR(BuildGraph(&strat, nullptr));
  }
  // The initial grounding marks every variable as changed.
  changed_vars_.clear();
  for (uint32_t v = 0; v < var_info_.size(); ++v) changed_vars_.push_back(v);
  return Status::OK();
}

Status Grounder::ApplyDeltas(const std::map<std::string, DeltaSet>& base_deltas) {
  if (!initialized_) return Status::Internal("Grounder not initialized");
  if (!use_incremental_) {
    return Status::Unimplemented(
        "program is recursive; incremental grounding unavailable — use Reground()");
  }
  Stopwatch eval_watch;
  std::map<std::string, DeltaSet> all_deltas;
  {
    DD_TRACE_SPAN("grounding.eval");
    DD_ASSIGN_OR_RETURN(all_deltas, incremental_->ApplyDeltas(base_deltas));
  }
  double eval_seconds = eval_watch.Seconds();
  DD_RETURN_IF_ERROR(BuildGraph(nullptr, &all_deltas));
  stats_.eval_seconds = eval_seconds;
  DD_TRACE_SPAN("grounding.collect_changed");
  return CollectChangedVars(all_deltas);
}

Status Grounder::Reground() {
  if (!initialized_) return Status::Internal("Grounder not initialized");
  DD_RETURN_IF_ERROR(ClearDerivedTables());
  if (use_incremental_) {
    Stopwatch eval_watch;
    {
      DD_TRACE_SPAN("grounding.eval");
      incremental_ = std::make_unique<IncrementalEngine>(catalog_, rewritten_rules_,
                                                         Parallelism());
      DD_RETURN_IF_ERROR(incremental_->Initialize());
    }
    double eval_seconds = eval_watch.Seconds();
    DD_RETURN_IF_ERROR(BuildGraph(nullptr, nullptr));
    stats_.eval_seconds = eval_seconds;
  } else {
    DD_ASSIGN_OR_RETURN(Stratification strat, Stratify(rewritten_rules_));
    DD_RETURN_IF_ERROR(BuildGraph(&strat, nullptr));
  }
  changed_vars_.clear();
  for (uint32_t v = 0; v < var_info_.size(); ++v) changed_vars_.push_back(v);
  return Status::OK();
}

Status Grounder::BuildGraph(const Stratification* eval_strat,
                            const std::map<std::string, DeltaSet>* deltas) {
  stats_ = GroundingStats();
  // Resolve parallelism (creating the owned pool if needed) before any
  // node can run — see the note in Parallelism().
  const EvalParallelism par = Parallelism();

  TaskGraph tg;
  tg.set_trace_root(TraceSpan::CurrentPath());

  // Recursive programs evaluate their strata inside this same graph, so
  // factor drafting for stratum k's pseudo-relations overlaps with the
  // evaluation of strata it does not depend on. The engine and strat
  // must outlive tg.Run() — both live on this frame / in the caller.
  DatalogEngine engine(catalog_, par);
  std::vector<TaskGraph::NodeId> stratum_nodes;
  std::map<std::string, TaskGraph::NodeId> producer;  // derived rel -> eval node
  if (eval_strat != nullptr) {
    DD_RETURN_IF_ERROR(
        engine.Schedule(rewritten_rules_, *eval_strat, &tg, &stratum_nodes));
    for (size_t s = 0; s < eval_strat->strata.size(); ++s) {
      for (const std::string& rel : eval_strat->strata[s]) {
        producer[rel] = stratum_nodes[s];
      }
    }
  }

  // Shared node state lives on this stack frame; tg.Run() is synchronous,
  // so it outlives every node. Each draft node writes only its own slot.
  std::vector<int8_t> evidence;   // -1 none, 0/1 label
  std::vector<uint8_t> conflict;
  size_t orphans = 0;

  // Registry extension must see final query tables; evidence and draft
  // scans read the registry (and query tables transitively through it).
  const TaskGraph::NodeId reg = tg.AddNode(
      "build.registry", [this, deltas]() { return ExtendVarRegistry(deltas); });
  for (const RelationDecl& decl : program_->declarations) {
    if (!decl.is_query) continue;
    auto it = producer.find(decl.name);
    if (it != producer.end()) tg.AddEdge(it->second, reg);
  }

  const TaskGraph::NodeId ev =
      tg.AddNode("build.evidence", [this, &evidence, &conflict, &orphans]() {
        evidence.assign(var_info_.size(), -1);
        conflict.assign(var_info_.size(), 0);
        return ApplyEvidence(&evidence, &conflict, &orphans);
      });
  tg.AddEdge(reg, ev);

  // Each draft node writes only its own rule's cache.
  std::vector<TaskGraph::NodeId> draft_nodes;
  for (size_t i = 0; i < factor_rule_meta_.size(); ++i) {
    const TaskGraph::NodeId node =
        tg.AddNode("build.factors." + factor_rule_meta_[i].pseudo_relation,
                   [this, i]() { return DraftFactors(i); });
    tg.AddEdge(reg, node);
    auto it = producer.find(factor_rule_meta_[i].pseudo_relation);
    if (it != producer.end()) tg.AddEdge(it->second, node);
    draft_nodes.push_back(node);
  }

  const TaskGraph::NodeId assemble = tg.AddNode(
      "build.assemble",
      [this, &evidence, &conflict, &orphans](TraceSpan* span) {
        return AssembleGraph(evidence, conflict, orphans, span);
      });
  tg.AddEdge(ev, assemble);
  for (TaskGraph::NodeId n : draft_nodes) tg.AddEdge(n, assemble);

  DD_RETURN_IF_ERROR(tg.Run(par.pool));

  // Attribute time per node so eval-vs-build stays exact even when the
  // schedule interleaves them.
  stats_.eval_seconds = 0;
  for (TaskGraph::NodeId n : stratum_nodes) stats_.eval_seconds += tg.NodeSeconds(n);
  stats_.build_seconds =
      tg.NodeSeconds(reg) + tg.NodeSeconds(ev) + tg.NodeSeconds(assemble);
  for (TaskGraph::NodeId n : draft_nodes) stats_.build_seconds += tg.NodeSeconds(n);

  // Per-pass grounding throughput: tuples (live query variables) and
  // factors this (re-)grounding produced.
  size_t tuples_grounded = 0;
  for (const VarInfo& info : var_info_) {
    if (info.live) ++tuples_grounded;
  }
  DD_COUNTER_ADD("dd.grounding.tuples_grounded", tuples_grounded);
  DD_COUNTER_ADD("dd.grounding.factors_emitted", graph_.num_factors());
  return Status::OK();
}

Status Grounder::ExtendVarRegistry(const std::map<std::string, DeltaSet>* deltas) {
  // Extend the variable registry with new live query tuples; mark
  // registry entries for vanished tuples as dead. Declaration order and
  // row order make the id assignment deterministic. A full pass visits
  // every row; a round visits only the rows appended since the last pass
  // and the rows whose liveness its delta flipped, in ascending row id —
  // the only rows whose registry state can have changed.
  for (QueryRelation& q : query_relations_) {
    DD_ASSIGN_OR_RETURN(const Table* table, catalog_->GetTable(q.name));
    const size_t cap = table->capacity();
    size_t first = 0;
    std::vector<int64_t> flipped;
    if (deltas != nullptr) {
      first = std::min(q.rows_seen, cap);
      auto it = deltas->find(q.name);
      if (it != deltas->end()) {
        for (const auto& [tuple, count] : it->second) {
          (void)count;
          const int64_t row = table->FindIncludingDeleted(tuple);
          if (row >= 0 && static_cast<size_t>(row) < first) flipped.push_back(row);
        }
        std::sort(flipped.begin(), flipped.end());
      }
    }
    if (q.row_var.size() < cap) q.row_var.resize(cap, kNoVar);
    for (const auto& [tuple, var] : q.carried) {
      const int64_t row = table->Find(tuple);
      if (row < 0) {
        var_info_[var].live = false;
        continue;
      }
      q.row_var[static_cast<size_t>(row)] = var;
      var_info_[var].row_id = row;
    }
    q.carried.clear();
    auto visit = [&](int64_t row) {
      uint32_t& var = q.row_var[static_cast<size_t>(row)];
      if (!table->is_live(row)) {
        if (var != kNoVar) var_info_[var].live = false;
        return;
      }
      if (var == kNoVar) {
        var = static_cast<uint32_t>(var_info_.size());
        var_info_.push_back(VarInfo{q.name, row, true});
        held_out_.push_back(0);
      } else {
        var_info_[var].live = true;
      }
      // Deterministic per-tuple coin, so membership survives rebuilds.
      held_out_[var] =
          options_.holdout_fraction > 0.0 &&
          HashCombine(table->RowHash(row), options_.holdout_seed) % 10000 <
              static_cast<uint64_t>(options_.holdout_fraction * 10000);
    };
    for (int64_t row : flipped) visit(row);
    for (size_t row = first; row < cap; ++row) visit(static_cast<int64_t>(row));
    q.rows_seen = cap;
  }
  return Status::OK();
}

Status Grounder::ApplyEvidence(std::vector<int8_t>* evidence,
                               std::vector<uint8_t>* conflict, size_t* orphans) {
  const EvalParallelism par = Parallelism();
  const size_t morsel_size = par.MorselSizeFor(kEvidenceScanCost);
  for (QueryRelation& q : query_relations_) {
    const std::string ev_name = q.name + "_Ev";
    if (!catalog_->HasTable(ev_name)) continue;
    DD_ASSIGN_OR_RETURN(const Table* ev_table, catalog_->GetTable(ev_name));
    DD_ASSIGN_OR_RETURN(const Table* q_table, catalog_->GetTable(q.name));
    const size_t n = q_table->schema().num_columns();
    const size_t cap = ev_table->capacity();

    // Resolve an _Ev row once: the query row its tuple names (kept when
    // tombstoned, since row ids are stable) and its label.
    auto resolve = [&](int64_t row) {
      EvidenceRow& out = q.evidence[static_cast<size_t>(row)];
      // Zero-copy read of the frozen column arrays.
      RowRef ev = ev_table->ref(row);
      if (ev.size() != n + 1 || ev.at(n).type() != ValueType::kBool) return;
      Tuple target;
      for (size_t i = 0; i < n; ++i) target.Append(ev.at(i));
      out.target_row = q_table->FindIncludingDeleted(target);
      out.label = static_cast<int8_t>(ev.at(n).AsBool() ? 1 : 0);
    };
    // Rows appended since the last round resolve morsel-parallel (each
    // morsel writes only its own slots); orphans retry on this thread.
    const size_t begin = q.evidence.size();
    q.evidence.resize(cap);
    DD_RETURN_IF_ERROR(ParallelMorsels(
        par.pool, cap - begin, morsel_size,
        [&](size_t, size_t b, size_t e) -> Status {
          Stopwatch watch;
          for (size_t i = b; i < e; ++i) resolve(static_cast<int64_t>(begin + i));
          DD_HISTOGRAM_OBSERVE("dd.grounding.morsel_seconds", watch.Seconds());
          return Status::OK();
        }));
    std::vector<int64_t> retry;
    retry.swap(q.orphans);
    for (int64_t row : retry) resolve(row);
    for (int64_t row : retry) {
      if (q.evidence[static_cast<size_t>(row)].target_row < 0) q.orphans.push_back(row);
    }
    for (size_t row = begin; row < cap; ++row) {
      const EvidenceRow& e = q.evidence[row];
      if (e.label >= 0 && e.target_row < 0) q.orphans.push_back(static_cast<int64_t>(row));
    }

    // The first-label-wins / conflict merge is order-sensitive, so it
    // replays every live row in row order — the result is the serial
    // scan's at any thread count.
    for (size_t row = 0; row < cap; ++row) {
      if (!ev_table->is_live(static_cast<int64_t>(row))) continue;
      const EvidenceRow& e = q.evidence[row];
      if (e.label < 0) continue;
      if (e.target_row < 0 || !q_table->is_live(e.target_row)) {
        ++*orphans;
        continue;
      }
      const uint32_t var = q.row_var[static_cast<size_t>(e.target_row)];
      if (var == kNoVar) continue;
      if ((*evidence)[var] >= 0 && (*evidence)[var] != e.label) {
        (*conflict)[var] = 1;
      } else {
        (*evidence)[var] = e.label;
      }
    }
  }
  return Status::OK();
}

Status Grounder::DraftFactors(size_t i) {
  FactorRuleMeta& meta = factor_rule_meta_[i];
  const EvalParallelism par = Parallelism();
  const DdlogRule& rule = program_->rules[meta.rule_index];
  DD_ASSIGN_OR_RETURN(const Table* pseudo, catalog_->GetTable(meta.pseudo_relation));
  DD_ASSIGN_OR_RETURN(const Table* head_table,
                      catalog_->GetTable(meta.head_relation));
  const Table* implied_table = nullptr;
  if (meta.is_correlation) {
    DD_ASSIGN_OR_RETURN(implied_table, catalog_->GetTable(meta.implied_relation));
  }
  const QueryRelation* head_q = FindQueryRelation(meta.head_relation);
  const QueryRelation* implied_q =
      meta.is_correlation ? FindQueryRelation(meta.implied_relation) : nullptr;

  // The tying key is per row for UDF and variable weights, per rule
  // otherwise.
  const bool has_udf_weight = rule.weight.has_value() &&
                              rule.weight->kind == WeightSpec::Kind::kUdf;
  const bool per_row_key =
      has_udf_weight || (rule.weight.has_value() &&
                         rule.weight->kind == WeightSpec::Kind::kVariables);
  double init = 0.0;
  bool fixed = false;
  std::string rule_key = StrFormat("rule%zu", meta.rule_index);
  if (rule.weight.has_value() && rule.weight->kind == WeightSpec::Kind::kFixed) {
    rule_key += ":fixed";
    init = rule.weight->fixed_value;
    fixed = true;
  }

  // Resolve a tuple's variable. Rows are looked up including tombstones
  // (row ids are stable); kNoVar means no row yet, or one never live at
  // a registry pass — both retried next round. Worker code reports a
  // registry miss for a live row as a Status, never throws.
  auto resolve_var = [](const Table* table, const QueryRelation* q, const Tuple& tuple,
                        const char* what, const std::string& relation,
                        uint32_t* var) -> Status {
    *var = kNoVar;
    const int64_t row = table->FindIncludingDeleted(tuple);
    if (row < 0) return Status::OK();
    if (q != nullptr && static_cast<size_t>(row) < q->row_var.size()) {
      *var = q->row_var[static_cast<size_t>(row)];
    }
    if (*var == kNoVar && table->is_live(row)) {
      return Status::Internal(std::string(what) + " missing from variable registry: " +
                              relation);
    }
    return Status::OK();
  };
  // Draft one row: variables, then (once resolved) the per-row key text,
  // including the UDF call — the expensive part.
  auto draft_row = [&](int64_t row, FactorDraft* draft, std::string* key) -> Status {
    *draft = FactorDraft();
    // Zero-copy read of the frozen column arrays.
    RowRef grounding = pseudo->ref(row);
    Tuple head_tuple;
    for (size_t a = 0; a < meta.head_arity; ++a) head_tuple.Append(grounding.at(a));
    uint32_t head_var = kNoVar;
    DD_RETURN_IF_ERROR(resolve_var(head_table, head_q, head_tuple, "factor head",
                                   meta.head_relation, &head_var));
    if (head_var == kNoVar) return Status::OK();
    if (meta.is_correlation) {
      Tuple implied_tuple;
      for (size_t a = 0; a < meta.implied_arity; ++a) {
        implied_tuple.Append(grounding.at(meta.head_arity + a));
      }
      DD_RETURN_IF_ERROR(resolve_var(implied_table, implied_q, implied_tuple,
                                     "implied head", meta.implied_relation,
                                     &draft->implied_var));
      if (draft->implied_var == kNoVar) return Status::OK();
    }
    draft->head_var = head_var;
    if (!per_row_key) return Status::OK();
    if (has_udf_weight) {
      std::vector<Value> args;
      for (size_t a = 0; a < meta.num_weight_args; ++a) {
        args.push_back(grounding.at(meta.weight_args_begin + a));
      }
      DD_ASSIGN_OR_RETURN(Value feature, udfs_->Call(rule.weight->udf_name, args));
      *key = StrFormat("rule%zu:%s=%s", meta.rule_index, rule.weight->udf_name.c_str(),
                       feature.ToString().c_str());
    } else {
      *key = StrFormat("rule%zu:", meta.rule_index);
      for (size_t a = 0; a < meta.num_weight_args; ++a) {
        if (a > 0) *key += '|';
        *key += grounding.at(meta.weight_args_begin + a).ToString();
      }
    }
    return Status::OK();
  };
  auto intern = [&](std::string text) -> uint32_t {
    auto [it, inserted] =
        meta.key_ids.emplace(std::move(text), static_cast<uint32_t>(meta.keys.size()));
    if (inserted) {
      TyingKey& key = meta.keys.emplace_back();
      key.text = it->first;
      key.init = init;
      key.fixed = fixed;
    }
    return it->second;
  };
  const uint32_t rule_key_id = per_row_key ? 0 : intern(rule_key);
  // A drafted row joins the cache, or the retry list while unresolved.
  auto settle = [&](int64_t row, std::string* key) {
    FactorDraft& draft = meta.drafts[static_cast<size_t>(row)];
    if (draft.head_var == kNoVar) {
      meta.unresolved.push_back(row);
      return;
    }
    draft.key = per_row_key ? intern(std::move(*key)) : rule_key_id;
  };

  // Workers draft the rows appended since the last round into their own
  // slots; interning runs on this thread. Key ids are private to the
  // cache — weight ids are assigned at assembly in (rule, row) order —
  // so nothing here depends on the thread count.
  const size_t begin = meta.drafts.size();
  const size_t cap = pseudo->capacity();
  const size_t morsel_size =
      par.MorselSizeFor(has_udf_weight ? kFactorDraftUdfCost : kFactorDraftCost);
  meta.drafts.resize(cap);
  std::vector<std::string> keys(per_row_key ? cap - begin : 0);
  Status status = ParallelMorsels(
      par.pool, cap - begin, morsel_size,
      [&](size_t, size_t b, size_t e) -> Status {
        Stopwatch watch;
        std::string unused;
        for (size_t r = b; r < e; ++r) {
          DD_RETURN_IF_ERROR(draft_row(static_cast<int64_t>(begin + r),
                                       &meta.drafts[begin + r],
                                       per_row_key ? &keys[r] : &unused));
        }
        DD_HISTOGRAM_OBSERVE("dd.grounding.morsel_seconds", watch.Seconds());
        return Status::OK();
      });
  // A failed draft (a UDF error) leaves the cache as it was, so the next
  // round drafts the same rows again.
  std::vector<int64_t> retry;
  if (status.ok()) retry.swap(meta.unresolved);
  for (size_t k = 0; status.ok() && k < retry.size(); ++k) {
    std::string key;
    status = draft_row(retry[k], &meta.drafts[static_cast<size_t>(retry[k])], &key);
    if (status.ok()) {
      settle(retry[k], &key);
    } else {
      meta.unresolved.insert(meta.unresolved.end(), retry.begin() + k, retry.end());
    }
  }
  if (!status.ok()) {
    meta.drafts.resize(begin);
    return status;
  }
  std::string unused;
  for (size_t r = begin; r < cap; ++r) {
    settle(static_cast<int64_t>(r), per_row_key ? &keys[r - begin] : &unused);
  }
  DD_COUNTER_ADD("dd.grounding.drafts_built", cap - begin + retry.size());
  return Status::OK();
}

Status Grounder::AssembleGraph(const std::vector<int8_t>& evidence,
                               const std::vector<uint8_t>& conflict, size_t orphans,
                               TraceSpan* span) {
  graph_ = FactorGraph();
  weight_keys_.clear();
  holdout_.clear();
  stats_.num_orphan_evidence = orphans;

  for (size_t v = 0; v < var_info_.size(); ++v) {
    if (!var_info_[v].live) {
      // Inert placeholder: clamped false, never touched by factors.
      graph_.AddVariable(true, false);
      continue;
    }
    if (conflict[v]) {
      ++stats_.num_conflicting_labels;
      graph_.AddVariable(false, false);  // conflicting labels -> unlabeled
      continue;
    }
    if (evidence[v] >= 0) {
      if (held_out_[v]) {
        ++stats_.num_holdout;
        holdout_.emplace_back(static_cast<uint32_t>(v), evidence[v] == 1);
        graph_.AddVariable(false, false);  // labeled but not clamped
      } else {
        ++stats_.num_evidence;
        graph_.AddVariable(true, evidence[v] == 1);
      }
    } else {
      graph_.AddVariable(false, false);
    }
  }

  // Emit a factor for every live pseudo row whose variables are live, in
  // (rule, row) order — the serial emission sequence, so weight and
  // factor ids are byte-identical to the single-threaded build. A weight
  // id is assigned at its key's first use.
  constexpr uint32_t kNoWeight = 0xffffffffu;
  std::vector<uint32_t> weight_of;  // key id -> weight id, per rule
  for (size_t i = 0; i < factor_rule_meta_.size(); ++i) {
    const FactorRuleMeta& meta = factor_rule_meta_[i];
    DD_ASSIGN_OR_RETURN(const Table* pseudo, catalog_->GetTable(meta.pseudo_relation));
    weight_of.assign(meta.keys.size(), kNoWeight);
    for (size_t row = 0; row < meta.drafts.size(); ++row) {
      if (!pseudo->is_live(static_cast<int64_t>(row))) continue;
      const FactorDraft& draft = meta.drafts[row];
      if (draft.head_var == kNoVar || !var_info_[draft.head_var].live) continue;
      if (meta.is_correlation && !var_info_[draft.implied_var].live) continue;
      uint32_t& weight = weight_of[draft.key];
      if (weight == kNoWeight) {
        const TyingKey& key = meta.keys[draft.key];
        const double value = !key.fixed && key.saved ? key.saved_value : key.init;
        weight = graph_.AddWeight(value, key.fixed, key.text);
        weight_keys_.emplace_back(static_cast<uint32_t>(i), draft.key);
      }
      if (meta.is_correlation) {
        DD_RETURN_IF_ERROR(graph_.AddFactor(
            FactorFunc::kImply, weight,
            {{draft.head_var, true}, {draft.implied_var, true}}));
      } else {
        DD_RETURN_IF_ERROR(
            graph_.AddFactor(FactorFunc::kIsTrue, weight, {{draft.head_var, true}}));
      }
    }
  }

  DD_RETURN_IF_ERROR(graph_.Finalize());
  weight_observations_.assign(graph_.num_weights(), 0);
  for (uint32_t f = 0; f < graph_.num_factors(); ++f) {
    weight_observations_[graph_.factor_weight(f)]++;
  }
  stats_.num_variables = graph_.num_variables();
  stats_.num_factors = graph_.num_factors();
  stats_.num_weights = graph_.num_weights();
  if (span != nullptr) {
    size_t tuples_grounded = 0;
    for (const VarInfo& info : var_info_) {
      if (info.live) ++tuples_grounded;
    }
    span->Attr("tuples_grounded", static_cast<double>(tuples_grounded));
    span->Attr("factors_emitted", static_cast<double>(graph_.num_factors()));
    span->Attr("num_threads", static_cast<double>(num_threads_));
  }
  return Status::OK();
}

Status Grounder::CollectChangedVars(const std::map<std::string, DeltaSet>& deltas) {
  std::unordered_set<uint32_t> changed;
  auto add_var_for = [&](const std::string& relation, const Tuple& tuple,
                         size_t arity_limit) {
    // Look up by the tuple prefix of the query relation's arity.
    auto table = catalog_->GetTable(relation);
    if (!table.ok()) return;
    Tuple prefix;
    for (size_t i = 0; i < arity_limit && i < tuple.size(); ++i) {
      prefix.Append(tuple.at(i));
    }
    // Deleted tuples keep their (tombstoned) row id, so their now-inert
    // variable is still reported as changed.
    int64_t row = (*table)->FindIncludingDeleted(prefix);
    if (row < 0) return;
    const uint32_t var = VarOf(relation, row);
    if (var != kNoVar) changed.insert(var);
  };

  for (const auto& [relation, delta] : deltas) {
    // Query relation deltas: tuples appearing/disappearing.
    const RelationDecl* decl = program_->FindDecl(relation);
    if (decl != nullptr && decl->is_query) {
      for (const auto& [tuple, count] : delta) {
        (void)count;
        add_var_for(relation, tuple, decl->schema.num_columns());
      }
      continue;
    }
    // Evidence deltas.
    if (decl != nullptr && EndsWith(relation, "_Ev")) {
      std::string target = relation.substr(0, relation.size() - 3);
      const RelationDecl* target_decl = program_->FindDecl(target);
      if (target_decl != nullptr) {
        for (const auto& [tuple, count] : delta) {
          (void)count;
          add_var_for(target, tuple, target_decl->schema.num_columns());
        }
      }
      continue;
    }
    // Pseudo factor-table deltas: head (and implied head) variables.
    for (const FactorRuleMeta& meta : factor_rule_meta_) {
      if (relation != meta.pseudo_relation) continue;
      for (const auto& [tuple, count] : delta) {
        (void)count;
        add_var_for(meta.head_relation, tuple, meta.head_arity);
        if (meta.is_correlation) {
          Tuple implied;
          for (size_t i = 0; i < meta.implied_arity && meta.head_arity + i < tuple.size();
               ++i) {
            implied.Append(tuple.at(meta.head_arity + i));
          }
          int64_t row = -1;
          auto table = catalog_->GetTable(meta.implied_relation);
          if (table.ok()) row = (*table)->Find(implied);
          if (row >= 0) {
            const uint32_t var = VarOf(meta.implied_relation, row);
            if (var != kNoVar) changed.insert(var);
          }
        }
      }
    }
  }
  changed_vars_.assign(changed.begin(), changed.end());
  std::sort(changed_vars_.begin(), changed_vars_.end());
  return Status::OK();
}

const Grounder::QueryRelation* Grounder::FindQueryRelation(
    const std::string& name) const {
  for (const QueryRelation& q : query_relations_) {
    if (q.name == name) return &q;
  }
  return nullptr;
}

uint32_t Grounder::VarOf(const std::string& relation, int64_t row) const {
  const QueryRelation* q = FindQueryRelation(relation);
  if (q == nullptr || static_cast<size_t>(row) >= q->row_var.size()) return kNoVar;
  return q->row_var[static_cast<size_t>(row)];
}

int64_t Grounder::VarIdFor(const std::string& relation, const Tuple& tuple) const {
  auto table = catalog_->GetTable(relation);
  if (!table.ok()) return -1;
  int64_t row = (*table)->Find(tuple);
  if (row < 0) return -1;
  const uint32_t var = VarOf(relation, row);
  return var == kNoVar ? -1 : static_cast<int64_t>(var);
}

void Grounder::SaveWeights() {
  for (uint32_t w = 0; w < graph_.num_weights(); ++w) {
    if (graph_.weight(w).is_fixed) continue;
    const auto [rule, key] = weight_keys_[w];
    TyingKey& tying = factor_rule_meta_[rule].keys[key];
    tying.saved = true;
    tying.saved_value = graph_.weight(w).value;
  }
}

const std::string& Grounder::WeightKey(uint32_t weight_id) const {
  const auto [rule, key] = weight_keys_[weight_id];
  return factor_rule_meta_[rule].keys[key].text;
}

}  // namespace dd
