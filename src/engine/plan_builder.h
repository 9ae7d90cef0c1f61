#ifndef RODB_ENGINE_PLAN_BUILDER_H_
#define RODB_ENGINE_PLAN_BUILDER_H_

#include <memory>
#include <vector>

#include "engine/aggregate.h"
#include "engine/exec_stats.h"
#include "engine/operator.h"
#include "engine/scan_spec.h"
#include "engine/sort.h"
#include "io/io.h"
#include "storage/catalog.h"

namespace rodb {

/// Fluent construction of the precompiled query plans the engine executes
/// (the paper uses precompiled plans instead of a parser/optimizer;
/// Section 2.2.3). Errors are captured and surfaced by Build():
///
///   auto plan = PlanBuilder::Scan(&table, spec, &backend, &stats)
///                   .Filter({Predicate::Int32(1, CompareOp::kLt, 10)})
///                   .Project({0})
///                   .HashAggregate(agg_plan)
///                   .Build();
///
/// Scan() dispatches on the table's physical layout, so the same plan
/// text runs against row, column or PAX storage.
class PlanBuilder {
 public:
  /// Leaf: a table scan matching the table's layout.
  static PlanBuilder Scan(const OpenTable* table, ScanSpec spec,
                          IoBackend* backend, ExecStats* stats);
  /// Leaf from an existing operator (e.g. a scanner opened elsewhere).
  static PlanBuilder From(OperatorPtr op, ExecStats* stats);
  /// Binary: merge join of two built plans on int32 block columns.
  static PlanBuilder MergeJoin(PlanBuilder left, PlanBuilder right,
                               int left_column, int right_column);

  /// Block-level filter (predicate indices refer to the child's layout).
  PlanBuilder&& Filter(std::vector<Predicate> predicates) &&;
  /// Keep/reorder block columns.
  PlanBuilder&& Project(std::vector<int> columns) &&;
  PlanBuilder&& HashAggregate(AggPlan plan) &&;
  PlanBuilder&& SortAggregate(AggPlan plan) &&;
  /// ORDER BY one int32 block column.
  PlanBuilder&& OrderBy(int column,
                        SortOrder order = SortOrder::kAscending) &&;
  /// ORDER BY ... LIMIT n with a bounded heap.
  PlanBuilder&& TopN(int column, SortOrder order, uint32_t limit) &&;

  /// Returns the assembled plan, or the first error encountered.
  Result<OperatorPtr> Build() &&;

 private:
  PlanBuilder() = default;

  OperatorPtr op_;
  ExecStats* stats_ = nullptr;
  Status status_;
};

}  // namespace rodb

#endif  // RODB_ENGINE_PLAN_BUILDER_H_
