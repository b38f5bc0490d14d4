#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string_view>

#include "base/status.h"

namespace x2vec {

/// Cooperative execution budget for the library's super-polynomial and
/// long-running entry points (brute-force homomorphism counting, k-WL,
/// isomorphism search, embedding trainers). A Budget carries an optional
/// wall-clock deadline and an optional work-unit quota; guarded algorithms
/// call Spend() at each natural unit of work (a node expansion, a candidate
/// mapping, a training pair) and bail out with kResourceExhausted once the
/// budget is gone, instead of wedging the caller for minutes or hours.
///
/// A Budget is a single-use consumable: it accumulates spent work and
/// latches once exhausted. To run several operations under the same limits,
/// build a fresh Budget per operation (see BudgetSpec).
///
/// The probe is cheap by design: the unlimited case is one branch, the
/// work-quota case one add and compare, and the wall clock is consulted
/// only every kClockCheckStride work units.
class Budget {
 public:
  /// Work units between wall-clock reads; Spend() is called on hot paths.
  static constexpr int64_t kClockCheckStride = 1024;

  /// Unlimited budget (never exhausts).
  Budget() = default;

  static Budget Unlimited() { return Budget(); }

  /// Budget of `units` work units (0 is exhausted from the start).
  static Budget WorkUnits(int64_t units);

  /// Budget expiring `seconds` of wall-clock time from now.
  static Budget Deadline(double seconds);

  /// Both limits at once; whichever trips first exhausts the budget.
  static Budget DeadlineAndWorkUnits(double seconds, int64_t units);

  /// True iff this budget carries any limit at all.
  [[nodiscard]] bool limited() const { return work_limit_.has_value() || deadline_.has_value(); }

  /// Records `units` of cooperative work. Returns true while headroom
  /// remains; false once either limit is crossed. Exhaustion latches: all
  /// later calls return false.
  [[nodiscard]] bool Spend(int64_t units = 1) {
    if (!limited()) return true;
    return SpendSlow(units);
  }

  /// Probe without spending: true iff the budget is already gone. A zero
  /// work quota or an expired deadline reports exhausted before any work.
  [[nodiscard]] bool Exhausted() { return limited() && !SpendSlow(0); }

  /// Reads the wall clock at once, unlike Spend()'s strided reads: true iff
  /// the budget is exhausted or its deadline has passed.
  [[nodiscard]] bool DeadlinePassed();

  /// True iff a deadline is set and has passed. Reads only the deadline,
  /// which never changes, so pool workers may call it while the owning
  /// thread waits on them; unlike DeadlinePassed() it latches nothing.
  [[nodiscard]] bool DeadlineReached() const;

  /// Work units recorded so far.
  [[nodiscard]] int64_t work_spent() const { return work_spent_; }

  /// kResourceExhausted status naming the operation and the limit that
  /// tripped. Call only after Spend()/Exhausted() reported exhaustion.
  [[nodiscard]] Status ExhaustedError(std::string_view operation) const;

 private:
  bool SpendSlow(int64_t units);

  std::optional<int64_t> work_limit_;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  int64_t work_spent_ = 0;
  int64_t next_clock_check_ = 0;  ///< work_spent_ at which to read the clock.
  bool exhausted_ = false;
  bool deadline_tripped_ = false;  ///< Which limit latched first.
};

/// Declarative, reusable description of budget limits. Budget itself is a
/// single-use consumable; a BudgetSpec mints a fresh one per operation —
/// the shape the method-suite runners use to give every method its own
/// allowance (core::RunMethodSuite).
struct BudgetSpec {
  std::optional<int64_t> work_units;      ///< Absent = unlimited work.
  std::optional<double> deadline_seconds; ///< Absent = no deadline.

  [[nodiscard]] Budget MakeBudget() const;
};

}  // namespace x2vec
