#include "base/budget.h"

#include <string>

namespace x2vec {

Budget Budget::WorkUnits(int64_t units) {
  X2VEC_CHECK_GE(units, 0);
  Budget budget;
  budget.work_limit_ = units;
  return budget;
}

Budget Budget::Deadline(double seconds) {
  X2VEC_CHECK_GE(seconds, 0.0);
  Budget budget;
  budget.deadline_ = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(seconds));
  return budget;
}

Budget Budget::DeadlineAndWorkUnits(double seconds, int64_t units) {
  Budget budget = Deadline(seconds);
  X2VEC_CHECK_GE(units, 0);
  budget.work_limit_ = units;
  return budget;
}

bool Budget::SpendSlow(int64_t units) {
  if (exhausted_) return false;
  work_spent_ += units;
  // A quota of N admits exactly N units. The zero-unit Exhausted() probe
  // trips as soon as no headroom remains — so a zero quota (or a fully
  // spent one) fails fast at entry, before any work starts.
  if (work_limit_.has_value() &&
      (work_spent_ > *work_limit_ ||
       (units == 0 && work_spent_ >= *work_limit_))) {
    exhausted_ = true;
    return false;
  }
  if (deadline_.has_value() && work_spent_ >= next_clock_check_) {
    next_clock_check_ = work_spent_ + kClockCheckStride;
    return !DeadlinePassed();
  }
  return true;
}

bool Budget::DeadlinePassed() {
  if (!exhausted_ && DeadlineReached()) exhausted_ = deadline_tripped_ = true;
  return exhausted_;
}

bool Budget::DeadlineReached() const {
  return deadline_.has_value() &&
         std::chrono::steady_clock::now() >= *deadline_;
}

Status Budget::ExhaustedError(std::string_view operation) const {
  std::string message(operation);
  if (deadline_tripped_) {
    message += ": deadline exceeded after " + std::to_string(work_spent_) +
               " work units";
  } else {
    message += ": work budget of " +
               std::to_string(work_limit_.value_or(0)) +
               " units exhausted";
  }
  return Status::ResourceExhausted(std::move(message));
}

Budget BudgetSpec::MakeBudget() const {
  if (work_units.has_value() && deadline_seconds.has_value()) {
    return Budget::DeadlineAndWorkUnits(*deadline_seconds, *work_units);
  }
  if (work_units.has_value()) return Budget::WorkUnits(*work_units);
  if (deadline_seconds.has_value()) return Budget::Deadline(*deadline_seconds);
  return Budget::Unlimited();
}

}  // namespace x2vec
