// The harness's invariant and differential checks.
//
// Each check takes one TestInstance and decides pass/fail against a
// brute-force oracle (oracles.h) or a differential twin (two production
// code paths that must agree).  Checks are pure functions of the instance:
// any internal randomness (subset choices, insertion orders, thread
// counts) derives from instance.check_seed mixed with the check name, so
// a failure replays bit-for-bit from a repro file.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/kernel_er.h"
#include "testkit/instance.h"

namespace rnt::testkit {

/// Deliberate-defect switches used to test the harness itself: a nonzero
/// field makes the named computation wrong inside the check, and the fuzz
/// run must catch and shrink it.  All zero in normal operation.
struct FaultPlan {
  /// Deflates the ProbBound value by this amount per selected path before
  /// the dominance/tightness comparison (breaks Eq. 6/7's guarantee).
  double probbound_deflate = 0.0;

  /// Inflates the sliced kernel's evaluate() result by this amount before
  /// the bitwise sliced-vs-scalar/scenario comparisons (breaks the
  /// differential twin; exercises the shrinker on the sliced check).
  double sliced_er_inflate = 0.0;
};

struct CheckResult {
  bool passed = true;
  std::string message;  ///< Failure diagnosis; empty on success.

  static CheckResult ok() { return {}; }
  static CheckResult fail(std::string message) {
    return {false, std::move(message)};
  }
};

/// One registered check.
struct Check {
  std::string name;     ///< Stable id used in repro files and --checks.
  std::string summary;  ///< One-line description for docs / --list.
  std::size_t stride = 1;  ///< Run on every stride-th fuzz case.
  bool shrinkable = true;  ///< False for checks that ignore the instance.
  CheckResult (*fn)(const TestInstance&, const FaultPlan&) = nullptr;
};

/// All checks, in documentation order.
const std::vector<Check>& all_checks();

/// Looks a check up by name; nullptr when unknown.
const Check* find_check(const std::string& name);

/// Runs one check, converting escaped exceptions into failures.
CheckResult run_check(const Check& check, const TestInstance& instance,
                      const FaultPlan& fault = {});

/// The bitwise referee of kernel accumulators and kernel selects: a
/// ScenarioErEngine over one representative scenario per class of
/// `kernel` (its ScenarioClasses), weighted by the class weight.  It ranks
/// float path rows per scenario and sums the same weights in
/// the same order as the kernel accumulators (ascending class), so their
/// gains, values and greedy selections must equal its own bit for bit.
/// (The engine over the raw mixture sums per scenario, which rounds
/// differently.)
std::unique_ptr<core::ScenarioErEngine> class_scenario_engine(
    const tomo::PathSystem& system, const core::KernelErEngine& kernel);

/// Empty when `engine`'s accumulator and a DenseRowScenarioEngine over its
/// mixture agree bit for bit: every path's gain before each add of
/// `trajectory` (paths not yet added), value() after each add, and the
/// paths and objective core::rome selects at `budget`.  Otherwise the
/// first difference.
std::string scenario_rows_diff(const tomo::PathSystem& system,
                               const tomo::CostModel& costs,
                               const core::ScenarioErEngine& engine,
                               const std::vector<std::size_t>& trajectory,
                               double budget);

// Individual check bodies (also reusable from unit tests).
CheckResult check_er_monotone_submodular(const TestInstance&,
                                         const FaultPlan&);
CheckResult check_probbound_dominates_er(const TestInstance&,
                                         const FaultPlan&);
CheckResult check_matrome_optimal(const TestInstance&, const FaultPlan&);
CheckResult check_parallel_matches_serial(const TestInstance&,
                                          const FaultPlan&);
CheckResult check_exact_engine_matches_oracle(const TestInstance&,
                                              const FaultPlan&);
CheckResult check_rome_approximation(const TestInstance&, const FaultPlan&);
CheckResult check_rank_oracles_agree(const TestInstance&, const FaultPlan&);
CheckResult check_incremental_basis_reduction(const TestInstance&,
                                              const FaultPlan&);
CheckResult check_warm_equals_cold_replan(const TestInstance&,
                                          const FaultPlan&);
CheckResult check_probbound_accumulator_consistent(const TestInstance&,
                                                   const FaultPlan&);
CheckResult check_trace_roundtrip(const TestInstance&, const FaultPlan&);
CheckResult check_workload_cache_eviction(const TestInstance&,
                                          const FaultPlan&);
CheckResult check_kernel_matches_scenario(const TestInstance&,
                                          const FaultPlan&);
CheckResult check_protocol_framing(const TestInstance&, const FaultPlan&);
CheckResult check_inference_roundtrip(const TestInstance&, const FaultPlan&);
CheckResult check_sliced_matches_scenario(const TestInstance&,
                                          const FaultPlan&);
CheckResult check_optimizer_bounds(const TestInstance&, const FaultPlan&);
CheckResult check_restricted_solve_matches_dense(const TestInstance&,
                                                 const FaultPlan&);
CheckResult check_scenario_unit_rows_match_dense(const TestInstance&,
                                                 const FaultPlan&);

}  // namespace rnt::testkit
