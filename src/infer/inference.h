// The end-to-end inference loop: select → fail → measure → solve → score.
//
// For each scenario of a failure family, the loop samples a failure
// vector, synthesizes noisy observations on the surviving paths of the
// probe subset, solves the restricted least-squares system, and scores
// the estimate against ground truth; scores aggregate into an
// InferenceReport.  Scenarios that leave the same surviving rows share one
// RestrictedSystem (rank, identifiable set, covered-link operator), built
// once per call; only CGLS runs per scenario.
//
// Determinism contract: everything derives from one 64-bit seed.
// Scenarios are sampled up front on the calling thread, per-scenario
// noise streams are seeded by (seed, scenario index), and aggregation
// replays scenario order — so the report is bitwise identical for any
// `threads` value, and the service verb, the CLI command and the bench
// drivers all reproduce each other's numbers from the same seed.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "failures/failure_model.h"
#include "infer/measurement.h"
#include "infer/report.h"
#include "infer/solver.h"
#include "tomo/path_system.h"

namespace rnt::infer {

/// Draws one failure scenario from a family (called in scenario order on
/// one thread, so stateful samplers stay deterministic).
using ScenarioSampler = std::function<failures::FailureVector(Rng&)>;

struct InferenceConfig {
  MeasurementModel model = MeasurementModel::kDelay;
  double noise_std = 0.05;       ///< Additive-domain probe noise sigma.
  std::size_t scenarios = 200;   ///< Failure scenarios per report.
  std::size_t threads = 1;       ///< Solver workers; 0 = hardware.
  SolveOptions solve;
  TruthOptions truth;
};

/// SplitMix64 mix of (seed, salt) — the canonical sub-stream derivation
/// every inference front end uses, so CLI / service / bench runs with the
/// same workload seed consume identical truth, scenario and noise streams.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Salts for the named sub-streams of one inference run.
inline constexpr std::uint64_t kTruthSalt = 0x7472757468ULL;     // "truth"
inline constexpr std::uint64_t kScenarioSalt = 0x7363656eULL;    // "scen"
inline constexpr std::uint64_t kNoiseSalt = 0x6e6f697365ULL;     // "noise"

/// The ground truth every selection shares in one campaign (drawing it
/// once per (model, seed) pair makes selections comparable).
GroundTruth campaign_truth(MeasurementModel model, std::size_t links,
                           std::uint64_t seed, const TruthOptions& options = {});

/// Runs the full loop over `config.scenarios` draws from `sampler`.
InferenceReport run_inference(const tomo::PathSystem& system,
                              const std::vector<std::size_t>& subset,
                              const ScenarioSampler& sampler,
                              const GroundTruth& truth,
                              const InferenceConfig& config,
                              std::uint64_t seed);

/// Convenience overload for the library's independent failure model.
InferenceReport run_inference(const tomo::PathSystem& system,
                              const std::vector<std::size_t>& subset,
                              const failures::FailureModel& failures,
                              const GroundTruth& truth,
                              const InferenceConfig& config,
                              std::uint64_t seed);

}  // namespace rnt::infer
