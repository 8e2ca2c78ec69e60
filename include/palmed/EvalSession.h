//===- palmed/EvalSession.h - Parallel evaluation session ------*- C++ -*-===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Fig. 4 harness: an evaluation session that owns (or borrows) a set
/// of predictors and runs them over a weighted block set under an
/// ExecutionPolicy. The Parallel policy fans the blocks x (native +
/// predictors) work items out over a small internal thread pool; every
/// work item writes its own pre-allocated slot, so Serial and Parallel
/// produce bit-identical EvalOutcomes.
///
/// Thread-safety contract: predictors declare reentrancy through
/// Predictor::isThreadSafe(). A non-reentrant predictor is either cloned
/// per worker thread (when Predictor::clone() is supported) or guarded by
/// a per-predictor mutex. The native oracle is handled the same way via
/// ThroughputOracle::isThreadSafe().
///
//===----------------------------------------------------------------------===//

#ifndef PALMED_PALMED_EVALSESSION_H
#define PALMED_PALMED_EVALSESSION_H

#include "baselines/Predictor.h"
#include "eval/Harness.h"
#include "eval/Workload.h"
#include "palmed/ExecutionPolicy.h"
#include "sim/ThroughputOracle.h"

#include <memory>
#include <string>
#include <vector>

namespace palmed {

class Executor;

/// A configured evaluation run: native oracle + predictors + policy.
class EvalSession {
public:
  /// \p Native measures ground-truth IPC per block; it must outlive the
  /// session.
  explicit EvalSession(ThroughputOracle &Native,
                       ExecutionPolicy Policy = ExecutionPolicy::serial());
  ~EvalSession();
  EvalSession(EvalSession &&) noexcept;

  /// Names the predictor defining the coverage denominator (default
  /// "palmed"; harmless when absent).
  void setReferenceTool(std::string Tool);

  /// Adds an owned predictor; returns it for further configuration.
  /// Throws std::invalid_argument on duplicate predictor names.
  Predictor &add(std::unique_ptr<Predictor> P);

  /// Adds a borrowed predictor (must outlive the session).
  void add(Predictor &P);

  size_t numPredictors() const { return Lanes.size(); }
  const ExecutionPolicy &policy() const { return Policy; }

  /// Runs every predictor (and the native oracle) over \p Blocks.
  /// Deterministic: the outcome does not depend on the policy.
  EvalOutcome run(const std::vector<BasicBlock> &Blocks) const;

private:
  ThroughputOracle &Native;
  ExecutionPolicy Policy;
  std::string ReferenceTool = "palmed";
  std::vector<Predictor *> Lanes;
  std::vector<std::unique_ptr<Predictor>> Owned;
  /// Worker pool under a parallel policy (null when serial), built in
  /// the constructor so it never races a lazy first-use init, and reused
  /// by every run. Executor::parallelFor is not reentrant, so concurrent
  /// run() calls on one *parallel* session are still unsupported —
  /// callers wanting concurrent evaluation use one session per thread
  /// (serial-policy sessions are safe to share).
  std::unique_ptr<Executor> Exec;
};

} // namespace palmed

#endif // PALMED_PALMED_EVALSESSION_H
