//===- lp/Simplex.h - Two-phase primal simplex ------------------*- C++ -*-===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two-phase primal simplex over a Model (integrality relaxed). Every finite
/// upper bound becomes one explicit LE row. Pricing is Dantzig (most
/// negative reduced cost) with a Bland fallback after a degenerate stall,
/// and ratio-test ties go to the smallest basic column index. The tableau
/// stores only its live columns (see Simplex.cpp). Sized for Palmed's LP
/// instances: a few thousand rows and at most a few dozen variables in the
/// hot BWP blocks.
///
/// The pivot sequence and arithmetic reproduce the historical dense solver
/// value for value, and that is part of the contract. Degenerate optima are
/// vertex-ambiguous, and Palmed consumes raw vertices, not just objective
/// values: the LP2 refinement loop and the saturating-kernel choice read
/// maximal-weight BWP solutions, and the analytic oracle's measurement bits
/// feed integer rounding of kernel multiplicities. So the pivot path is
/// part of a mapping's identity; a change to pricing, tie-breaks or pivot
/// arithmetic changes mappings.
///
//===----------------------------------------------------------------------===//

#ifndef PALMED_LP_SIMPLEX_H
#define PALMED_LP_SIMPLEX_H

#include "lp/Model.h"

#include <vector>

namespace palmed {
namespace lp {

/// Options controlling the simplex run.
struct SimplexOptions {
  /// Hard cap on pivots per phase.
  int MaxIterations = 200000;
  /// Numerical tolerance for feasibility / reduced-cost tests.
  double Tolerance = 1e-9;
};

/// Per-variable bound overrides used by branch-and-bound nodes; entries with
/// Var < 0 terminate scanning early and are not allowed.
struct BoundOverride {
  VarId Var = -1;
  double LowerBound = 0.0;
  double UpperBound = Infinity;
};

/// Per-solve statistics.
struct LpRunStats {
  int Pivots = 0;
};

/// Solves the LP relaxation of \p M. \p Overrides optionally tightens
/// variable bounds (used by branch-and-bound); overridden bounds fully
/// replace the model's bounds for that variable.
Solution solveLp(const Model &M, const std::vector<BoundOverride> &Overrides,
                 const SimplexOptions &Options, LpRunStats *Stats = nullptr);

/// Convenience overload without overrides and with default options.
Solution solveLp(const Model &M);

} // namespace lp
} // namespace palmed

#endif // PALMED_LP_SIMPLEX_H
