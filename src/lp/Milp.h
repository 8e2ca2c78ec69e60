//===- lp/Milp.h - Branch-and-bound MILP solver -----------------*- C++ -*-===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Best-first branch-and-bound over the simplex relaxation. Used for
/// Palmed's LP1 shape problem (0/1 edges) and the exact-MILP mode of the
/// bipartite weight problem (LP2 / LPAUX argmax indicators). Every node
/// relaxation is a cold two-phase solve of the model under the node's
/// bound overrides.
///
/// Status contract: SolveStatus::Optimal is returned only when the search
/// tree was explored exhaustively — every pruned subtree was justified by
/// its relaxation bound or by infeasibility. Whenever any subtree was
/// dropped for another reason (a node LP hit its iteration limit, or the
/// node budget ran out), the best incumbent is reported as
/// SolveStatus::Feasible, and with no incumbent the result is
/// SolveStatus::IterLimit — never Infeasible.
///
//===----------------------------------------------------------------------===//

#ifndef PALMED_LP_MILP_H
#define PALMED_LP_MILP_H

#include "lp/Model.h"
#include "lp/Simplex.h"

#include <cmath>

namespace palmed {
namespace lp {

/// Options controlling the branch-and-bound search.
struct MilpOptions {
  /// Hard cap on explored nodes; exceeding it yields SolveStatus::Feasible
  /// (best incumbent) or SolveStatus::IterLimit (no incumbent).
  int MaxNodes = 200000;
  /// Integrality tolerance.
  double IntTolerance = 1e-6;
  /// Absolute optimality gap at which the search stops early.
  double AbsGap = 1e-7;
  SimplexOptions Lp;
};

/// Statistics from a branch-and-bound run.
struct MilpStats {
  int NodesExplored = 0;
  int Incumbents = 0;
  /// LP relaxations solved (root + children that were not pre-pruned).
  int LpSolves = 0;
  /// Simplex pivots across all node LPs.
  long LpPivots = 0;
  /// Subtrees dropped because a child relaxation hit its iteration limit.
  /// Any drop downgrades the final status (see the status contract above).
  int DroppedSubtrees = 0;
  /// The MaxNodes budget ran out with open nodes remaining.
  bool NodeLimitHit = false;
};

/// True when \p X is integral within \p Tol. The single integrality
/// predicate shared by the branch-variable choice and the incumbent test,
/// so a value at exactly the tolerance cannot be "integral" to one check
/// and "fractional" to the other.
inline bool isIntegral(double X, double Tol) {
  return std::abs(X - std::round(X)) <= Tol;
}

/// Solves \p M to integer optimality (or best effort under the node limit).
Solution solveMilp(const Model &M, const MilpOptions &Options,
                   MilpStats *Stats = nullptr);

/// Convenience overload with default options.
Solution solveMilp(const Model &M);

} // namespace lp
} // namespace palmed

#endif // PALMED_LP_MILP_H
