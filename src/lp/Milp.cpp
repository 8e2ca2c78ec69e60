//===- lp/Milp.cpp - Branch-and-bound MILP solver -------------------------===//
//
// Part of the PALMED reproduction.
//
// Node bookkeeping: each node owns its relaxation solution, indexed by a
// slot id carried on the best-first heap (no linear pool scans).
//
//===----------------------------------------------------------------------===//

#include "lp/Milp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>
#include <utility>
#include <vector>

using namespace palmed;
using namespace palmed::lp;

namespace {

/// A branch-and-bound node: the bound overrides defining its subproblem
/// plus the relaxation solution computed at creation time (each node
/// solves its LP exactly once).
struct Node {
  std::vector<BoundOverride> Overrides;
  double Bound = 0.0; ///< Relaxation objective (minimization-normalized).
  int Depth = 0;
  Solution Relax;
};

/// Heap entry referencing a pool slot; ordering mirrors the node fields so
/// the pool is only touched when a node is actually expanded.
struct HeapEntry {
  double Bound = 0.0;
  int Depth = 0;
  size_t Slot = 0;
};

struct HeapOrder {
  bool operator()(const HeapEntry &A, const HeapEntry &B) const {
    if (A.Bound != B.Bound)
      return A.Bound > B.Bound; // Best bound first.
    return A.Depth < B.Depth;   // Then deepest first (dive).
  }
};

/// Picks the integer variable whose relaxation value is most fractional,
/// using the shared isIntegral predicate: returns -1 exactly when every
/// integer variable passes the incumbent integrality test.
VarId pickBranchVar(const Model &M, const std::vector<double> &Values,
                    double Tol) {
  VarId Best = -1;
  double BestFrac = 0.0;
  for (size_t V = 0; V < M.numVars(); ++V) {
    if (!M.var(static_cast<VarId>(V)).IsInteger)
      continue;
    double X = Values[V];
    if (isIntegral(X, Tol))
      continue;
    double Frac = std::abs(X - std::round(X));
    if (Frac > BestFrac) {
      BestFrac = Frac;
      Best = static_cast<VarId>(V);
    }
  }
  return Best;
}

} // namespace

Solution lp::solveMilp(const Model &M, const MilpOptions &Options,
                       MilpStats *Stats) {
  MilpStats LocalStats;
  MilpStats &S = Stats ? *Stats : LocalStats;
  S = MilpStats();

  const double Sign = M.goal() == Goal::Minimize ? 1.0 : -1.0;

  Solution Incumbent;
  Incumbent.Status = SolveStatus::Infeasible;
  double IncumbentBound = Infinity; // Minimization-normalized.

  std::vector<Node> Pool;
  std::vector<size_t> FreeSlots;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapOrder> Open;

  auto Alloc = [&]() -> size_t {
    if (!FreeSlots.empty()) {
      size_t Slot = FreeSlots.back();
      FreeSlots.pop_back();
      return Slot;
    }
    Pool.emplace_back();
    return Pool.size() - 1;
  };

  {
    Node Root;
    LpRunStats LS;
    Solution RootSol = solveLp(M, Root.Overrides, Options.Lp, &LS);
    ++S.LpSolves;
    S.LpPivots += LS.Pivots;
    if (RootSol.Status == SolveStatus::Infeasible ||
        RootSol.Status == SolveStatus::IterLimit) {
      return RootSol;
    }
    if (RootSol.Status == SolveStatus::Unbounded) {
      // With integer variables we do not attempt to certify integer
      // unboundedness; report it as-is.
      return RootSol;
    }
    Root.Bound = Sign * RootSol.Objective;
    Root.Relax = std::move(RootSol);
    size_t Slot = Alloc();
    Open.push({Root.Bound, Root.Depth, Slot});
    Pool[Slot] = std::move(Root);
  }

  while (!Open.empty()) {
    if (S.NodesExplored >= Options.MaxNodes) {
      S.NodeLimitHit = true;
      break;
    }
    HeapEntry Top = Open.top();
    Open.pop();
    ++S.NodesExplored;

    Node N = std::move(Pool[Top.Slot]);
    FreeSlots.push_back(Top.Slot);

    if (N.Bound >= IncumbentBound - Options.AbsGap)
      continue; // Cannot improve on the incumbent.

    VarId Branch = pickBranchVar(M, N.Relax.Values, Options.IntTolerance);
    if (Branch < 0) {
      // Integral: new incumbent.
      double Normalized = Sign * N.Relax.Objective;
      if (Normalized < IncumbentBound - Options.AbsGap) {
        IncumbentBound = Normalized;
        Incumbent = std::move(N.Relax);
        Incumbent.Status = SolveStatus::Optimal;
        ++S.Incumbents;
      }
      continue;
    }

    double X = N.Relax.Values[static_cast<size_t>(Branch)];
    double Floor = std::floor(X);
    const Variable &BV = M.var(Branch);

    // Current effective bounds of the branch variable at this node.
    double CurLo = BV.LowerBound, CurHi = BV.UpperBound;
    for (const BoundOverride &O : N.Overrides) {
      if (O.Var == Branch) {
        CurLo = O.LowerBound;
        CurHi = O.UpperBound;
      }
    }

    auto MakeChild = [&](double NewLo, double NewHi) {
      if (NewLo > NewHi)
        return;
      Node Child;
      Child.Overrides = N.Overrides;
      bool Replaced = false;
      for (BoundOverride &O : Child.Overrides) {
        if (O.Var == Branch) {
          O.LowerBound = NewLo;
          O.UpperBound = NewHi;
          Replaced = true;
        }
      }
      if (!Replaced)
        Child.Overrides.push_back({Branch, NewLo, NewHi});
      Child.Depth = N.Depth + 1;

      LpRunStats LS;
      Solution ChildSol = solveLp(M, Child.Overrides, Options.Lp, &LS);
      ++S.LpSolves;
      S.LpPivots += LS.Pivots;

      if (ChildSol.Status == SolveStatus::Infeasible)
        return; // Genuinely pruned.
      if (!ChildSol.ok()) {
        // IterLimit (or an unexpected Unbounded on a subproblem of a
        // bounded parent): the subtree's content is unknown, not empty.
        // Dropping it truncates the search, which the final status must
        // reflect — this is the headline fix: the old code treated these
        // children as infeasible and could report Optimal over a
        // truncated tree.
        ++S.DroppedSubtrees;
        return;
      }
      Child.Bound = Sign * ChildSol.Objective;
      if (Child.Bound >= IncumbentBound - Options.AbsGap)
        return;
      Child.Relax = std::move(ChildSol);
      size_t Slot = Alloc();
      Open.push({Child.Bound, Child.Depth, Slot});
      Pool[Slot] = std::move(Child);
    };

    MakeChild(CurLo, Floor);       // x <= floor
    MakeChild(Floor + 1.0, CurHi); // x >= floor + 1
  }

  const bool Truncated = S.DroppedSubtrees > 0 || !Open.empty();
  if (!Incumbent.ok()) {
    // No incumbent: only a fully explored tree proves infeasibility.
    Incumbent.Status =
        Truncated ? SolveStatus::IterLimit : SolveStatus::Infeasible;
    return Incumbent;
  }
  Incumbent.Status =
      Truncated ? SolveStatus::Feasible : SolveStatus::Optimal;
  // Round integer variables exactly.
  for (size_t V = 0; V < M.numVars(); ++V)
    if (M.var(static_cast<VarId>(V)).IsInteger)
      Incumbent.Values[V] = std::round(Incumbent.Values[V]);
  Incumbent.Objective = M.objective().evaluate(Incumbent.Values);
  return Incumbent;
}

Solution lp::solveMilp(const Model &M) { return solveMilp(M, MilpOptions()); }
