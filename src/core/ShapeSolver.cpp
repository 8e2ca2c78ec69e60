//===- core/ShapeSolver.cpp - LP1: shape of the core mapping --------------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "core/ShapeSolver.h"

#include "lp/Milp.h"
#include "support/Compat.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

using namespace palmed;

std::vector<ShapeConstraint>
palmed::deriveKernelConstraints(const KernelObservation &Obs,
                                const std::map<InstrId, size_t> &IndexOf,
                                const std::vector<double> &SoloIpc,
                                double Eps) {
  std::vector<ShapeConstraint> Out;
  assert(Obs.Ipc > 0.0 && "observation with non-positive IPC");
  double T = Obs.K.size() / Obs.Ipc;

  InstrIndexMask Members;
  for (const auto &[Id, Mult] : Obs.K.terms()) {
    auto It = IndexOf.find(Id);
    assert(It != IndexOf.end() && "kernel contains a non-basic instruction");
    Members.set(It->second);
  }

  // Saturating instructions: execution time of the whole kernel equals the
  // time this instruction alone would need (paper: cycles(i_a) = cycles(k)).
  InstrIndexMask Saturating;
  for (const auto &[Id, Mult] : Obs.K.terms()) {
    size_t Index = IndexOf.at(Id);
    double TAlone = Mult / SoloIpc[Index];
    if (std::abs(TAlone - T) <= Eps * T)
      Saturating.set(Index);
  }

  if (Saturating.none()) {
    // No saturating instruction: some resource is shared by every
    // instruction of the kernel (Algo 3 line 7).
    Out.push_back({Members, {}, -1});
    return Out;
  }
  // Each saturating instruction owns a resource unused by the kernel's
  // other instructions (Algo 3 lines 9-10).
  Saturating.forEachSetBit([&](size_t I) {
    InstrIndexMask Bit = InstrIndexMask::bit(I);
    Out.push_back({Bit, Members.without(Bit), static_cast<int>(I)});
  });
  return Out;
}

ShareKind palmed::classifyShare(double T, double TAlone1, double TAlone2,
                                double Eps) {
  double Lo = std::max(TAlone1, TAlone2);
  double Hi = TAlone1 + TAlone2;
  if (T <= Lo * (1.0 + Eps))
    return ShareKind::Additive;
  if (T >= Hi * (1.0 - Eps))
    return ShareKind::Full;
  return ShareKind::Partial;
}

std::vector<ShapeConstraint>
palmed::expandOwnerForbidden(std::vector<ShapeConstraint> Constraints,
                             const ShareMatrix &Shares) {
  if (Shares.empty())
    return Constraints;
  for (ShapeConstraint &C : Constraints) {
    if (C.Owner < 0)
      continue;
    size_t O = static_cast<size_t>(C.Owner);
    for (size_t J = 0; J < Shares[O].size(); ++J) {
      if (J == O)
        continue;
      ShareKind S = Shares[O][J];
      if (S == ShareKind::Additive || S == ShareKind::Unknown)
        C.Forbidden.set(J);
    }
    assert(!C.Required.intersects(C.Forbidden) &&
           "owner constraint contradicts its own members");
  }
  return Constraints;
}

std::vector<ShapeConstraint>
palmed::simplifyConstraints(std::vector<ShapeConstraint> Constraints) {
  std::sort(Constraints.begin(), Constraints.end());
  Constraints.erase(std::unique(Constraints.begin(), Constraints.end()),
                    Constraints.end());
  // Drop constraints implied by a stronger one: c1 is implied by c2 when
  // Required1 subset-of Required2, Forbidden1 subset-of Forbidden2, and the
  // owner semantics carry over (same owner, or c1 demands none).
  std::vector<ShapeConstraint> Out;
  for (size_t I = 0; I < Constraints.size(); ++I) {
    bool Implied = false;
    for (size_t J = 0; J < Constraints.size() && !Implied; ++J) {
      if (I == J)
        continue;
      const ShapeConstraint &C1 = Constraints[I], &C2 = Constraints[J];
      bool SubReq = C1.Required.isSubsetOf(C2.Required);
      bool SubForb = C1.Forbidden.isSubsetOf(C2.Forbidden);
      bool OwnerOk = C1.Owner == -1 || C1.Owner == C2.Owner;
      bool Strictly = !(C1 == C2);
      // Ties (identical) were removed by unique(); guard against the
      // pathological equal case anyway.
      if (SubReq && SubForb && OwnerOk && Strictly)
        Implied = true;
    }
    if (!Implied)
      Out.push_back(Constraints[I]);
  }
  return Out;
}

namespace {

/// True when owners \p A and \p B may saturate one shared resource.
bool ownersCompatible(int A, int B, const ShareMatrix &Shares) {
  if (A < 0 || B < 0 || A == B)
    return true;
  if (Shares.empty())
    return true; // Permissive mode.
  return Shares[static_cast<size_t>(A)][static_cast<size_t>(B)] ==
         ShareKind::Full;
}

/// Branch-and-bound partition of constraints into resource groups.
class PartitionSearch {
public:
  PartitionSearch(const std::vector<ShapeConstraint> &Constraints,
                  const ShareMatrix &Shares)
      : Constraints(Constraints), Shares(Shares) {}

  /// Sets \p SearchNodes (when given) to the dfs nodes visited.
  MappingShape run(size_t *SearchNodes) {
    // Greedy first-fit incumbent. dfs only replaces it with a partition of
    // strictly fewer groups, so when the clique bound already equals its
    // size the search cannot change the result and is skipped.
    Best = greedy();
    if (cliqueBound() < Best.size()) {
      std::vector<Group> Groups;
      dfs(0, Groups);
    }
    if (SearchNodes)
      *SearchNodes = std::min(Nodes, MaxNodes);
    MappingShape Shape;
    for (const Group &G : Best)
      Shape.Resources.push_back(G.Required);
    std::sort(Shape.Resources.begin(), Shape.Resources.end(),
              [](const InstrIndexMask &A, const InstrIndexMask &B) {
                size_t CA = A.count(), CB = B.count();
                if (CA != CB)
                  return CA < CB;
                return A < B;
              });
    return Shape;
  }

private:
  struct Group {
    InstrIndexMask Required;
    InstrIndexMask Forbidden;
    /// Owners of member constraints (at most a handful in practice).
    std::vector<int> Owners;
  };

  bool compatible(const Group &G, const ShapeConstraint &C) const {
    // (G.Required | C.Required) must avoid (G.Forbidden | C.Forbidden);
    // the groups' own invariants cover the two same-side intersections.
    if (G.Required.intersects(C.Forbidden) ||
        C.Required.intersects(G.Forbidden) ||
        C.Required.intersects(C.Forbidden))
      return false;
    if (C.Owner >= 0)
      for (int O : G.Owners)
        if (!ownersCompatible(O, C.Owner, Shares))
          return false;
    return true;
  }

  /// Merges \p C into \p G; returns whether the owner list grew, so dfs
  /// can backtrack in O(1) (restore the two masks, pop at most one owner)
  /// instead of copying the whole group.
  static bool absorbTracked(Group &G, const ShapeConstraint &C) {
    G.Required |= C.Required;
    G.Forbidden |= C.Forbidden;
    if (C.Owner >= 0 &&
        std::find(G.Owners.begin(), G.Owners.end(), C.Owner) ==
            G.Owners.end()) {
      G.Owners.push_back(C.Owner);
      return true;
    }
    return false;
  }

  static void absorb(Group &G, const ShapeConstraint &C) {
    (void)absorbTracked(G, C);
  }

  std::vector<Group> greedy() const {
    std::vector<Group> Groups;
    for (const ShapeConstraint &C : Constraints) {
      bool Placed = false;
      for (Group &G : Groups) {
        if (compatible(G, C)) {
          absorb(G, C);
          Placed = true;
          break;
        }
      }
      if (!Placed) {
        Group G;
        absorb(G, C);
        Groups.push_back(std::move(G));
      }
    }
    return Groups;
  }

  /// Size of a greedy clique of pairwise-incompatible constraints: no two
  /// of them can ever share a group (compatible() only gets stricter as a
  /// group grows), so every partition needs at least that many groups.
  /// The clique grows by the candidate with the most clashes among the
  /// remaining candidates (lowest index on ties).
  size_t cliqueBound() const {
    const size_t N = Constraints.size();
    std::vector<InstrIndexMask> Clash(N);
    for (size_t I = 0; I < N; ++I) {
      Group G;
      absorb(G, Constraints[I]);
      for (size_t J = I + 1; J < N; ++J)
        if (!compatible(G, Constraints[J])) {
          Clash[I].set(J);
          Clash[J].set(I);
        }
    }
    InstrIndexMask Candidates = InstrIndexMask::firstN(N);
    size_t Size = 0;
    while (Candidates.any()) {
      size_t Pick = N, PickDegree = 0;
      Candidates.forEachSetBit([&](size_t V) {
        size_t Degree = (Clash[V] & Candidates).count();
        if (Pick == N || Degree > PickDegree) {
          Pick = V;
          PickDegree = Degree;
        }
      });
      ++Size;
      Candidates &= Clash[Pick];
    }
    return Size;
  }

  void dfs(size_t Index, std::vector<Group> &Groups) {
    if (++Nodes > MaxNodes)
      return; // Keep the incumbent; still a valid (greedy-or-better) shape.
    if (Groups.size() >= Best.size())
      return; // Cannot improve.
    if (Index == Constraints.size()) {
      Best = Groups;
      return;
    }
    const ShapeConstraint &C = Constraints[Index];
    for (size_t G = 0; G < Groups.size(); ++G) {
      if (!compatible(Groups[G], C))
        continue;
      InstrIndexMask SavedReq = Groups[G].Required;
      InstrIndexMask SavedForb = Groups[G].Forbidden;
      bool GrewOwners = absorbTracked(Groups[G], C);
      dfs(Index + 1, Groups);
      Groups[G].Required = SavedReq;
      Groups[G].Forbidden = SavedForb;
      if (GrewOwners)
        Groups[G].Owners.pop_back();
    }
    // Open a new group (only as the last option to curb symmetry).
    Group Fresh;
    absorb(Fresh, C);
    Groups.push_back(std::move(Fresh));
    dfs(Index + 1, Groups);
    Groups.pop_back();
  }

  const std::vector<ShapeConstraint> &Constraints;
  const ShareMatrix &Shares;
  std::vector<Group> Best;
  size_t Nodes = 0;
  static constexpr size_t MaxNodes = 2000000;
};

} // namespace

MappingShape
palmed::solveShapeExact(const std::vector<ShapeConstraint> &Constraints,
                        const ShareMatrix &Shares, size_t *SearchNodes) {
  std::vector<ShapeConstraint> Expanded =
      expandOwnerForbidden(Constraints, Shares);
  for (const ShapeConstraint &C : Expanded) {
    assert(!C.Required.intersects(C.Forbidden) &&
           "individually unsatisfiable constraint");
    (void)C;
  }
  std::vector<ShapeConstraint> Simplified = simplifyConstraints(Expanded);
  return PartitionSearch(Simplified, Shares).run(SearchNodes);
}

MappingShape
palmed::solveShapeMilp(const std::vector<ShapeConstraint> &Constraints,
                       size_t NumInstructions, size_t MaxResources,
                       const ShareMatrix &Shares) {
  std::vector<ShapeConstraint> Cs =
      simplifyConstraints(expandOwnerForbidden(Constraints, Shares));

  lp::Model M;
  // Edge variables rho[i][r] in {0,1}.
  std::vector<std::vector<lp::VarId>> Rho(NumInstructions);
  for (size_t I = 0; I < NumInstructions; ++I)
    for (size_t R = 0; R < MaxResources; ++R)
      Rho[I].push_back(M.addBoolVar("rho_" + std::to_string(I) + "_" +
                                    std::to_string(R)));
  // Resource-used indicators.
  std::vector<lp::VarId> Used;
  for (size_t R = 0; R < MaxResources; ++R) {
    lp::VarId U = M.addBoolVar("used_" + std::to_string(R));
    Used.push_back(U);
    for (size_t I = 0; I < NumInstructions; ++I) {
      lp::LinearExpr E;
      E.add(Rho[I][R], 1.0).add(U, -1.0);
      M.addConstraint(std::move(E), lp::Sense::LE, 0.0);
    }
  }
  // Symmetry breaking: used resources come first.
  for (size_t R = 0; R + 1 < MaxResources; ++R) {
    lp::LinearExpr E;
    E.add(Used[R + 1], 1.0).add(Used[R], -1.0);
    M.addConstraint(std::move(E), lp::Sense::LE, 0.0);
  }
  // Witnesses: each constraint satisfied by at least one resource.
  std::vector<std::vector<lp::VarId>> Witness(Cs.size());
  for (size_t C = 0; C < Cs.size(); ++C) {
    lp::LinearExpr AnyWitness;
    for (size_t R = 0; R < MaxResources; ++R) {
      lp::VarId Y = M.addBoolVar("y_" + std::to_string(C) + "_" +
                                 std::to_string(R));
      Witness[C].push_back(Y);
      AnyWitness.add(Y, 1.0);
      for (size_t I = 0; I < NumInstructions; ++I) {
        if (Cs[C].Required.test(I)) {
          lp::LinearExpr E;
          E.add(Y, 1.0).add(Rho[I][R], -1.0);
          M.addConstraint(std::move(E), lp::Sense::LE, 0.0);
        } else if (Cs[C].Forbidden.test(I)) {
          lp::LinearExpr E;
          E.add(Y, 1.0).add(Rho[I][R], 1.0);
          M.addConstraint(std::move(E), lp::Sense::LE, 1.0);
        }
      }
    }
    M.addConstraint(std::move(AnyWitness), lp::Sense::GE, 1.0);
  }
  // Owner-pair incompatibility: two saturating owners may witness through
  // the same resource only if their pair fully serializes.
  for (size_t C1 = 0; C1 < Cs.size(); ++C1) {
    for (size_t C2 = C1 + 1; C2 < Cs.size(); ++C2) {
      if (Cs[C1].Owner < 0 || Cs[C2].Owner < 0)
        continue;
      if (ownersCompatible(Cs[C1].Owner, Cs[C2].Owner, Shares))
        continue;
      for (size_t R = 0; R < MaxResources; ++R) {
        lp::LinearExpr E;
        E.add(Witness[C1][R], 1.0).add(Witness[C2][R], 1.0);
        M.addConstraint(std::move(E), lp::Sense::LE, 1.0);
      }
    }
  }
  // Objective: minimize the number of resources.
  lp::LinearExpr Obj;
  for (lp::VarId U : Used)
    Obj.add(U, 1.0);
  M.setObjective(std::move(Obj), lp::Goal::Minimize);

  lp::Solution Sol = lp::solveMilp(M);
  assert(Sol.ok() && "shape MILP must be feasible");

  MappingShape Shape;
  for (size_t R = 0; R < MaxResources; ++R) {
    if (Sol.value(Used[R]) < 0.5)
      continue;
    InstrIndexMask Members;
    for (size_t I = 0; I < NumInstructions; ++I)
      if (Sol.value(Rho[I][R]) > 0.5)
        Members.set(I);
    if (Members.any())
      Shape.Resources.push_back(std::move(Members));
  }
  std::sort(Shape.Resources.begin(), Shape.Resources.end(),
            [](const InstrIndexMask &A, const InstrIndexMask &B) {
              size_t CA = A.count(), CB = B.count();
              if (CA != CB)
                return CA < CB;
              return A < B;
            });
  return Shape;
}
