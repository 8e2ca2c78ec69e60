//===- core/ShapeSolver.h - LP1: shape of the core mapping -----*- C++ -*-===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Paper Sec. V-B / Algorithm 3 (LP1): find the *shape* of the core
/// mapping — how many abstract resources exist and which basic instructions
/// may use each — from microbenchmark observations.
///
/// Every observation reduces to existence constraints over resources viewed
/// as member sets of basic instructions:
///
///  * a kernel with no saturating instruction needs a resource containing
///    all its instructions (SharedAll);
///  * every saturating instruction of a kernel needs a resource containing
///    it and none of the kernel's other instructions (PrivateWithin);
///  * very-basic / most-greedy selection constraints have the same two
///    forms (Algo 3 lines 4-5).
///
/// Minimizing the number of resources subject to these constraints is
/// solved two ways:
///  * solveShapeExact: branch-and-bound partition of the (deduplicated)
///    constraints into compatible groups — a group is satisfiable by one
///    resource iff the union of its Required sets avoids the union of its
///    Forbidden sets. This is the default; it is exact (up to a node
///    budget) and fast at Palmed's sizes. The search starts from a greedy
///    first-fit partition and is skipped when a clique of pairwise
///    incompatible constraints (a lower bound on the group count) is as
///    large as that partition, which proves it optimal.
///  * solveShapeMilp: the paper's 0/1 ILP formulation (witness variables
///    per constraint, resource-used indicators, symmetry breaking) solved
///    by the bundled branch-and-bound. Used by tests to certify the exact
///    solver's optimality and by the ablation bench.
///
//===----------------------------------------------------------------------===//

#ifndef PALMED_CORE_SHAPESOLVER_H
#define PALMED_CORE_SHAPESOLVER_H

#include "isa/Microkernel.h"
#include "support/BitSet.h"

#include <cstdint>
#include <map>
#include <vector>

namespace palmed {

/// Bit set over basic-instruction indices (not InstrIds). A dynamic
/// BitSet: shape problems are no longer capped at 32 basic instructions
/// (the ordering semantics of BitSet keep sub-64-bit problems
/// bit-identical to the historical uint32_t masks).
using InstrIndexMask = BitSet;

/// One existence constraint on some resource r (as a member set):
/// Required subset of r and r disjoint from Forbidden. When Owner >= 0,
/// the constraint came from an instruction *saturating* a kernel: the
/// resource must additionally carry rho_owner = 1/IPC(owner) — the owner
/// loads it to capacity alone. That extra weight semantics is what makes
/// owner constraints only conditionally mergeable (see ShareKind).
struct ShapeConstraint {
  InstrIndexMask Required;
  InstrIndexMask Forbidden;
  /// Basic-instruction index of the saturating owner, or -1.
  int Owner = -1;

  bool operator==(const ShapeConstraint &O) const {
    return Required == O.Required && Forbidden == O.Forbidden &&
           Owner == O.Owner;
  }
  bool operator<(const ShapeConstraint &O) const {
    if (Required != O.Required)
      return Required < O.Required;
    if (Forbidden != O.Forbidden)
      return Forbidden < O.Forbidden;
    return Owner < O.Owner;
  }
};

/// Classification of a basic-instruction pair from its quadratic benchmark
/// a^IPC(a) b^IPC(b) (each side alone needs exactly one cycle, so the
/// kernel time t lies in [1, 2]):
///  * Additive: t ~= 1 — no shared bottleneck; an additive partner can
///    never sit on a resource an owner saturates (its weight would be
///    forced to zero).
///  * Full: t ~= 2 — complete serialization; both instructions may
///    saturate the same resource.
///  * Partial: anything in between.
///  * Unknown: never measured (e.g. SSE x AVX); treated conservatively
///    like Additive for merge decisions.
enum class ShareKind : uint8_t { Unknown, Additive, Partial, Full };

/// Symmetric pairwise share classification over the basic instructions.
using ShareMatrix = std::vector<std::vector<ShareKind>>;

/// Classifies a pair from the kernel time \p T relative to the solo times
/// \p TAlone1 / \p TAlone2 of each side within the kernel.
ShareKind classifyShare(double T, double TAlone1, double TAlone2,
                        double Eps);

/// Strengthens owner constraints: an owner's resource cannot contain any
/// Additive/Unknown partner of the owner, so those are folded into
/// Forbidden. A uniform preprocessing step applied before either solver.
std::vector<ShapeConstraint>
expandOwnerForbidden(std::vector<ShapeConstraint> Constraints,
                     const ShareMatrix &Shares);

/// The inferred shape: one member set per abstract resource.
struct MappingShape {
  std::vector<InstrIndexMask> Resources;

  size_t numResources() const { return Resources.size(); }
  bool instrUses(size_t InstrIndex, size_t R) const {
    return Resources[R].test(InstrIndex);
  }
};

/// A measured kernel over basic instructions, used for constraint
/// derivation. Multiplicities must be expressed in the same units as the
/// solo IPCs.
struct KernelObservation {
  Microkernel K;
  double Ipc = 0.0;
};

/// Derives the Algorithm 3 constraints of one observation. \p IndexOf maps
/// InstrId -> basic-instruction index; \p SoloIpc is indexed by basic
/// index. \p Eps is the relative tolerance of the saturation test.
std::vector<ShapeConstraint>
deriveKernelConstraints(const KernelObservation &Obs,
                        const std::map<InstrId, size_t> &IndexOf,
                        const std::vector<double> &SoloIpc, double Eps);

/// Removes duplicates and constraints implied by stronger ones.
std::vector<ShapeConstraint>
simplifyConstraints(std::vector<ShapeConstraint> Constraints);

/// Exact minimum-resource shape (see file comment). Constraints must be
/// individually satisfiable (Required and Forbidden disjoint). \p Shares
/// gates which owner constraints may share a resource (two distinct owners
/// need ShareKind::Full); pass an empty matrix to treat every pair as
/// Partial (fully permissive). \p SearchNodes, when given, receives the
/// number of branch-and-bound nodes visited (0 when the bound proved the
/// greedy partition optimal).
MappingShape solveShapeExact(const std::vector<ShapeConstraint> &Constraints,
                             const ShareMatrix &Shares = {},
                             size_t *SearchNodes = nullptr);

/// The ILP formulation solved with lp::solveMilp. \p MaxResources bounds
/// the resource pool (use solveShapeExact's answer + slack, or a greedy
/// bound). Returns the shape of an optimal solution. Owner-pair
/// compatibility is encoded as witness-exclusion rows.
MappingShape solveShapeMilp(const std::vector<ShapeConstraint> &Constraints,
                            size_t NumInstructions, size_t MaxResources,
                            const ShareMatrix &Shares = {});

} // namespace palmed

#endif // PALMED_CORE_SHAPESOLVER_H
