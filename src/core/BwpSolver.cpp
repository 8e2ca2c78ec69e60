//===- core/BwpSolver.cpp - LP2/LPAUX: bipartite weight problem -----------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "core/BwpSolver.h"

#include "lp/Milp.h"
#include "lp/Simplex.h"
#include "support/Executor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

using namespace palmed;

namespace {

/// Solves \p M and adds the solve and its pivots to \p Work.
lp::Solution solveCounted(const lp::Model &M, BwpWork &Work) {
  lp::LpRunStats Stats;
  lp::Solution Sol = lp::solveLp(M, {}, lp::SimplexOptions(), &Stats);
  ++Work.Solves;
  Work.Pivots += Stats.Pivots;
  return Sol;
}

/// Shared LP2/LPAUX machinery: free weight variables plus frozen
/// contributions, per-kernel per-resource load rows, pinned or exact-MILP
/// objective handling.
class GenericBwp {
public:
  /// \p TieBreak is a tiny signed per-weight objective coefficient:
  /// positive prefers maximal consistent weights (core problem, where every
  /// resource is capped by many measured kernels), negative prefers minimal
  /// attribution (aux problem, where only the saturation probes provide
  /// evidence).
  /// \p VarScales normalizes weights for the balancing pass (a weight w
  /// with scale s contributes s*w to the balanced maximum; callers pass the
  /// instruction's solo IPC so that "fully saturating alone" compares
  /// equally across instructions). Empty disables balancing.
  GenericBwp(size_t NumResources, size_t NumVars,
             std::vector<double> VarUpperBounds, double TieBreak,
             std::vector<double> VarScales = {})
      : NumResources(NumResources), NumVars(NumVars),
        VarUpperBounds(std::move(VarUpperBounds)), TieBreak(TieBreak),
        VarScales(std::move(VarScales)) {
    assert(this->VarUpperBounds.size() == NumVars);
  }

  struct KernelRow {
    double TMeas = 0.0;
    int Pin = -1;
    /// Frozen load per resource.
    std::vector<double> FrozenLoad;
    /// Variable load per resource: (varIndex, coefficient) terms.
    std::vector<std::vector<std::pair<size_t, double>>> VarLoad;
    /// Resources with any (frozen or variable) contribution.
    std::vector<size_t> Supported;
  };

  void addKernel(KernelRow Row) {
    assert(Row.TMeas > 0.0 && "kernel with non-positive time");
    Row.Supported.clear();
    for (size_t R = 0; R < NumResources; ++R)
      if (Row.FrozenLoad[R] > 0.0 || !Row.VarLoad[R].empty())
        Row.Supported.push_back(R);
    Rows.push_back(std::move(Row));
  }

  /// Solves and returns the variable values; sets \p TotalSlack and adds
  /// the solve's LP and cache work to \p Work.
  std::vector<double> solve(BwpMode Mode, int MaxPinIterations,
                            double &TotalSlack, bool &Feasible, BwpWork &Work,
                            const BwpSolveOptions &Opts = {}) {
    std::vector<double> Values =
        Mode == BwpMode::ExactMilp
            ? solveExact(Feasible, Work)
            : solvePinned(MaxPinIterations, Feasible, Work, Opts);
    TotalSlack = 0.0;
    if (Feasible)
      for (const KernelRow &Row : Rows)
        TotalSlack += 1.0 - std::min(1.0, maxLoad(Row, Values) / Row.TMeas);
    return Values;
  }

private:
  double load(const KernelRow &Row, size_t R,
              const std::vector<double> &Values) const {
    double L = Row.FrozenLoad[R];
    for (const auto &[V, C] : Row.VarLoad[R])
      L += C * Values[V];
    return L;
  }

  double maxLoad(const KernelRow &Row, const std::vector<double> &Values) const {
    double M = 0.0;
    for (size_t R : Row.Supported)
      M = std::max(M, load(Row, R, Values));
    return M;
  }

  /// Builds the common variable/constraint skeleton. Residuals are clamped
  /// at zero: measurement noise can make a kernel appear *faster* than its
  /// frozen load alone (t < frozen), which would otherwise render the
  /// problem infeasible; the correct reading is "no attributable usage".
  void buildBase(lp::Model &M, std::vector<lp::VarId> &Vars) const {
    for (size_t V = 0; V < NumVars; ++V)
      Vars.push_back(M.addVar(std::string(), 0.0, VarUpperBounds[V]));
    for (const KernelRow &Row : Rows) {
      for (size_t R : Row.Supported) {
        lp::LinearExpr Load;
        for (const auto &[V, C] : Row.VarLoad[R])
          Load.add(Vars[V], C);
        M.addConstraint(std::move(Load), lp::Sense::LE,
                        std::max(0.0, Row.TMeas - Row.FrozenLoad[R]));
      }
    }
  }

  /// Per-resource model buffers: the capacity rows of both the primary and
  /// the balancing model never change within one pinned solve, so each is
  /// built once per resource per call and only the objective (and, for the
  /// balancing model, the primary-floor row and the CapZ tail) is patched
  /// per pin iteration.
  struct ResourceModels {
    lp::Model Primary;
    bool PrimaryBuilt = false;
    lp::Model Balance;
    bool BalanceBuilt = false;
    lp::VarId BalanceZ = -1;
    /// Constraint count of Balance without the CapZ tail row.
    size_t BalanceBase = 0;
  };

  /// Per-resource view of the rows, fixed for one pinned solve. Each
  /// variable belongs to exactly one resource by construction of the
  /// callers; its block-local LP variable id is its position there.
  struct BlockLayout {
    /// Variables of each resource, in first-use order.
    std::vector<std::vector<size_t>> Vars;
    /// Kernels with a variable load on each resource (the block's
    /// capacity rows), in kernel order.
    std::vector<std::vector<size_t>> Kernels;
    /// Block-local id of each variable.
    std::vector<int> LocalOf;
  };

  BlockLayout buildLayout() const {
    BlockLayout L;
    L.Vars.resize(NumResources);
    L.Kernels.resize(NumResources);
    L.LocalOf.assign(NumVars, -1);
    for (size_t K = 0; K < Rows.size(); ++K)
      for (size_t R = 0; R < NumResources; ++R) {
        if (Rows[K].VarLoad[R].empty())
          continue;
        L.Kernels[R].push_back(K);
        for (const auto &[V, C] : Rows[K].VarLoad[R]) {
          (void)C;
          if (L.LocalOf[V] < 0) {
            L.LocalOf[V] = static_cast<int>(L.Vars[R].size());
            L.Vars[R].push_back(V);
          }
        }
      }
    return L;
  }

  /// Adds resource \p R's variables (ids = local ids) and capacity rows.
  void addBlockRows(lp::Model &M, size_t R, const BlockLayout &L) const {
    for (size_t V : L.Vars[R])
      M.addVar(std::string(), 0.0, VarUpperBounds[V]);
    for (size_t K : L.Kernels[R]) {
      const KernelRow &Row = Rows[K];
      lp::LinearExpr Load;
      for (const auto &[V, C] : Row.VarLoad[R])
        Load.add(L.LocalOf[V], C);
      M.addConstraint(std::move(Load), lp::Sense::LE,
                      std::max(0.0, Row.TMeas - Row.FrozenLoad[R]));
    }
  }

  /// Saturation objective of resource \p R's block under \p Pins, in local
  /// variable ids. The tie-break is kept out of it so the balancing pass
  /// can preserve the saturation value exactly.
  lp::LinearExpr pinnedObjective(size_t R, const std::vector<int> &Pins,
                                 const BlockLayout &L) const {
    lp::LinearExpr Obj;
    for (size_t K : L.Kernels[R]) {
      const KernelRow &Row = Rows[K];
      if (Pins[K] == static_cast<int>(R)) {
        for (const auto &[V, C] : Row.VarLoad[R])
          Obj.add(L.LocalOf[V], C / Row.TMeas);
      } else if (Pins[K] == -1) {
        // Unpinned (first iteration): spread the objective across the
        // kernel's supported resources.
        double Scale = Row.TMeas * static_cast<double>(std::max<size_t>(
                                       1, Row.Supported.size()));
        for (const auto &[V, C] : Row.VarLoad[R])
          Obj.add(L.LocalOf[V], C / Scale);
      }
    }
    Obj.normalize();
    return Obj;
  }

  /// Digest of everything resource \p R's block solution depends on except
  /// the pinned objective: bounds, scales, tie-break and capacity rows in
  /// local numbering. The resource index is left out, so structurally
  /// identical blocks of different resources share cache entries.
  lp::StructuralDigest skeletonDigest(size_t R, const BlockLayout &L) const {
    lp::StructuralDigest D;
    D.addSize(L.Vars[R].size());
    for (size_t V : L.Vars[R])
      D.addDouble(VarUpperBounds[V]);
    D.addU64(VarScales.empty() ? 0 : 1);
    if (!VarScales.empty())
      for (size_t V : L.Vars[R])
        D.addDouble(VarScales[V]);
    D.addDouble(TieBreak);
    D.addSize(L.Kernels[R].size());
    for (size_t K : L.Kernels[R]) {
      const KernelRow &Row = Rows[K];
      D.addSize(Row.VarLoad[R].size());
      for (const auto &[V, C] : Row.VarLoad[R]) {
        D.addInt(L.LocalOf[V]);
        D.addDouble(C);
      }
      D.addDouble(std::max(0.0, Row.TMeas - Row.FrozenLoad[R]));
    }
    return D;
  }

  /// Solves resource \p R's block for \p PinnedObj, writes its values
  /// into \p Values and adds its LPs to \p Work. Returns false, leaving
  /// \p Values untouched, when the primary LP fails. Reads only fixed
  /// state and touches only R's variables, \p RM (R's model buffers) and
  /// \p Work, so blocks of different resources may solve concurrently.
  bool solveBlock(size_t R, const lp::LinearExpr &PinnedObj,
                  const BlockLayout &L, ResourceModels &RM,
                  std::vector<double> &Values, BwpWork &Work) const {
    const std::vector<size_t> &RVars = L.Vars[R];
    const size_t NumRowsR = L.Kernels[R].size();
    lp::Model &M = RM.Primary;
    if (!RM.PrimaryBuilt) {
      addBlockRows(M, R, L);
      RM.PrimaryBuilt = true;
    }
    lp::LinearExpr Obj = PinnedObj;
    for (size_t I = 0; I < RVars.size(); ++I)
      Obj.add(static_cast<lp::VarId>(I), TieBreak);
    M.setObjective(std::move(Obj), lp::Goal::Maximize);
    lp::Solution Sol = solveCounted(M, Work);
    if (Sol.Status != lp::SolveStatus::Optimal)
      return false;
    if (!VarScales.empty()) {
      // Balancing pass: the measured kernels often leave the split of a
      // resource's capacity between instructions under-determined (any
      // vertex of the optimal face fits). The dual's weights are uniform
      // per resource (use/|J|), so among the optima prefer the most
      // balanced one: fix the primary objective and minimize the largest
      // scaled weight.
      lp::Model &M2 = RM.Balance;
      if (RM.BalanceBuilt) {
        // Drop the previous iteration's CapZ tail; the rows and the
        // primary-floor slot below survive verbatim.
        M2.truncateConstraints(RM.BalanceBase);
      } else {
        addBlockRows(M2, R, L);
        // Primary-objective floor: placeholder row at a stable index,
        // patched (replaceConstraint) before every solve.
        M2.addConstraint(lp::LinearExpr(), lp::Sense::GE, 0.0);
        RM.BalanceZ = M2.addVar("z", 0.0, lp::Infinity);
        for (size_t V : RVars) {
          lp::LinearExpr E;
          E.add(L.LocalOf[V], VarScales[V]).add(RM.BalanceZ, -1.0);
          M2.addConstraint(std::move(E), lp::Sense::LE, 0.0);
        }
        RM.BalanceBuilt = true;
        RM.BalanceBase = M2.numConstraints();
      }
      const lp::VarId Z = RM.BalanceZ;
      // Keep the saturation-objective value (model M's variable ids
      // coincide with local indices, as do M2's).
      lp::LinearExpr Primary;
      double PinnedValue = 0.0;
      for (const auto &[V, C] : PinnedObj.terms()) {
        Primary.add(V, C);
        PinnedValue += C * Sol.value(V);
      }
      M2.replaceConstraint(NumRowsR, std::move(Primary), lp::Sense::GE,
                           PinnedValue - 1e-9);
      lp::LinearExpr Obj2;
      Obj2.add(Z, 1.0);
      M2.setObjective(std::move(Obj2), lp::Goal::Minimize);
      lp::Solution Sol2 = solveCounted(M2, Work);
      if (Sol2.Status == lp::SolveStatus::Optimal) {
        // Third pass: with the saturation value and the balanced ceiling
        // fixed, raise every weight to its consistent maximum (min-max
        // alone leaves the non-binding weights at arbitrary vertices below
        // the ceiling).
        lp::LinearExpr CapZ;
        CapZ.add(Z, 1.0);
        M2.addConstraint(std::move(CapZ), lp::Sense::LE,
                         Sol2.Objective + 1e-9);
        lp::LinearExpr Obj3;
        for (size_t V : RVars)
          Obj3.add(L.LocalOf[V], 1.0);
        M2.setObjective(std::move(Obj3), lp::Goal::Maximize);
        lp::Solution Sol3 = solveCounted(M2, Work);
        const lp::Solution &Fin =
            Sol3.Status == lp::SolveStatus::Optimal ? Sol3 : Sol2;
        for (size_t V : RVars)
          Values[V] = Fin.value(L.LocalOf[V]);
        return true;
      }
    }
    for (size_t V : RVars)
      Values[V] = Sol.value(L.LocalOf[V]);
    return true;
  }

  /// Pinned mode exploits the BWP's structure: the capacity constraints
  /// sum weights *within* one resource only, and the pinned objective is a
  /// sum of per-resource terms — so each pin round splits into one small
  /// LP block per resource, keeping the core problem tractable even with
  /// thousands of kernels. Pins change only between rounds, so the blocks
  /// of one round are independent. A round runs in three steps:
  ///  1. a serial probe pass builds each block's pinned objective, skips
  ///     blocks whose objective did not change, and probes the optional
  ///     cross-call cache; a block whose digest an earlier block of the
  ///     same round will solve becomes that block's follower;
  ///  2. the remaining blocks solve over Opts.Exec (inline when null);
  ///  3. a serial pass publishes, in resource order, each block's cache
  ///     entry, adds its work to \p Work, and replays leaders' values into
  ///     their followers.
  /// Values, cache contents and work equal those of solving the blocks one
  /// at a time in resource order (where a follower hits the entry its
  /// leader just published), at any executor width.
  std::vector<double> solvePinned(int MaxPinIterations, bool &Feasible,
                                  BwpWork &Work, const BwpSolveOptions &Opts) {
    // Working pins; fixed pins are respected, free pins start unassigned.
    std::vector<int> Pins(Rows.size(), -1);
    for (size_t K = 0; K < Rows.size(); ++K)
      Pins[K] = Rows[K].Pin;
    const BlockLayout L = buildLayout();

    std::vector<double> Values(NumVars, 0.0);
    // Per-resource objective of the last solved round: when a pin pass
    // leaves a resource's objective unchanged, its LP (and the balancing
    // passes) would reproduce the exact same solution — the solver is
    // deterministic — so the block is skipped and Values stay as-is.
    std::vector<std::vector<std::pair<lp::VarId, double>>> PrevObj(
        NumResources);
    std::vector<uint8_t> HasPrev(NumResources, 0);
    std::vector<ResourceModels> Models(NumResources);
    std::vector<lp::StructuralDigest> SkelDigest(NumResources);
    if (Opts.Cache)
      for (size_t R = 0; R < NumResources; ++R)
        SkelDigest[R] = skeletonDigest(R, L);

    struct Block {
      size_t R = 0;
      lp::LinearExpr Obj;
      lp::StructuralDigest::Value Digest;
      /// Block (index into the round) this one replays; -1 = solves.
      long Leader = -1;
      bool Ok = false;
      BwpWork Work;
    };
    auto Publish = [&](const Block &B) {
      PrevObj[B.R] = B.Obj.terms();
      HasPrev[B.R] = 1;
      if (!Opts.Cache)
        return;
      BwpSubproblemCache::Entry E;
      for (size_t V : L.Vars[B.R])
        E.Values.push_back(Values[V]);
      Opts.Cache->insert(B.Digest, std::move(E));
    };

    for (int Iter = 0; Iter < MaxPinIterations; ++Iter) {
      // ---- Probe pass. ----
      std::vector<Block> Blocks;
      std::vector<size_t> ToSolve;
      std::map<lp::StructuralDigest::Value, size_t> RoundLeader;
      for (size_t R = 0; R < NumResources; ++R) {
        const std::vector<size_t> &RVars = L.Vars[R];
        if (RVars.empty())
          continue;
        Block B;
        B.R = R;
        B.Obj = pinnedObjective(R, Pins, L);
        if (HasPrev[R] && PrevObj[R] == B.Obj.terms())
          continue; // Identical subproblem: Values already hold it.
        if (Opts.Cache) {
          // The block digest covers everything the block's solution
          // depends on, so an exact hit replays the deterministic
          // solver's output verbatim.
          lp::StructuralDigest D = SkelDigest[R];
          D.addSize(B.Obj.terms().size());
          for (const auto &[V, C] : B.Obj.terms()) {
            D.addInt(V);
            D.addDouble(C);
          }
          B.Digest = D.value();
          ++Work.CacheProbes;
          if (const BwpSubproblemCache::Entry *Hit =
                  Opts.Cache->find(B.Digest)) {
            assert(Hit->Values.size() == RVars.size());
            ++Work.CacheHits;
            for (size_t I = 0; I < RVars.size(); ++I)
              Values[RVars[I]] = Hit->Values[I];
            PrevObj[R] = B.Obj.terms();
            HasPrev[R] = 1;
            continue;
          }
          auto [It, First] = RoundLeader.try_emplace(B.Digest, Blocks.size());
          if (!First)
            B.Leader = static_cast<long>(It->second);
        }
        if (B.Leader < 0)
          ToSolve.push_back(Blocks.size());
        Blocks.push_back(std::move(B));
      }

      // ---- Solve pass. ----
      auto Solve = [&](size_t I, unsigned) {
        Block &B = Blocks[ToSolve[I]];
        B.Ok = solveBlock(B.R, B.Obj, L, Models[B.R], Values, B.Work);
      };
      if (Opts.Exec)
        Opts.Exec->parallelFor(ToSolve.size(), Solve);
      else
        for (size_t I = 0; I < ToSolve.size(); ++I)
          Solve(I, 0);

      // ---- Publish pass. ----
      bool AllSolved = true;
      for (Block &B : Blocks) {
        if (B.Leader < 0) {
          Work += B.Work;
        } else if (const Block &Lead = Blocks[static_cast<size_t>(B.Leader)];
                   Lead.Ok) {
          // A hit on the entry the leader just published.
          ++Work.CacheHits;
          const std::vector<size_t> &From = L.Vars[Lead.R], &To = L.Vars[B.R];
          for (size_t I = 0; I < To.size(); ++I)
            Values[To[I]] = Values[From[I]];
          PrevObj[B.R] = B.Obj.terms();
          HasPrev[B.R] = 1;
          continue;
        } else {
          // The leader failed and published nothing: solve this block.
          B.Ok = solveBlock(B.R, B.Obj, L, Models[B.R], Values, Work);
        }
        if (B.Ok)
          Publish(B);
        else
          AllSolved = false;
      }
      if (!AllSolved) {
        Feasible = false;
        return Values;
      }

      // Re-derive pins for free kernels; stop at a fixed point.
      bool Changed = false;
      for (size_t K = 0; K < Rows.size(); ++K) {
        if (Rows[K].Pin != -1)
          continue; // Fixed by the caller, or constraint-only.
        const KernelRow &Row = Rows[K];
        int BestR = -1;
        double BestLoad = -1.0;
        for (size_t R : Row.Supported) {
          double Load = load(Row, R, Values);
          if (Load > BestLoad + 1e-12) {
            BestLoad = Load;
            BestR = static_cast<int>(R);
          }
        }
        if (BestR != Pins[K]) {
          Pins[K] = BestR;
          Changed = true;
        }
      }
      if (!Changed && Iter > 0)
        break;
    }
    Feasible = true;
    return Values;
  }

  std::vector<double> solveExact(bool &Feasible, BwpWork &Work) {
    lp::Model M;
    std::vector<lp::VarId> Vars;
    buildBase(M, Vars);

    lp::LinearExpr Obj;
    for (size_t K = 0; K < Rows.size(); ++K) {
      const KernelRow &Row = Rows[K];
      if (Row.Supported.empty() || Row.Pin == WeightKernel::ConstraintOnly)
        continue;
      if (Row.Pin >= 0) {
        // Pinned kernels contribute their pinned saturation linearly.
        size_t R = static_cast<size_t>(Row.Pin);
        for (const auto &[V, C] : Row.VarLoad[R])
          Obj.add(Vars[V], C / Row.TMeas);
        continue;
      }
      lp::VarId S = M.addVar("S" + std::to_string(K), 0.0, 1.0);
      Obj.add(S, 1.0);
      lp::LinearExpr PickOne;
      for (size_t R : Row.Supported) {
        lp::VarId Z = M.addBoolVar("z" + std::to_string(K) + "_" +
                                   std::to_string(R));
        PickOne.add(Z, 1.0);
        // S <= load/t + (1 - z)
        lp::LinearExpr E;
        E.add(S, 1.0).add(Z, 1.0);
        for (const auto &[V, C] : Row.VarLoad[R])
          E.add(Vars[V], -C / Row.TMeas);
        M.addConstraint(std::move(E), lp::Sense::LE,
                        1.0 + Row.FrozenLoad[R] / Row.TMeas);
      }
      M.addConstraint(std::move(PickOne), lp::Sense::EQ, 1.0);
    }
    M.setObjective(std::move(Obj), lp::Goal::Maximize);

    lp::MilpStats Stats;
    lp::Solution Sol = lp::solveMilp(M, lp::MilpOptions(), &Stats);
    Work.Solves += Stats.LpSolves;
    Work.Pivots += Stats.LpPivots;
    Feasible = Sol.ok();
    std::vector<double> Values(NumVars, 0.0);
    if (Feasible)
      for (size_t V = 0; V < NumVars; ++V)
        Values[V] = Sol.value(Vars[V]);
    return Values;
  }

  size_t NumResources;
  size_t NumVars;
  std::vector<double> VarUpperBounds;
  double TieBreak;
  std::vector<double> VarScales;
  std::vector<KernelRow> Rows;
};

} // namespace

const BwpSubproblemCache::Entry *
BwpSubproblemCache::find(const lp::StructuralDigest::Value &D) const {
  auto It = Entries.find(D);
  return It == Entries.end() ? nullptr : &It->second;
}

void BwpSubproblemCache::insert(const lp::StructuralDigest::Value &D,
                                Entry E) {
  if (Entries.size() >= MaxEntries)
    clear();
  Entries.try_emplace(D, std::move(E));
}

void BwpSubproblemCache::clear() { Entries.clear(); }

CoreWeights palmed::solveCoreWeights(const MappingShape &Shape,
                                     const std::map<InstrId, size_t> &IndexOf,
                                     const std::vector<WeightKernel> &Kernels,
                                     BwpMode Mode, int MaxPinIterations,
                                     const std::vector<double> &SoloIpc,
                                     const BwpSolveOptions &Options) {
  const size_t NumRes = Shape.numResources();
  const size_t NumBasic = IndexOf.size();

  // Enumerate free edge variables from the shape.
  std::vector<std::vector<int>> EdgeVar(NumBasic,
                                        std::vector<int>(NumRes, -1));
  size_t NumVars = 0;
  for (size_t I = 0; I < NumBasic; ++I)
    for (size_t R = 0; R < NumRes; ++R)
      if (Shape.instrUses(I, R))
        EdgeVar[I][R] = static_cast<int>(NumVars++);

  std::vector<double> VarScales;
  if (!SoloIpc.empty()) {
    VarScales.assign(NumVars, 1.0);
    for (size_t I = 0; I < NumBasic; ++I)
      for (size_t R = 0; R < NumRes; ++R)
        if (EdgeVar[I][R] >= 0)
          VarScales[static_cast<size_t>(EdgeVar[I][R])] = SoloIpc[I];
  }
  GenericBwp Bwp(NumRes, NumVars, std::vector<double>(NumVars, 1.0),
                 /*TieBreak=*/1e-6, std::move(VarScales));
  for (const WeightKernel &WK : Kernels) {
    GenericBwp::KernelRow Row;
    Row.TMeas = WK.measuredCycles();
    Row.Pin = WK.PinnedResource;
    Row.FrozenLoad.assign(NumRes, 0.0);
    Row.VarLoad.assign(NumRes, {});
    for (const auto &[Id, Mult] : WK.K.terms()) {
      size_t I = IndexOf.at(Id);
      for (size_t R = 0; R < NumRes; ++R)
        if (EdgeVar[I][R] >= 0)
          Row.VarLoad[R].push_back({static_cast<size_t>(EdgeVar[I][R]), Mult});
    }
    Bwp.addKernel(std::move(Row));
  }

  CoreWeights Out;
  bool Feasible = false;
  std::vector<double> Values = Bwp.solve(Mode, MaxPinIterations, Out.TotalSlack,
                                         Feasible, Out.Work, Options);
  assert(Feasible && "core BWP must be feasible (slack model)");

  Out.Rho.assign(NumBasic, std::vector<double>(NumRes, 0.0));
  for (size_t I = 0; I < NumBasic; ++I)
    for (size_t R = 0; R < NumRes; ++R)
      if (EdgeVar[I][R] >= 0)
        Out.Rho[I][R] = Values[static_cast<size_t>(EdgeVar[I][R])];
  return Out;
}

AuxWeights
palmed::solveAuxWeights(const MappingShape &Shape,
                        const std::map<InstrId, size_t> &IndexOf,
                        const std::vector<std::vector<double>> &FrozenRho,
                        InstrId Inst, const std::vector<WeightKernel> &Kernels,
                        BwpMode Mode, int MaxPinIterations) {
  const size_t NumRes = Shape.numResources();

  // One free variable per resource for the new instruction; unbounded above
  // (low-IPC instructions legitimately exceed a full resource per instance).
  GenericBwp Bwp(NumRes, NumRes, std::vector<double>(NumRes, lp::Infinity),
                 /*TieBreak=*/-1e-6);
  for (const WeightKernel &WK : Kernels) {
    GenericBwp::KernelRow Row;
    Row.TMeas = WK.measuredCycles();
    Row.Pin = WK.PinnedResource;
    Row.FrozenLoad.assign(NumRes, 0.0);
    Row.VarLoad.assign(NumRes, {});
    for (const auto &[Id, Mult] : WK.K.terms()) {
      if (Id == Inst) {
        for (size_t R = 0; R < NumRes; ++R)
          Row.VarLoad[R].push_back({R, Mult});
        continue;
      }
      size_t I = IndexOf.at(Id);
      for (size_t R = 0; R < NumRes; ++R)
        Row.FrozenLoad[R] += Mult * FrozenRho[I][R];
    }
    Bwp.addKernel(std::move(Row));
  }

  AuxWeights Out;
  Out.Rho = Bwp.solve(Mode, MaxPinIterations, Out.TotalSlack, Out.Feasible,
                      Out.Work);
  return Out;
}
