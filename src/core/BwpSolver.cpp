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
#include <memory>
#include <numeric>
#include <string>

using namespace palmed;

namespace {

/// All pinned-mode BWP relaxations run the compat solver: the refinement
/// loop and the saturating-kernel choice consume raw solution *vertices*
/// (not just objective values), and degenerate optima make the vertex a
/// function of the pivot sequence — pinning the historical sequence keeps
/// mapping outcomes reproducible across solver generations.
lp::SimplexOptions compatLpOptions() {
  lp::SimplexOptions Options;
  Options.Pricing = lp::LpPricing::Dantzig;
  return Options;
}

lp::LpTelemetry telemetryDelta(const lp::LpTelemetry &Now,
                               const lp::LpTelemetry &Before) {
  lp::LpTelemetry D;
  D.Solves = Now.Solves - Before.Solves;
  D.Pivots = Now.Pivots - Before.Pivots;
  D.DualPivots = Now.DualPivots - Before.DualPivots;
  D.BoundFlips = Now.BoundFlips - Before.BoundFlips;
  D.WarmStartAttempts = Now.WarmStartAttempts - Before.WarmStartAttempts;
  D.WarmStartHits = Now.WarmStartHits - Before.WarmStartHits;
  return D;
}

void telemetryAdd(lp::LpTelemetry &T, const lp::LpTelemetry &D) {
  T.Solves += D.Solves;
  T.Pivots += D.Pivots;
  T.DualPivots += D.DualPivots;
  T.BoundFlips += D.BoundFlips;
  T.WarmStartAttempts += D.WarmStartAttempts;
  T.WarmStartHits += D.WarmStartHits;
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

  /// Solves and returns the variable values; sets \p TotalSlack.
  std::vector<double> solve(BwpMode Mode, int MaxPinIterations,
                            double &TotalSlack, bool &Feasible,
                            const BwpSolveOptions &Opts = {}) {
    std::vector<double> Values =
        Mode == BwpMode::ExactMilp
            ? solveExact(Feasible)
            : solvePinned(MaxPinIterations, Feasible, Opts);
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

  /// Reusable per-resource model buffers: the capacity rows of both the
  /// primary and the balancing model never change within one pinned solve,
  /// so each is built once per resource per call and only the objective
  /// (and, for the balancing model, the primary-floor row and the CapZ
  /// tail) is patched per pin iteration. This replaces the historical
  /// from-scratch lp::Model reconstruction on every iteration, which
  /// re-allocated identical variable/constraint storage each time.
  struct ResourceModels {
    lp::Model Primary;
    bool PrimaryBuilt = false;
    lp::Model Balance;
    bool BalanceBuilt = false;
    lp::VarId BalanceZ = -1;
    /// Constraint count of Balance without the CapZ tail row.
    size_t BalanceBase = 0;
    /// Capacity rows shared by both models (the primary-floor row index).
    size_t NumCapacityRows = 0;
  };

  /// Partitions resources (and their kernels) into coupling components.
  /// Each variable belongs to exactly one resource and each kernel only
  /// reads/constrains/pins within its Supported set, so two resources
  /// interact only when some kernel supports both: solving the union-find
  /// components separately — in any order, or in parallel — reproduces
  /// the monolithic interleaved pin loop bit for bit (a converged
  /// component's objectives stop changing, so the monolithic loop's extra
  /// passes over it are skipped as identical subproblems anyway).
  /// \p Decompose false collapses everything into one pseudo-component,
  /// which *is* the historical monolithic loop.
  void buildComponents(bool Decompose,
                       std::vector<std::vector<size_t>> &CompResources,
                       std::vector<std::vector<size_t>> &CompKernels) const {
    CompResources.clear();
    CompKernels.clear();
    if (!Decompose) {
      CompResources.emplace_back(NumResources);
      std::iota(CompResources.back().begin(), CompResources.back().end(),
                size_t{0});
      CompKernels.emplace_back(Rows.size());
      std::iota(CompKernels.back().begin(), CompKernels.back().end(),
                size_t{0});
      return;
    }
    std::vector<size_t> Parent(NumResources);
    std::iota(Parent.begin(), Parent.end(), size_t{0});
    auto Find = [&](size_t R) {
      while (Parent[R] != R) {
        Parent[R] = Parent[Parent[R]];
        R = Parent[R];
      }
      return R;
    };
    for (const KernelRow &Row : Rows)
      for (size_t I = 1; I < Row.Supported.size(); ++I)
        Parent[Find(Row.Supported[I])] = Find(Row.Supported[0]);
    // Component ids in ascending order of their smallest resource, so the
    // decomposition (and everything derived from it) is deterministic.
    std::vector<int> CompId(NumResources, -1);
    for (size_t R = 0; R < NumResources; ++R) {
      size_t Root = Find(R);
      if (CompId[Root] < 0) {
        CompId[Root] = static_cast<int>(CompResources.size());
        CompResources.emplace_back();
        CompKernels.emplace_back();
      }
      CompResources[static_cast<size_t>(CompId[Root])].push_back(R);
    }
    for (size_t K = 0; K < Rows.size(); ++K) {
      if (Rows[K].Supported.empty())
        continue; // No loads anywhere: contributes nothing to any solve.
      CompKernels[static_cast<size_t>(CompId[Find(Rows[K].Supported[0])])]
          .push_back(K);
    }
  }

  /// Pinned mode exploits the BWP's structure: the capacity constraints
  /// sum weights *within* one resource only, and the pinned objective is a
  /// sum of per-resource terms — so each pin iteration decomposes into one
  /// small LP per resource, keeping the core problem tractable even with
  /// thousands of kernels. On top of that per-resource split, the solve
  /// decomposes into resource-coupling components (see buildComponents)
  /// that run independently, optionally fanned over an Executor, and an
  /// optional cross-call cache short-circuits blocks whose exact structure
  /// was solved before.
  std::vector<double> solvePinned(int MaxPinIterations, bool &Feasible,
                                  const BwpSolveOptions &Opts) {
    // Working pins; fixed pins are respected, free pins start unassigned.
    std::vector<int> Pins(Rows.size(), -1);
    for (size_t K = 0; K < Rows.size(); ++K)
      Pins[K] = Rows[K].Pin;

    // Variables touching each resource (each variable belongs to exactly
    // one resource by construction of the callers).
    std::vector<std::vector<size_t>> ResourceVars(NumResources);
    {
      std::vector<bool> Seen(NumVars, false);
      for (const KernelRow &Row : Rows)
        for (size_t R = 0; R < NumResources; ++R)
          for (const auto &[V, C] : Row.VarLoad[R]) {
            (void)C;
            if (!Seen[V]) {
              Seen[V] = true;
              ResourceVars[R].push_back(V);
            }
          }
    }

    std::vector<double> Values(NumVars, 0.0);
    // Per-resource objective of the last solved iteration: when a pin pass
    // leaves a resource's objective unchanged, its LP (and the balancing
    // passes) would reproduce the exact same solution — the solver is
    // deterministic — so the solve is skipped and Values stay as-is.
    std::vector<std::vector<std::pair<lp::VarId, double>>> PrevObj(
        NumResources);
    std::vector<uint8_t> HasPrev(NumResources, 0);

    std::vector<std::vector<size_t>> CompResources, CompKernels;
    buildComponents(Opts.Decompose, CompResources, CompKernels);
    const size_t NumComps = CompResources.size();
    const bool FanOut = Opts.Exec && NumComps > 1;
    if (Opts.Stats) {
      Opts.Stats->Components = static_cast<int>(NumComps);
      Opts.Stats->Decomposed = FanOut;
    }

    // Per-resource scratch. Shared across components, but every component
    // only touches its own resources, so all writes are disjoint (the
    // index-slot discipline of the fan-out below).
    std::vector<std::unique_ptr<ResourceModels>> Models(NumResources);
    std::vector<lp::StructuralDigest> SkelDigest(NumResources);
    std::vector<uint8_t> HasSkel(NumResources, 0);

    // Solves one component to its own pin fixed point. Cache probes check
    // \p Sink (the component's publish target) before \p Shared (the
    // read-only pre-solve snapshot); a null \p Shared means \p Sink is
    // probed alone. Returns false when any block failed to solve — the
    // component then stops after the failing pass, like the monolithic
    // loop. (With several components the others still run to their own
    // fixed points; the divergence is benign because every caller
    // discards the weights of an infeasible solve.)
    auto RunComponent = [&](size_t CI, const BwpSubproblemCache *Shared,
                            BwpSubproblemCache *Sink) -> bool {
      // Component-local variable renumbering scratch, written and undone
      // per block instead of re-allocated NumVars-wide on every solve.
      std::vector<int> LocalOf(NumVars, -1);
      const std::vector<size_t> &Resources = CompResources[CI];
      const std::vector<size_t> &Kernels = CompKernels[CI];
      for (int Iter = 0; Iter < MaxPinIterations; ++Iter) {
        bool AllSolved = true;
        for (size_t R : Resources) {
          const std::vector<size_t> &RVars = ResourceVars[R];
          if (RVars.empty())
            continue;
          for (size_t I = 0; I < RVars.size(); ++I)
            LocalOf[RVars[I]] = static_cast<int>(I);
          bool BlockSolved = [&]() -> bool {
            // Saturation objective (pinned loads); the tie-break is kept
            // in a separate expression so the balancing pass can preserve
            // the saturation value exactly, without the tie-break
            // distorting it. Local variable ids equal their position in
            // ResourceVars[R].
            lp::LinearExpr PinnedObj;
            for (size_t K : Kernels) {
              const KernelRow &Row = Rows[K];
              if (Row.VarLoad[R].empty() && Row.FrozenLoad[R] == 0.0)
                continue;
              if (Pins[K] == static_cast<int>(R)) {
                for (const auto &[V, C] : Row.VarLoad[R])
                  PinnedObj.add(LocalOf[V], C / Row.TMeas);
              } else if (Pins[K] == -1) {
                // Unpinned (first iteration): spread the objective across
                // the kernel's supported resources.
                double Scale = Row.TMeas *
                               static_cast<double>(
                                   std::max<size_t>(1, Row.Supported.size()));
                for (const auto &[V, C] : Row.VarLoad[R])
                  PinnedObj.add(LocalOf[V], C / Scale);
              }
            }
            PinnedObj.normalize();
            if (HasPrev[R] && PrevObj[R] == PinnedObj.terms())
              return true; // Identical subproblem: Values[.] already hold
                           // its solution.

            // Cache probe: the block digest covers everything the block's
            // solution depends on (bounds, scales, tie-break, capacity
            // rows in local numbering, pinned objective), so an exact hit
            // replays the deterministic solver's output verbatim.
            lp::StructuralDigest BlockDigest;
            if (Opts.Cache) {
              if (!HasSkel[R]) {
                lp::StructuralDigest &D = SkelDigest[R];
                D.addSize(RVars.size());
                for (size_t V : RVars)
                  D.addDouble(VarUpperBounds[V]);
                D.addU64(VarScales.empty() ? 0 : 1);
                if (!VarScales.empty())
                  for (size_t V : RVars)
                    D.addDouble(VarScales[V]);
                D.addDouble(TieBreak);
                size_t NumRowsR = 0;
                for (size_t K : Kernels)
                  if (!Rows[K].VarLoad[R].empty())
                    ++NumRowsR;
                D.addSize(NumRowsR);
                for (size_t K : Kernels) {
                  const KernelRow &Row = Rows[K];
                  if (Row.VarLoad[R].empty())
                    continue;
                  D.addSize(Row.VarLoad[R].size());
                  for (const auto &[V, C] : Row.VarLoad[R]) {
                    D.addInt(LocalOf[V]);
                    D.addDouble(C);
                  }
                  D.addDouble(std::max(0.0, Row.TMeas - Row.FrozenLoad[R]));
                }
                HasSkel[R] = 1;
              }
              BlockDigest = SkelDigest[R];
              BlockDigest.addSize(PinnedObj.terms().size());
              for (const auto &[V, C] : PinnedObj.terms()) {
                BlockDigest.addInt(V);
                BlockDigest.addDouble(C);
              }
              ++lp::lpTelemetry().WarmStartAttempts;
              const lp::StructuralDigest::Value BD = BlockDigest.value();
              const BwpSubproblemCache::Entry *Hit = Sink->find(BD);
              if (!Hit && Shared)
                Hit = Shared->find(BD);
              if (Hit) {
                assert(Hit->Values.size() == RVars.size());
                ++lp::lpTelemetry().WarmStartHits;
                for (size_t I = 0; I < RVars.size(); ++I)
                  Values[RVars[I]] = Hit->Values[I];
                PrevObj[R] = PinnedObj.terms();
                HasPrev[R] = 1;
                return true;
              }
            }
            auto Publish = [&] {
              if (!Opts.Cache)
                return;
              BwpSubproblemCache::Entry E;
              E.Values.reserve(RVars.size());
              for (size_t V : RVars)
                E.Values.push_back(Values[V]);
              Sink->insert(BlockDigest.value(), std::move(E));
            };

            lp::Model FreshPrimary;
            lp::Model *MP = &FreshPrimary;
            if (Opts.ReuseModels) {
              if (!Models[R])
                Models[R] = std::make_unique<ResourceModels>();
              MP = &Models[R]->Primary;
            }
            lp::Model &M = *MP;
            if (!Opts.ReuseModels || !Models[R]->PrimaryBuilt) {
              size_t NumRowsR = 0;
              // Variable ids coincide with local indices by construction.
              for (size_t V : RVars)
                M.addVar(std::string(), 0.0, VarUpperBounds[V]);
              for (size_t K : Kernels) {
                const KernelRow &Row = Rows[K];
                if (Row.VarLoad[R].empty())
                  continue;
                lp::LinearExpr Load;
                for (const auto &[V, C] : Row.VarLoad[R])
                  Load.add(LocalOf[V], C);
                M.addConstraint(std::move(Load), lp::Sense::LE,
                                std::max(0.0, Row.TMeas - Row.FrozenLoad[R]));
                ++NumRowsR;
              }
              if (Opts.ReuseModels) {
                Models[R]->PrimaryBuilt = true;
                Models[R]->NumCapacityRows = NumRowsR;
              }
            }
            lp::LinearExpr Obj = PinnedObj;
            for (size_t I = 0; I < RVars.size(); ++I)
              Obj.add(static_cast<lp::VarId>(I), TieBreak);
            M.setObjective(std::move(Obj), lp::Goal::Maximize);
            lp::Solution Sol = lp::solveLp(M, {}, compatLpOptions());
            if (Sol.Status != lp::SolveStatus::Optimal)
              return false;
            PrevObj[R] = PinnedObj.terms();
            HasPrev[R] = 1;
            if (!VarScales.empty()) {
              // Balancing pass: the measured kernels often leave the
              // split of a resource's capacity between instructions
              // under-determined (any vertex of the optimal face fits).
              // The dual's weights are uniform per resource (use/|J|), so
              // among the optima prefer the most balanced one: fix the
              // primary objective and minimize the largest scaled weight.
              lp::Model FreshBalance;
              lp::Model *M2P = &FreshBalance;
              lp::VarId Z = -1;
              size_t NumRowsR = 0;
              bool Build = true;
              if (Opts.ReuseModels) {
                ResourceModels &RM = *Models[R];
                M2P = &RM.Balance;
                NumRowsR = RM.NumCapacityRows;
                if (RM.BalanceBuilt) {
                  Build = false;
                  Z = RM.BalanceZ;
                  // Drop the previous iteration's CapZ tail; the rows and
                  // the primary-floor slot below survive verbatim.
                  RM.Balance.truncateConstraints(RM.BalanceBase);
                }
              }
              lp::Model &M2 = *M2P;
              if (Build) {
                NumRowsR = 0;
                for (size_t V : RVars)
                  M2.addVar(std::string(), 0.0, VarUpperBounds[V]);
                // Re-add the capacity rows.
                for (size_t K : Kernels) {
                  const KernelRow &Row = Rows[K];
                  if (Row.VarLoad[R].empty())
                    continue;
                  lp::LinearExpr Load;
                  for (const auto &[V, C] : Row.VarLoad[R])
                    Load.add(LocalOf[V], C);
                  M2.addConstraint(std::move(Load), lp::Sense::LE,
                                   std::max(0.0,
                                            Row.TMeas - Row.FrozenLoad[R]));
                  ++NumRowsR;
                }
                // Primary-objective floor: placeholder row at a stable
                // index, patched (replaceConstraint) before every solve.
                M2.addConstraint(lp::LinearExpr(), lp::Sense::GE, 0.0);
                Z = M2.addVar("z", 0.0, lp::Infinity);
                for (size_t V : RVars) {
                  lp::LinearExpr E;
                  E.add(LocalOf[V], VarScales[V]).add(Z, -1.0);
                  M2.addConstraint(std::move(E), lp::Sense::LE, 0.0);
                }
                if (Opts.ReuseModels) {
                  ResourceModels &RM = *Models[R];
                  RM.BalanceBuilt = true;
                  RM.BalanceZ = Z;
                  RM.BalanceBase = M2.numConstraints();
                  RM.NumCapacityRows = NumRowsR;
                }
              }
              // Keep the saturation-objective value (model M's variable
              // ids coincide with local indices, as do M2's).
              lp::LinearExpr Primary;
              double PinnedValue = 0.0;
              for (const auto &[V, C] : PinnedObj.terms()) {
                Primary.add(V, C);
                PinnedValue += C * Sol.value(V);
              }
              M2.replaceConstraint(NumRowsR, std::move(Primary),
                                   lp::Sense::GE, PinnedValue - 1e-9);
              lp::LinearExpr Obj2;
              Obj2.add(Z, 1.0);
              M2.setObjective(std::move(Obj2), lp::Goal::Minimize);
              lp::Solution Sol2 = lp::solveLp(M2, {}, compatLpOptions());
              if (Sol2.Status == lp::SolveStatus::Optimal) {
                // Third pass: with the saturation value and the balanced
                // ceiling fixed, raise every weight to its consistent
                // maximum (min-max alone leaves the non-binding weights
                // at arbitrary vertices below the ceiling).
                lp::LinearExpr CapZ;
                CapZ.add(Z, 1.0);
                M2.addConstraint(std::move(CapZ), lp::Sense::LE,
                                 Sol2.Objective + 1e-9);
                lp::LinearExpr Obj3;
                for (size_t V : RVars)
                  Obj3.add(LocalOf[V], 1.0);
                M2.setObjective(std::move(Obj3), lp::Goal::Maximize);
                lp::Solution Sol3 = lp::solveLp(M2, {}, compatLpOptions());
                const lp::Solution &Fin =
                    Sol3.Status == lp::SolveStatus::Optimal ? Sol3 : Sol2;
                for (size_t V : RVars)
                  Values[V] = Fin.value(LocalOf[V]);
                Publish();
                return true;
              }
            }
            for (size_t V : RVars)
              Values[V] = Sol.value(LocalOf[V]);
            Publish();
            return true;
          }();
          for (size_t V : RVars)
            LocalOf[V] = -1;
          if (!BlockSolved)
            AllSolved = false;
        }
        if (!AllSolved)
          return false;

        // Re-derive pins for free kernels; stop at a fixed point.
        bool Changed = false;
        for (size_t K : Kernels) {
          if (Rows[K].Pin != -1)
            continue; // Fixed by the caller, or constraint-only.
          const KernelRow &Row = Rows[K];
          int BestR = -1;
          double BestLoad = -1.0;
          for (size_t R : Row.Supported) {
            double L = load(Row, R, Values);
            if (L > BestLoad + 1e-12) {
              BestLoad = L;
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
      return true;
    };

    if (!FanOut) {
      // Monolithic fallback (dense coupling / no executor / decomposition
      // off): components run inline in index order against the shared
      // cache directly.
      bool All = true;
      for (size_t CI = 0; CI < NumComps; ++CI)
        if (!RunComponent(CI, nullptr, Opts.Cache))
          All = false;
      Feasible = All;
      return Values;
    }

    // Component fan-out. Every task writes only index-slotted state (its
    // own resources' Values/Models/digests, its own slot below), probes
    // the shared cache read-only plus a component-local overlay, and
    // parks its thread-local LP telemetry delta in its slot; the serial
    // reduction then replays deltas and merges overlays in component
    // order. Outcomes, stats, and cache contents are therefore
    // bit-identical for any executor width, including width 1.
    struct CompSlot {
      lp::LpTelemetry Tel;
      BwpSubproblemCache Local;
      uint8_t Ok = 0;
    };
    std::vector<CompSlot> Slots(NumComps);
    Opts.Exec->parallelFor(NumComps, [&](size_t CI, unsigned) {
      lp::LpTelemetry &T = lp::lpTelemetry();
      const lp::LpTelemetry Before = T;
      CompSlot &S = Slots[CI];
      S.Ok = RunComponent(CI, Opts.Cache, Opts.Cache ? &S.Local : nullptr)
                 ? 1
                 : 0;
      S.Tel = telemetryDelta(T, Before);
      T = Before; // Compensated: the reduction below re-applies the delta
                  // on the calling thread, keeping the caller's
                  // before/after telemetry bracketing exact.
    });
    bool All = true;
    lp::LpTelemetry &T = lp::lpTelemetry();
    for (size_t CI = 0; CI < NumComps; ++CI) {
      CompSlot &S = Slots[CI];
      All &= S.Ok != 0;
      telemetryAdd(T, S.Tel);
      if (Opts.Cache)
        Opts.Cache->merge(std::move(S.Local));
    }
    Feasible = All;
    return Values;
  }

  std::vector<double> solveExact(bool &Feasible) {
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

    lp::Solution Sol = lp::solveMilp(M);
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

void BwpSubproblemCache::merge(BwpSubproblemCache &&Other) {
  for (auto &[D, E] : Other.Entries)
    insert(D, std::move(E));
  Other.Entries.clear();
}

void BwpSubproblemCache::clear() { Entries.clear(); }

CoreWeights palmed::solveCoreWeights(const MappingShape &Shape,
                                     const std::map<InstrId, size_t> &IndexOf,
                                     const std::vector<WeightKernel> &Kernels,
                                     BwpMode Mode, int MaxPinIterations,
                                     const std::vector<double> &SoloIpc) {
  return solveCoreWeights(Shape, IndexOf, Kernels, Mode, BwpSolveOptions(),
                          MaxPinIterations, SoloIpc);
}

CoreWeights palmed::solveCoreWeights(const MappingShape &Shape,
                                     const std::map<InstrId, size_t> &IndexOf,
                                     const std::vector<WeightKernel> &Kernels,
                                     BwpMode Mode,
                                     const BwpSolveOptions &Options,
                                     int MaxPinIterations,
                                     const std::vector<double> &SoloIpc) {
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
  std::vector<double> Values =
      Bwp.solve(Mode, MaxPinIterations, Out.TotalSlack, Feasible, Options);
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
                        BwpMode Mode, int MaxPinIterations,
                        const BwpSolveOptions &Options) {
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
                      Options);
  return Out;
}
