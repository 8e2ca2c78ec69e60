//===- lp/Simplex.cpp - Two-phase primal simplex --------------------------===//
//
// Part of the PALMED reproduction.
//
// Implementation notes: variables are shifted by their (finite) lower bound
// so the working variables live in [0, upper-lower], and every finite upper
// bound is one explicit LE row. Rows are sign-normalized to a nonnegative
// right-hand side; a row whose slack coefficient is not +1 gets an
// artificial column for the initial basis. Phase 1 minimizes the sum of
// artificials over all columns; phase 2 minimizes the (sign-adjusted) user
// objective, and the artificial columns are dead there: never priced and
// never swept. Every solve starts cold from the slack/artificial basis.
// The "compat" names mark code that must stay compatible, value for value,
// with the historical dense solver (see Simplex.h).
//
//===----------------------------------------------------------------------===//

#include "lp/Simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <vector>

using namespace palmed;
using namespace palmed::lp;

namespace {

enum class ColStatus : uint8_t { AtLower, Basic };

constexpr size_t None = static_cast<size_t>(-1);

enum class PhaseResult { Optimal, Unbounded, IterLimit };

/// Column-compressed compat tableau. Palmed's LPs are extreme in one
/// dimension: the core BWP subproblems have thousands of capacity rows but
/// only a few dozen structural variables, so nearly every column of a
/// dense NumRows x NumCols tableau has a single nonzero. This tableau
/// stores a column densely (column-major, in a slot) only while it may have
/// more than one; every other column is *implicit*: value ImplicitVal in
/// row ImplicitRow, zero elsewhere. Slack and artificial columns start
/// implicit (their diagonal), structural columns start stored. Only two
/// events give a column a second nonzero, and both store it: entering the
/// basis, and a pivot in the row of its nonzero. A pivot leaves its
/// entering column exactly the unit column of the pivot row, so that slot
/// goes back on the free list at once. Basic columns are therefore always
/// implicit, and the stored columns are the few dozen nonbasic ones that
/// some pivot has touched. All bookkeeping (Cost, Status, Basis, physical
/// column numbering) matches the historical dense tableau exactly, so pivot
/// selection and pivot arithmetic are value-for-value identical; only the
/// storage of zeros changed.
class CompatTableau {
public:
  /// PhysOfSlot entry of a slot on the free list. It exceeds every column
  /// bound, so the `>= SweepEnd` tests that skip dead columns skip it too.
  static constexpr uint32_t FreeSlot = UINT32_MAX;

  size_t NumRows = 0;
  size_t NumVars = 0;
  size_t ArtStart = 0;
  size_t NumCols = 0;

  std::vector<double> Cols; ///< Slot-major: slot * NumRows + row.
  std::vector<int> SlotOfPhys;      ///< Physical col -> slot, -1 implicit.
  std::vector<uint32_t> PhysOfSlot; ///< Slot -> physical col, or FreeSlot.
  std::vector<uint32_t> FreeSlots;
  std::vector<int> ImplicitRow;   ///< Implicit column: row of its nonzero.
  std::vector<double> ImplicitVal; ///< Implicit column: that nonzero.
  std::vector<double> Rhs;
  std::vector<double> Cost;
  double CostRhs = 0.0;
  std::vector<ColStatus> Status;
  std::vector<int> Basis; ///< Per row: physical basic column.

  std::vector<int> SlackPhysOfRow;
  std::vector<int> ArtPhysOfRow;

  double *col(size_t S) { return &Cols[S * NumRows]; }
  double at(size_t R, size_t C) const {
    int S = SlotOfPhys[C];
    if (S >= 0)
      return Cols[static_cast<size_t>(S) * NumRows + R];
    return ImplicitRow[C] == static_cast<int>(R) ? ImplicitVal[C] : 0.0;
  }
  /// Gives implicit column \p C a slot holding its exact dense contents.
  size_t store(size_t C) {
    size_t S;
    if (FreeSlots.empty()) {
      S = PhysOfSlot.size();
      PhysOfSlot.push_back(static_cast<uint32_t>(C));
      Cols.resize(PhysOfSlot.size() * NumRows);
    } else {
      S = FreeSlots.back();
      FreeSlots.pop_back();
      PhysOfSlot[S] = static_cast<uint32_t>(C);
    }
    double *Col = col(S);
    std::fill(Col, Col + NumRows, 0.0);
    Col[static_cast<size_t>(ImplicitRow[C])] = ImplicitVal[C];
    SlotOfPhys[C] = static_cast<int>(S);
    return S;
  }
  /// Frees the slot of \p C, whose column must now be the unit column of
  /// row \p R; the slot's contents are not read again.
  void release(size_t C, size_t R) {
    size_t S = static_cast<size_t>(SlotOfPhys[C]);
    PhysOfSlot[S] = FreeSlot;
    FreeSlots.push_back(static_cast<uint32_t>(S));
    SlotOfPhys[C] = -1;
    ImplicitRow[C] = static_cast<int>(R);
    ImplicitVal[C] = 1.0;
  }
};

/// Compat-mode tableau build: the historical dense solver's row
/// normalization, physical column assignment and initial basis, with every
/// finite upper bound as one extra LE row.
void buildCompat(CompatTableau &T, const Model &M,
                 const std::vector<double> &Lo, const std::vector<double> &Hi) {
  const size_t NumVars = M.numVars();
  const size_t NumCons = M.numConstraints();
  thread_local std::vector<size_t> UbVars;
  UbVars.clear();
  for (size_t V = 0; V < NumVars; ++V)
    if (std::isfinite(Hi[V]))
      UbVars.push_back(V);
  const size_t NumRows = NumCons + UbVars.size();
  T.NumRows = NumRows;
  T.NumVars = NumVars;

  thread_local std::vector<double> EffRhs, RowSign, SlackCoeff;
  thread_local std::vector<uint8_t> NeedArt;
  EffRhs.assign(NumRows, 0.0);
  RowSign.assign(NumRows, 1.0);
  SlackCoeff.assign(NumRows, 0.0);
  NeedArt.assign(NumRows, 0);

  size_t NumSlack = 0;
  for (size_t R = 0; R < NumRows; ++R) {
    double Rhs;
    Sense Dir;
    if (R < NumCons) {
      const Constraint &C = M.constraints()[R];
      double Shift = 0.0;
      for (const auto &[Var, Coeff] : C.Expr.terms())
        Shift += Coeff * Lo[static_cast<size_t>(Var)];
      Rhs = C.Rhs - Shift;
      Dir = C.Dir;
    } else {
      size_t V = UbVars[R - NumCons];
      Rhs = Hi[V] - Lo[V];
      Dir = Sense::LE;
    }
    if (Rhs < 0.0) {
      Rhs = -Rhs;
      RowSign[R] = -1.0;
    }
    EffRhs[R] = Rhs;
    if (Dir != Sense::EQ) {
      ++NumSlack;
      SlackCoeff[R] = RowSign[R] * (Dir == Sense::LE ? 1.0 : -1.0);
    }
    NeedArt[R] = SlackCoeff[R] != 1.0;
  }
  T.ArtStart = NumVars + NumSlack;

  T.SlackPhysOfRow.assign(NumRows, -1);
  T.ArtPhysOfRow.assign(NumRows, -1);
  size_t NextSlack = NumVars;
  size_t NumArt = 0;
  for (size_t R = 0; R < NumRows; ++R) {
    if (SlackCoeff[R] != 0.0)
      T.SlackPhysOfRow[R] = static_cast<int>(NextSlack++);
    if (NeedArt[R])
      T.ArtPhysOfRow[R] = static_cast<int>(T.ArtStart + NumArt++);
  }
  T.NumCols = T.ArtStart + NumArt;

  // Structural columns are always materialized; slack/artificial columns
  // start implicit. The slot pool is thread_local scratch, reused across
  // the stream of similarly sized LPs; trim it when one outsized solve would
  // otherwise pin the allocation for the thread's lifetime.
  size_t Need = NumRows * (NumVars + 64);
  if (T.Cols.capacity() > (size_t{1} << 20) && T.Cols.capacity() > 8 * Need) {
    T.Cols.clear();
    T.Cols.shrink_to_fit();
  }
  T.Cols.assign(NumRows * NumVars, 0.0);
  T.SlotOfPhys.assign(T.NumCols, -1);
  T.PhysOfSlot.resize(NumVars);
  for (size_t V = 0; V < NumVars; ++V) {
    T.SlotOfPhys[V] = static_cast<int>(V);
    T.PhysOfSlot[V] = static_cast<uint32_t>(V);
  }
  T.FreeSlots.clear();
  T.ImplicitRow.assign(T.NumCols, -1);
  T.ImplicitVal.assign(T.NumCols, 0.0);
  T.Rhs.assign(NumRows, 0.0);
  T.Status.assign(T.NumCols, ColStatus::AtLower);
  T.Basis.assign(NumRows, -1);
  T.CostRhs = 0.0;

  for (size_t R = 0; R < NumRows; ++R) {
    if (R < NumCons) {
      const Constraint &C = M.constraints()[R];
      for (const auto &[Var, Coeff] : C.Expr.terms())
        T.Cols[static_cast<size_t>(Var) * NumRows + R] += RowSign[R] * Coeff;
    } else {
      T.Cols[UbVars[R - NumCons] * NumRows + R] = RowSign[R];
    }
    T.Rhs[R] = EffRhs[R];
    if (T.SlackPhysOfRow[R] >= 0) {
      size_t S = static_cast<size_t>(T.SlackPhysOfRow[R]);
      T.ImplicitRow[S] = static_cast<int>(R);
      T.ImplicitVal[S] = SlackCoeff[R];
    }
    if (T.ArtPhysOfRow[R] >= 0) {
      size_t A = static_cast<size_t>(T.ArtPhysOfRow[R]);
      T.ImplicitRow[A] = static_cast<int>(R);
      T.ImplicitVal[A] = 1.0;
      T.Basis[R] = static_cast<int>(A);
      T.Status[A] = ColStatus::Basic;
    } else {
      size_t S = static_cast<size_t>(T.SlackPhysOfRow[R]);
      T.Basis[R] = static_cast<int>(S);
      T.Status[S] = ColStatus::Basic;
    }
  }
}

/// Compat-mode pivot: the historical arithmetic, with Rhs (and the cost
/// row's rhs) swept as plain algebraic columns — the pivot row is scaled by
/// the reciprocal, other rows subtract Factor times the scaled row. Only
/// columns below \p SweepEnd are touched; phase 2 passes ArtStart, which
/// skips the dead artificial columns without changing any value ever read.
/// Loop order is columns-outer over the pivot row's nonzeros, and every
/// entry the historical elimination changes receives the identical
/// `a -= f * p` update. Each such column takes one full, vectorizable sweep,
/// which also subtracts `0 * p` from its zero-factor rows: that leaves every
/// nonzero entry unchanged (tableau entries are finite) and can at most
/// flip the sign of a zero entry, which nothing reads.
void compatPivot(CompatTableau &T, size_t PR, size_t Q, size_t SweepEnd) {
  const size_t M = T.NumRows;
  // Store the columns this pivot gives a second nonzero: the entering
  // column and the implicit columns with their nonzero in the pivot row,
  // namely its basic column and, while untouched, its slack. (Its
  // artificial is implicit there only while basic or once dead.)
  if (T.SlotOfPhys[Q] < 0)
    T.store(Q);
  for (int C : {T.Basis[PR], T.SlackPhysOfRow[PR]})
    if (C >= 0 && static_cast<size_t>(C) < SweepEnd && T.SlotOfPhys[C] < 0 &&
        T.ImplicitRow[C] == static_cast<int>(PR))
      T.store(static_cast<size_t>(C));

  const size_t SQ = static_cast<size_t>(T.SlotOfPhys[Q]);
  double *CQ = T.col(SQ);
  double Inv = 1.0 / CQ[PR];
  // Scale the pivot row's nonzeros. Any nonzero below SweepEnd lives in a
  // slot: the implicit ones in the pivot row were just stored.
  thread_local std::vector<uint32_t> NzSlots;
  NzSlots.clear();
  for (size_t S = 0; S < T.PhysOfSlot.size(); ++S) {
    if (T.PhysOfSlot[S] >= SweepEnd || S == SQ)
      continue;
    double &V = T.Cols[S * M + PR];
    if (V != 0.0) {
      V *= Inv;
      NzSlots.push_back(static_cast<uint32_t>(S));
    }
  }
  T.Rhs[PR] *= Inv;
  const double RhsP = T.Rhs[PR];

  // The entering column's other entries are the row factors; with its
  // pivot-row entry zeroed it is the factor vector of the sweep. Rhs
  // entries become solution values, so zero-factor rows keep theirs as is.
  CQ[PR] = 0.0;
  for (size_t R = 0; R < M; ++R)
    if (CQ[R] != 0.0)
      T.Rhs[R] -= CQ[R] * RhsP;
  for (uint32_t S : NzSlots) {
    double *CD = T.col(S);
    const double P = CD[PR];
    for (size_t R = 0; R < M; ++R)
      CD[R] -= CQ[R] * P;
  }

  double Factor = T.Cost[Q];
  if (Factor != 0.0) {
    for (uint32_t S : NzSlots)
      T.Cost[T.PhysOfSlot[S]] -= Factor * T.Cols[static_cast<size_t>(S) * M + PR];
    T.CostRhs -= Factor * RhsP;
    T.Cost[Q] = 0.0;
  }
  // The entering column is now the unit column of the pivot row (its slot
  // still holds the factors).
  T.release(Q, PR);
  T.Status[static_cast<size_t>(T.Basis[PR])] = ColStatus::AtLower;
  T.Basis[PR] = static_cast<int>(Q);
  T.Status[Q] = ColStatus::Basic;
}

/// Compat-mode phase runner: Dantzig pricing with the historical stall
/// detection and ratio-test tie-breaks, reproducing the seed solver's pivot
/// sequence value-for-value. \p PriceEnd bounds the entering-column scan
/// (phase 1 may re-enter artificials, phase 2 may not); \p SweepEnd bounds
/// the elimination sweep.
PhaseResult runCompat(CompatTableau &T, const SimplexOptions &Options,
                      LpRunStats &RS, size_t PriceEnd, size_t SweepEnd) {
  const double Tol = Options.Tolerance;
  int StallCount = 0;
  bool UseBland = false;
  double LastObjective = -T.CostRhs;

  for (int Iter = 0; Iter < Options.MaxIterations; ++Iter) {
    size_t Entering = None;
    double BestCost = -Tol;
    for (size_t C = 0; C < PriceEnd; ++C) {
      if (T.Status[C] == ColStatus::Basic)
        continue;
      double RC = T.Cost[C];
      if (RC < BestCost) {
        BestCost = RC;
        Entering = C;
        if (UseBland)
          break;
      }
    }
    if (Entering == None)
      return PhaseResult::Optimal;

    size_t Leaving = None;
    double BestRatio = 0.0;
    int SE = T.SlotOfPhys[Entering];
    if (SE >= 0) {
      const double *CE = T.col(static_cast<size_t>(SE));
      for (size_t R = 0; R < T.NumRows; ++R) {
        double A = CE[R];
        if (A <= Tol)
          continue;
        double Ratio = T.Rhs[R] / A;
        if (Leaving == None || Ratio < BestRatio - Tol ||
            (Ratio < BestRatio + Tol && T.Basis[R] < T.Basis[Leaving])) {
          BestRatio = Ratio;
          Leaving = R;
        }
      }
    } else {
      // Implicit column: it has one nonzero, so the dense row scan
      // reduces to at most one candidate.
      int R0 = T.ImplicitRow[Entering];
      if (T.ImplicitVal[Entering] > Tol) {
        BestRatio = T.Rhs[static_cast<size_t>(R0)] / T.ImplicitVal[Entering];
        Leaving = static_cast<size_t>(R0);
      }
    }
    if (Leaving == None)
      return PhaseResult::Unbounded;

    compatPivot(T, Leaving, Entering, SweepEnd);
    ++RS.Pivots;

    double Objective = -T.CostRhs;
    if (Objective < LastObjective - Tol) {
      LastObjective = Objective;
      StallCount = 0;
    } else if (++StallCount > 200) {
      UseBland = true;
    }
  }
  return PhaseResult::IterLimit;
}

/// Full compat-mode solve: the historical two-phase dense solver,
/// value-for-value, over the column-compressed tableau. Every solve is
/// cold; its cost is what the compression attacks.
Solution solveCompatLp(const Model &M, const std::vector<double> &Lo,
                       const std::vector<double> &Hi,
                       const SimplexOptions &Options, LpRunStats &RS) {
  const double Tol = Options.Tolerance;
  const size_t NumVars = M.numVars();
  Solution Result;

  thread_local CompatTableau T;
  buildCompat(T, M, Lo, Hi);
  const size_t NumRows = T.NumRows;

  if (T.NumCols > T.ArtStart) {
    // Phase 1 over all columns (artificials are priced and swept like the
    // historical code until they are retired). The initial cost row is
    // accumulated from each artificial-basic row's nonzeros: structural
    // entries live in slots, and the row's own slack/artificial diagonals
    // are still implicit (no other implicit column has a nonzero here), so
    // skipping the zeros reproduces the dense subtraction value-for-value.
    T.Cost.assign(T.NumCols, 0.0);
    for (size_t C = T.ArtStart; C < T.NumCols; ++C)
      T.Cost[C] = 1.0;
    T.CostRhs = 0.0;
    for (size_t R = 0; R < NumRows; ++R) {
      if (static_cast<size_t>(T.Basis[R]) < T.ArtStart)
        continue;
      for (size_t S = 0; S < T.PhysOfSlot.size(); ++S) {
        double V = T.Cols[S * NumRows + R];
        if (V != 0.0)
          T.Cost[T.PhysOfSlot[S]] -= V;
      }
      for (int C : {T.SlackPhysOfRow[R], T.ArtPhysOfRow[R]})
        if (C >= 0)
          T.Cost[static_cast<size_t>(C)] -= T.ImplicitVal[static_cast<size_t>(C)];
      T.CostRhs -= T.Rhs[R];
    }
    PhaseResult P1 = runCompat(T, Options, RS, /*PriceEnd=*/T.NumCols,
                               /*SweepEnd=*/T.NumCols);
    if (P1 == PhaseResult::IterLimit) {
      Result.Status = SolveStatus::IterLimit;
      return Result;
    }
    if (-T.CostRhs > 1e-7) {
      Result.Status = SolveStatus::Infeasible;
      return Result;
    }
    // Drive residual basic artificials out where possible; redundant rows
    // keep theirs basic at zero.
    for (size_t R = 0; R < NumRows; ++R) {
      if (static_cast<size_t>(T.Basis[R]) < T.ArtStart)
        continue;
      size_t PivotCol = None;
      for (size_t C = 0; C < T.ArtStart; ++C) {
        if (std::abs(T.at(R, C)) > Tol) {
          PivotCol = C;
          break;
        }
      }
      if (PivotCol != None) {
        compatPivot(T, R, PivotCol, T.ArtStart);
        ++RS.Pivots;
      }
    }
  }

  // Phase 2: dead artificial columns are no longer priced or swept (the
  // values they would have received are never read). A row whose basic
  // column carries cost has pivoted, which stored its slack, so the only
  // implicit column with a nonzero in that row is its basic column.
  {
    T.Cost.assign(T.NumCols, 0.0);
    double ObjSign = M.goal() == Goal::Minimize ? 1.0 : -1.0;
    LinearExpr Obj = M.objective();
    Obj.normalize();
    for (const auto &[Var, Coeff] : Obj.terms())
      T.Cost[static_cast<size_t>(Var)] = ObjSign * Coeff;
    thread_local std::vector<double> Costs;
    Costs = T.Cost;
    T.CostRhs = 0.0;
    for (size_t R = 0; R < NumRows; ++R) {
      size_t B = static_cast<size_t>(T.Basis[R]);
      double CB = Costs[B];
      if (CB == 0.0)
        continue;
      for (size_t S = 0; S < T.PhysOfSlot.size(); ++S) {
        if (T.PhysOfSlot[S] >= T.ArtStart)
          continue;
        double V = T.Cols[S * NumRows + R];
        if (V != 0.0)
          T.Cost[T.PhysOfSlot[S]] -= CB * V;
      }
      T.Cost[B] -= CB * T.ImplicitVal[B];
      T.CostRhs -= CB * T.Rhs[R];
    }
  }
  PhaseResult PR = runCompat(T, Options, RS, /*PriceEnd=*/T.ArtStart,
                             /*SweepEnd=*/T.ArtStart);

  if (PR == PhaseResult::IterLimit) {
    Result.Status = SolveStatus::IterLimit;
    return Result;
  }
  if (PR == PhaseResult::Unbounded) {
    Result.Status = SolveStatus::Unbounded;
    return Result;
  }

  // Extract the solution (shift lower bounds back in). Compat mode has no
  // nonbasic-at-upper statuses (bounds are explicit rows).
  Result.Values.assign(NumVars, 0.0);
  for (size_t R = 0; R < NumRows; ++R) {
    int B = T.Basis[R];
    if (B >= 0 && static_cast<size_t>(B) < NumVars)
      Result.Values[static_cast<size_t>(B)] = T.Rhs[R];
  }
  for (size_t V = 0; V < NumVars; ++V) {
    Result.Values[V] += Lo[V];
    Result.Values[V] = std::max(Result.Values[V], Lo[V]);
    if (std::isfinite(Hi[V]))
      Result.Values[V] = std::min(Result.Values[V], Hi[V]);
  }
  Result.Objective = M.objective().evaluate(Result.Values);
  Result.Status = SolveStatus::Optimal;
  return Result;
}

} // namespace

Solution lp::solveLp(const Model &M, const std::vector<BoundOverride> &Overrides,
                     const SimplexOptions &Options, LpRunStats *Stats) {
  const size_t NumVars = M.numVars();
  LpRunStats LocalStats;
  LpRunStats &RS = Stats ? *Stats : LocalStats;
  RS = LpRunStats();

  // Effective bounds after overrides.
  std::vector<double> Lo(NumVars), Hi(NumVars);
  for (size_t V = 0; V < NumVars; ++V) {
    Lo[V] = M.var(static_cast<VarId>(V)).LowerBound;
    Hi[V] = M.var(static_cast<VarId>(V)).UpperBound;
  }
  for (const BoundOverride &O : Overrides) {
    assert(O.Var >= 0 && static_cast<size_t>(O.Var) < NumVars);
    Lo[static_cast<size_t>(O.Var)] = O.LowerBound;
    Hi[static_cast<size_t>(O.Var)] = O.UpperBound;
  }
  for (size_t V = 0; V < NumVars; ++V) {
    if (Lo[V] > Hi[V] + Options.Tolerance) {
      Solution Result;
      Result.Status = SolveStatus::Infeasible;
      return Result;
    }
  }
  return solveCompatLp(M, Lo, Hi, Options, RS);
}

Solution lp::solveLp(const Model &M) {
  return solveLp(M, {}, SimplexOptions());
}
