//===- tests/lp_test.cpp - LP/MILP solver tests ---------------------------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "lp/Milp.h"
#include "lp/Simplex.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

using namespace palmed;
using namespace palmed::lp;

namespace {

LinearExpr expr(std::initializer_list<std::pair<VarId, double>> Terms) {
  LinearExpr E;
  for (const auto &[V, C] : Terms)
    E.add(V, C);
  return E;
}

/// A small LP with random integral bounds, coefficients, senses and goal.
Model randomBoundedLp(uint64_t Seed) {
  Rng R(Seed);
  int N = 1 + static_cast<int>(R.uniformInt(6));
  int Rows = 1 + static_cast<int>(R.uniformInt(6));
  Model M;
  std::vector<VarId> V;
  for (int I = 0; I < N; ++I) {
    double Lo = std::floor(R.uniformRealIn(-3.0, 3.0));
    double Hi = R.uniformInt(3) == 0
                    ? Infinity
                    : Lo + std::floor(R.uniformRealIn(0.0, 6.0));
    V.push_back(M.addVar("x", Lo, Hi));
  }
  for (int Row = 0; Row < Rows; ++Row) {
    LinearExpr E;
    for (int I = 0; I < N; ++I) {
      double C = std::floor(R.uniformRealIn(-4.0, 5.0));
      if (C != 0.0)
        E.add(V[static_cast<size_t>(I)], C);
    }
    Sense S = R.uniformInt(4) == 0
                  ? Sense::EQ
                  : (R.uniformInt(2) ? Sense::LE : Sense::GE);
    M.addConstraint(std::move(E), S, std::floor(R.uniformRealIn(-8.0, 12.0)));
  }
  LinearExpr Obj;
  for (int I = 0; I < N; ++I)
    Obj.add(V[static_cast<size_t>(I)], std::floor(R.uniformRealIn(-5.0, 6.0)));
  M.setObjective(std::move(Obj),
                 R.uniformInt(2) ? Goal::Maximize : Goal::Minimize);
  return M;
}

/// The LP dual of \p M, built without the solver. The primal is first
/// rewritten as  max c'y  s.t.  A y <= b, y >= 0:  shift x = lo + y, negate
/// GE rows, and add a row y_j <= hi_j - lo_j for each finite upper bound.
/// Its dual is  min b'p  s.t.  A'p >= c, p >= 0,  except that an EQ row's
/// dual is free, split into two nonnegative halves. The primal objective
/// at an optimum is then \p Sign times the dual optimum plus \p Offset.
Model dualOf(const Model &M, double &Sign, double &Offset) {
  const size_t N = M.numVars();
  Sign = M.goal() == Goal::Maximize ? 1.0 : -1.0;
  Offset = M.objective().constant();
  std::vector<double> C(N, 0.0);
  for (const auto &[V, Coeff] : M.objective().terms()) {
    C[static_cast<size_t>(V)] += Sign * Coeff;
    Offset += Coeff * M.var(V).LowerBound;
  }

  Model D;
  std::vector<LinearExpr> DualRows(N);
  LinearExpr DualObj;
  // Adds the nonnegative dual of one LE row; Scale -1 adds the negative
  // half of an EQ row's free dual.
  auto AddDual = [&](const std::vector<std::pair<VarId, double>> &Terms,
                     double Rhs, double Scale) {
    VarId P = D.addVar("p", 0.0, Infinity);
    DualObj.add(P, Scale * Rhs);
    for (const auto &[V, Coeff] : Terms)
      DualRows[static_cast<size_t>(V)].add(P, Scale * Coeff);
  };
  for (const Constraint &Row : M.constraints()) {
    const double Flip = Row.Dir == Sense::GE ? -1.0 : 1.0;
    std::vector<std::pair<VarId, double>> Terms;
    double Rhs = Row.Rhs;
    for (const auto &[V, Coeff] : Row.Expr.terms()) {
      Terms.emplace_back(V, Flip * Coeff);
      Rhs -= Coeff * M.var(V).LowerBound;
    }
    AddDual(Terms, Flip * Rhs, 1.0);
    if (Row.Dir == Sense::EQ)
      AddDual(Terms, Flip * Rhs, -1.0);
  }
  for (size_t V = 0; V < N; ++V) {
    const Variable &X = M.var(static_cast<VarId>(V));
    if (std::isfinite(X.UpperBound))
      AddDual({{static_cast<VarId>(V), 1.0}}, X.UpperBound - X.LowerBound,
              1.0);
  }
  for (size_t V = 0; V < N; ++V)
    D.addConstraint(std::move(DualRows[V]), Sense::GE, C[V]);
  D.setObjective(std::move(DualObj), Goal::Minimize);
  return D;
}

/// True when \p X satisfies every row and bound of \p M within \p Tol.
bool satisfies(const Model &M, const std::vector<double> &X, double Tol) {
  for (const Constraint &Row : M.constraints()) {
    double Lhs = Row.Expr.evaluate(X);
    if ((Row.Dir != Sense::GE && Lhs > Row.Rhs + Tol) ||
        (Row.Dir != Sense::LE && Lhs < Row.Rhs - Tol))
      return false;
  }
  for (size_t V = 0; V < M.numVars(); ++V) {
    const Variable &Var = M.var(static_cast<VarId>(V));
    if (X[V] < Var.LowerBound - Tol || X[V] > Var.UpperBound + Tol)
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Reference compat solver: the compat path as it stood before its tableau
// stored only live columns. Every slack or artificial column got a
// permanent slot the first time a pivot touched it, and eliminations
// scattered over the rows with a nonzero factor. Kept verbatim (telemetry
// and the final-basis export aside) as the reference the current solver
// must match bit for bit.
//===----------------------------------------------------------------------===//

namespace reference {

enum class ColStatus : uint8_t { AtLower, AtUpper, Basic };

constexpr size_t None = static_cast<size_t>(-1);

enum class PhaseResult { Optimal, Unbounded, IterLimit, Infeasible };

/// Column-compressed compat tableau. Palmed's compat-mode LPs are extreme
/// in one dimension: the core BWP subproblems have thousands of capacity
/// rows but only a few dozen structural variables, so a dense
/// NumRows x NumCols tableau is ~99% slack/artificial columns that never
/// leave their initial single-diagonal state (an unpromoted column is
/// touched by an elimination only when its own row is the pivot row). This
/// tableau stores structural columns densely (column-major, one slot per
/// column) and keeps each slack/artificial column *implicit* — just its
/// diagonal coefficient — until its row first pivots, at which point the
/// column is promoted to a real slot. All bookkeeping (Cost, Status, Basis,
/// physical column numbering) matches the dense compat tableau exactly, so
/// pivot selection and pivot arithmetic are value-for-value identical; only
/// the storage of never-touched zeros changed.
class CompatTableau {
public:
  size_t NumRows = 0;
  size_t NumVars = 0;
  size_t ArtStart = 0;
  size_t NumCols = 0;
  size_t NumSlots = 0;

  std::vector<double> Cols; ///< Slot-major: slot * NumRows + row.
  std::vector<int> SlotOfPhys;       ///< Physical col -> slot, -1 implicit.
  std::vector<uint32_t> PhysOfSlot;
  std::vector<double> DiagOfPhys; ///< Implicit slack/art diagonal value.
  std::vector<double> Rhs;
  std::vector<double> Cost;
  double CostRhs = 0.0;
  std::vector<ColStatus> Status;
  std::vector<int> Basis; ///< Per row: physical basic column.

  std::vector<int> SlackPhysOfRow;
  std::vector<int> ArtPhysOfRow;
  std::vector<int> RowOfPhys;

  double *col(size_t S) { return &Cols[S * NumRows]; }
  const double *col(size_t S) const { return &Cols[S * NumRows]; }
  double at(size_t R, size_t C) const {
    int S = SlotOfPhys[C];
    if (S >= 0)
      return Cols[static_cast<size_t>(S) * NumRows + R];
    return RowOfPhys[C] == static_cast<int>(R) ? DiagOfPhys[C] : 0.0;
  }
  /// Materializes an implicit column into a dense slot. Until its owning
  /// row pivots, an implicit column's only nonzero is its untouched initial
  /// diagonal, so the promoted slot reproduces the exact dense contents.
  size_t promote(size_t C) {
    size_t S = NumSlots++;
    Cols.resize(NumSlots * NumRows, 0.0);
    if (RowOfPhys[C] >= 0)
      Cols[S * NumRows + static_cast<size_t>(RowOfPhys[C])] = DiagOfPhys[C];
    SlotOfPhys[C] = static_cast<int>(S);
    PhysOfSlot.push_back(static_cast<uint32_t>(C));
    return S;
  }
};

/// Compat-mode tableau build: identical row normalization, physical column
/// assignment, and initial basis as the dense ExplicitBounds build (every
/// finite upper bound becomes one extra LE row).
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
  // start implicit. The slot pool is thread_local scratch like the dense
  // tableau's Data; trim it when one outsized solve would otherwise pin the
  // allocation.
  size_t Need = NumRows * (NumVars + 64);
  if (T.Cols.capacity() > (size_t{1} << 20) && T.Cols.capacity() > 8 * Need) {
    T.Cols.clear();
    T.Cols.shrink_to_fit();
  }
  T.Cols.assign(NumRows * NumVars, 0.0);
  T.NumSlots = NumVars;
  T.SlotOfPhys.assign(T.NumCols, -1);
  T.PhysOfSlot.resize(NumVars);
  for (size_t V = 0; V < NumVars; ++V) {
    T.SlotOfPhys[V] = static_cast<int>(V);
    T.PhysOfSlot[V] = static_cast<uint32_t>(V);
  }
  T.DiagOfPhys.assign(T.NumCols, 0.0);
  T.Rhs.assign(NumRows, 0.0);
  T.Status.assign(T.NumCols, ColStatus::AtLower);
  T.Basis.assign(NumRows, -1);
  T.RowOfPhys.assign(T.NumCols, -1);
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
      T.DiagOfPhys[S] = SlackCoeff[R];
      T.RowOfPhys[S] = static_cast<int>(R);
    }
    if (T.ArtPhysOfRow[R] >= 0) {
      size_t A = static_cast<size_t>(T.ArtPhysOfRow[R]);
      T.DiagOfPhys[A] = 1.0;
      T.RowOfPhys[A] = static_cast<int>(R);
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
/// Loop order is columns-outer over the pivot row's nonzeros (each affected
/// entry still receives the single identical `a -= f * p` update), and
/// zero-factor rows are skipped exactly like the dense sweep.
void compatPivot(CompatTableau &T, size_t PR, size_t Q, size_t SweepEnd) {
  const size_t M = T.NumRows;
  // The columns this pivot can fill beyond their implicit diagonal are the
  // entering column and the pivot row's own slack/artificial; promote them
  // so the sweep below sees real storage.
  if (T.SlotOfPhys[Q] < 0)
    T.promote(Q);
  int SP = T.SlackPhysOfRow[PR];
  if (SP >= 0 && static_cast<size_t>(SP) < SweepEnd && T.SlotOfPhys[SP] < 0)
    T.promote(static_cast<size_t>(SP));
  int AP = T.ArtPhysOfRow[PR];
  if (AP >= 0 && static_cast<size_t>(AP) < SweepEnd && T.SlotOfPhys[AP] < 0)
    T.promote(static_cast<size_t>(AP));

  const size_t SQ = static_cast<size_t>(T.SlotOfPhys[Q]);
  double Inv = 1.0 / T.Cols[SQ * M + PR];
  // Scale the pivot row's nonzeros. Any nonzero below SweepEnd lives in a
  // slot: implicit columns are nonzero only in their own row, and the pivot
  // row's were just promoted.
  thread_local std::vector<uint32_t> NzSlots;
  NzSlots.clear();
  for (size_t S = 0; S < T.NumSlots; ++S) {
    if (T.PhysOfSlot[S] >= SweepEnd)
      continue;
    double &V = T.Cols[S * M + PR];
    if (V != 0.0) {
      V *= Inv;
      if (S != SQ)
        NzSlots.push_back(static_cast<uint32_t>(S));
    }
  }
  T.Cols[SQ * M + PR] = 1.0;
  T.Rhs[PR] *= Inv;

  // Gather the rows with a nonzero entering-column factor, then eliminate
  // column-by-column (entering column becomes exactly the unit column).
  thread_local std::vector<uint32_t> NzRows;
  thread_local std::vector<double> Factors;
  NzRows.clear();
  Factors.clear();
  double *CQ = T.col(SQ);
  for (size_t R = 0; R < M; ++R) {
    if (R == PR)
      continue;
    double Factor = CQ[R];
    if (Factor == 0.0)
      continue;
    NzRows.push_back(static_cast<uint32_t>(R));
    Factors.push_back(Factor);
    CQ[R] = 0.0;
  }
  for (uint32_t S : NzSlots) {
    double P = T.Cols[static_cast<size_t>(S) * M + PR];
    double *CD = T.col(S);
    for (size_t I = 0; I < NzRows.size(); ++I)
      CD[NzRows[I]] -= Factors[I] * P;
  }
  for (size_t I = 0; I < NzRows.size(); ++I)
    T.Rhs[NzRows[I]] -= Factors[I] * T.Rhs[PR];

  double Factor = T.Cost[Q];
  if (Factor != 0.0) {
    for (uint32_t S : NzSlots)
      T.Cost[T.PhysOfSlot[S]] -= Factor * T.Cols[static_cast<size_t>(S) * M + PR];
    T.CostRhs -= Factor * T.Rhs[PR];
    T.Cost[Q] = 0.0;
  }
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
      // Implicit column: its only nonzero is the diagonal in its own row,
      // so the dense row scan reduces to at most one candidate.
      int R0 = T.RowOfPhys[Entering];
      if (R0 >= 0 && T.DiagOfPhys[Entering] > Tol) {
        BestRatio = T.Rhs[static_cast<size_t>(R0)] / T.DiagOfPhys[Entering];
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
      for (size_t S = 0; S < T.NumSlots; ++S) {
        double V = T.Cols[S * NumRows + R];
        if (V != 0.0)
          T.Cost[T.PhysOfSlot[S]] -= V;
      }
      int SP = T.SlackPhysOfRow[R];
      if (SP >= 0 && T.SlotOfPhys[SP] < 0)
        T.Cost[static_cast<size_t>(SP)] -= T.DiagOfPhys[static_cast<size_t>(SP)];
      int AP = T.ArtPhysOfRow[R];
      if (AP >= 0 && T.SlotOfPhys[AP] < 0)
        T.Cost[static_cast<size_t>(AP)] -= T.DiagOfPhys[static_cast<size_t>(AP)];
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
  // column carries cost has pivoted, so its slack already lives in a slot;
  // the implicit-diagonal term is kept for form's sake.
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
      for (size_t S = 0; S < T.NumSlots; ++S) {
        if (T.PhysOfSlot[S] >= T.ArtStart)
          continue;
        double V = T.Cols[S * NumRows + R];
        if (V != 0.0)
          T.Cost[T.PhysOfSlot[S]] -= CB * V;
      }
      int SP = T.SlackPhysOfRow[R];
      if (SP >= 0 && T.SlotOfPhys[SP] < 0)
        T.Cost[static_cast<size_t>(SP)] -=
            CB * T.DiagOfPhys[static_cast<size_t>(SP)];
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

/// solveLp's entry: effective bounds, then the two-phase solve.
Solution solve(const Model &M, const SimplexOptions &Options, LpRunStats &RS) {
  const size_t NumVars = M.numVars();
  std::vector<double> Lo(NumVars), Hi(NumVars);
  for (size_t V = 0; V < NumVars; ++V) {
    Lo[V] = M.var(static_cast<VarId>(V)).LowerBound;
    Hi[V] = M.var(static_cast<VarId>(V)).UpperBound;
    if (Lo[V] > Hi[V] + Options.Tolerance) {
      Solution Result;
      Result.Status = SolveStatus::Infeasible;
      return Result;
    }
  }
  return solveCompatLp(M, Lo, Hi, Options, RS);
}

} // namespace reference

/// A block shaped like the BWP fit's maximize pass: NumW weights in
/// [0, 1]; LE capacity rows drawn from a small pool of coefficient vectors,
/// so vectors repeat with equal and with different right-hand sides; an
/// optional GE floor row, which needs an artificial (phase 1, and with a
/// zero floor over negated weights, the drive-out of a basic artificial);
/// and a maximize-sum objective. Three rows in four are tight at one point
/// X (all values exact in binary), so that vertex is degenerate in
/// hundreds of rows, as measured BWP blocks are. Seeds 2, 22, 32 and 34
/// stall long enough to switch to Bland's rule.
Model bwpShapedLp(uint64_t Seed) {
  Rng R(Seed);
  const size_t NumW = 2 + R.uniformInt(39);
  const size_t NumRows = 200 + R.uniformInt(2801);
  const int Floor = static_cast<int>(R.uniformInt(3));
  Model M;
  std::vector<double> X(NumW);
  for (size_t V = 0; V < NumW; ++V) {
    M.addVar("w", 0.0, 1.0);
    // The zero floor below forces every third weight to zero.
    X[V] = Floor == 2 && V % 3 == 0
               ? 0.0
               : 0.25 * static_cast<double>(R.uniformInt(5));
  }
  std::vector<std::vector<std::pair<VarId, double>>> Pool(
      4 + R.uniformInt(NumRows / 4));
  for (auto &Terms : Pool) {
    size_t K = 1 + R.uniformInt(NumW);
    for (size_t I = 0; I < K; ++I)
      Terms.emplace_back(static_cast<VarId>(R.uniformInt(NumW)),
                         0.25 * static_cast<double>(1 + R.uniformInt(12)));
  }
  for (size_t Row = 0; Row < NumRows; ++Row) {
    LinearExpr E;
    double Tight = 0.0;
    for (const auto &[V, C] : Pool[R.uniformInt(Pool.size())]) {
      E.add(V, C);
      Tight += C * X[static_cast<size_t>(V)];
    }
    double Rhs = R.uniformInt(4)
                     ? Tight
                     : Tight + 0.125 * static_cast<double>(1 + R.uniformInt(8));
    M.addConstraint(std::move(E), Sense::LE, Rhs);
  }
  LinearExpr E;
  if (Floor == 1) {
    // Met by X exactly or with room to spare.
    double Sum = 0.0;
    for (size_t V = 0; V < NumW; ++V)
      if (R.uniformInt(2)) {
        E.add(static_cast<VarId>(V), 1.0);
        Sum += X[V];
      }
    M.addConstraint(std::move(E), Sense::GE, R.uniformInt(2) ? Sum : Sum / 2);
  } else if (Floor == 2) {
    for (size_t V = 0; V < NumW; V += 3)
      E.add(static_cast<VarId>(V), -1.0);
    M.addConstraint(std::move(E), Sense::GE, 0.0);
  }
  LinearExpr Obj;
  for (size_t V = 0; V < NumW; ++V)
    Obj.add(static_cast<VarId>(V), 1.0);
  M.setObjective(std::move(Obj), Goal::Maximize);
  return M;
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Solves \p M with solveLp and with the reference solver, and requires
/// the same status, objective and values bit for bit and the same pivot
/// count.
void expectMatchesReference(const Model &M, const std::string &What) {
  SimplexOptions Options;
  LpRunStats Got, Want;
  Solution A = solveLp(M, {}, Options, &Got);
  Solution B = reference::solve(M, Options, Want);
  ASSERT_EQ(A.Status, B.Status) << What;
  EXPECT_EQ(Got.Pivots, Want.Pivots) << What;
  EXPECT_TRUE(sameBits(A.Objective, B.Objective))
      << What << ": objective " << A.Objective << " vs " << B.Objective;
  ASSERT_EQ(A.Values.size(), B.Values.size()) << What;
  for (size_t V = 0; V < A.Values.size(); ++V)
    EXPECT_TRUE(sameBits(A.Values[V], B.Values[V]))
        << What << ": x" << V << " = " << A.Values[V] << " vs "
        << B.Values[V];
}

} // namespace

// ------------------------------------------------------------------ Simplex

TEST(Simplex, TextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18. Optimum (2, 6) = 36.
  Model M;
  VarId X = M.addVar("x", 0, Infinity);
  VarId Y = M.addVar("y", 0, Infinity);
  M.addConstraint(expr({{X, 1}}), Sense::LE, 4);
  M.addConstraint(expr({{Y, 2}}), Sense::LE, 12);
  M.addConstraint(expr({{X, 3}, {Y, 2}}), Sense::LE, 18);
  M.setObjective(expr({{X, 3}, {Y, 5}}), Goal::Maximize);

  Solution S = solveLp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 36.0, 1e-7);
  EXPECT_NEAR(S.value(X), 2.0, 1e-7);
  EXPECT_NEAR(S.value(Y), 6.0, 1e-7);
}

TEST(Simplex, MinimizationWithGe) {
  // min x + 2y s.t. x + y >= 3, y >= 1. Optimum (2, 1) = 4.
  Model M;
  VarId X = M.addVar("x", 0, Infinity);
  VarId Y = M.addVar("y", 0, Infinity);
  M.addConstraint(expr({{X, 1}, {Y, 1}}), Sense::GE, 3);
  M.addConstraint(expr({{Y, 1}}), Sense::GE, 1);
  M.setObjective(expr({{X, 1}, {Y, 2}}), Goal::Minimize);

  Solution S = solveLp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 4.0, 1e-7);
}

TEST(Simplex, EqualityConstraint) {
  // min x + y s.t. x + 2y = 4, x >= 1. Optimum (1, 1.5) = 2.5.
  Model M;
  VarId X = M.addVar("x", 1.0, Infinity);
  VarId Y = M.addVar("y", 0, Infinity);
  M.addConstraint(expr({{X, 1}, {Y, 2}}), Sense::EQ, 4);
  M.setObjective(expr({{X, 1}, {Y, 1}}), Goal::Minimize);

  Solution S = solveLp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 2.5, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
  Model M;
  VarId X = M.addVar("x", 0, Infinity);
  M.addConstraint(expr({{X, 1}}), Sense::LE, 1);
  M.addConstraint(expr({{X, 1}}), Sense::GE, 2);
  M.setObjective(expr({{X, 1}}), Goal::Minimize);
  EXPECT_EQ(solveLp(M).Status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model M;
  VarId X = M.addVar("x", 0, Infinity);
  M.setObjective(expr({{X, 1}}), Goal::Maximize);
  EXPECT_EQ(solveLp(M).Status, SolveStatus::Unbounded);
}

TEST(Simplex, RespectsVariableBounds) {
  // max x + y with x in [0, 2], y in [1, 3]: optimum 5.
  Model M;
  VarId X = M.addVar("x", 0, 2);
  VarId Y = M.addVar("y", 1, 3);
  M.setObjective(expr({{X, 1}, {Y, 1}}), Goal::Maximize);

  Solution S = solveLp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 5.0, 1e-7);
}

TEST(Simplex, NegativeRhsNormalization) {
  // x - y <= -1 with x,y in [0,5]: maximize x gives x = 4 (y = 5).
  Model M;
  VarId X = M.addVar("x", 0, 5);
  VarId Y = M.addVar("y", 0, 5);
  M.addConstraint(expr({{X, 1}, {Y, -1}}), Sense::LE, -1);
  M.setObjective(expr({{X, 1}}), Goal::Maximize);

  Solution S = solveLp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.value(X), 4.0, 1e-7);
}

TEST(Simplex, BoundOverridesTighten) {
  Model M;
  VarId X = M.addVar("x", 0, 10);
  M.setObjective(expr({{X, 1}}), Goal::Maximize);
  Solution S = solveLp(M, {{X, 0.0, 3.0}}, SimplexOptions());
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 3.0, 1e-7);
}

TEST(Simplex, BealeCyclingTerminates) {
  // Beale's classic cycling instance: Dantzig pricing without an
  // anti-cycling guard loops forever at the origin. The solver must escape
  // via the Bland fallback and reach the optimum -1/20.
  Model M;
  VarId X1 = M.addVar("x1", 0, Infinity);
  VarId X2 = M.addVar("x2", 0, Infinity);
  VarId X3 = M.addVar("x3", 0, Infinity);
  VarId X4 = M.addVar("x4", 0, Infinity);
  M.addConstraint(
      expr({{X1, 0.25}, {X2, -60.0}, {X3, -1.0 / 25.0}, {X4, 9.0}}),
      Sense::LE, 0.0);
  M.addConstraint(
      expr({{X1, 0.5}, {X2, -90.0}, {X3, -1.0 / 50.0}, {X4, 3.0}}),
      Sense::LE, 0.0);
  M.addConstraint(expr({{X3, 1.0}}), Sense::LE, 1.0);
  M.setObjective(
      expr({{X1, -0.75}, {X2, 150.0}, {X3, -1.0 / 50.0}, {X4, 6.0}}),
      Goal::Minimize);

  Solution S = solveLp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, -0.05, 1e-9);
}

TEST(Simplex, RandomBoundedLpsMeetTheirDual) {
  // A check of the solver that does not come from the solver's own
  // arithmetic: an optimal point must be feasible, and its objective must
  // equal the optimum of the dual LP (strong duality). An infeasible or
  // unbounded primal has no optimal dual.
  int NumOptimal = 0, NumOther = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    Model M = randomBoundedLp(Seed);
    double Sign = 0.0, Offset = 0.0;
    Model D = dualOf(M, Sign, Offset);
    Solution P = solveLp(M);
    Solution Q = solveLp(D);
    if (P.Status != SolveStatus::Optimal) {
      ++NumOther;
      EXPECT_TRUE(P.Status == SolveStatus::Infeasible ||
                  P.Status == SolveStatus::Unbounded)
          << "seed " << Seed;
      EXPECT_NE(Q.Status, SolveStatus::Optimal) << "seed " << Seed;
      continue;
    }
    ++NumOptimal;
    EXPECT_TRUE(satisfies(M, P.Values, 1e-7)) << "seed " << Seed;
    ASSERT_EQ(Q.Status, SolveStatus::Optimal) << "seed " << Seed;
    EXPECT_NEAR(P.Objective, Sign * Q.Objective + Offset,
                1e-7 * std::max(1.0, std::abs(P.Objective)))
        << "seed " << Seed;
  }
  // Both branches must be exercised.
  EXPECT_GT(NumOptimal, 0);
  EXPECT_GT(NumOther, 0);
}

TEST(Simplex, CompatMatchesReferenceOnRandomBoundedLps) {
  for (uint64_t Seed = 1; Seed <= 200; ++Seed)
    expectMatchesReference(randomBoundedLp(Seed),
                           "random LP seed " + std::to_string(Seed));
}

TEST(Simplex, CompatMatchesReferenceOnBwpShapedLps) {
  for (uint64_t Seed = 1; Seed <= 40; ++Seed)
    expectMatchesReference(bwpShapedLp(Seed),
                           "BWP-shaped LP seed " + std::to_string(Seed));
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degeneracy: many redundant constraints through the origin.
  Model M;
  VarId X = M.addVar("x", 0, Infinity);
  VarId Y = M.addVar("y", 0, Infinity);
  for (int I = 1; I <= 8; ++I)
    M.addConstraint(expr({{X, static_cast<double>(I)}, {Y, 1.0}}), Sense::LE,
                    0.0);
  M.setObjective(expr({{X, 1}, {Y, 1}}), Goal::Maximize);
  Solution S = solveLp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 0.0, 1e-7);
}

/// Property: on random transportation-style LPs, the simplex optimum equals
/// the combinatorial bottleneck bound (which is what the analytic oracle
/// relies on).
class SimplexTransportProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimplexTransportProperty, MatchesBottleneckBound) {
  Rng R(GetParam());
  unsigned NumPorts = 2 + static_cast<unsigned>(R.uniformInt(4));
  unsigned NumOps = 1 + static_cast<unsigned>(R.uniformInt(6));

  struct Op {
    uint32_t Mask;
    double Demand;
  };
  std::vector<Op> Ops;
  for (unsigned U = 0; U < NumOps; ++U) {
    uint32_t Mask = 0;
    while (Mask == 0)
      Mask = static_cast<uint32_t>(R.next()) & ((1u << NumPorts) - 1);
    Ops.push_back({Mask, 0.5 + R.uniformReal() * 4.0});
  }

  // LP: min t subject to routing demands; port load <= t.
  Model M;
  VarId T = M.addVar("t", 0, Infinity);
  std::vector<LinearExpr> Load(NumPorts);
  for (const Op &O : Ops) {
    LinearExpr Routed;
    for (unsigned P = 0; P < NumPorts; ++P) {
      if (!(O.Mask & (1u << P)))
        continue;
      VarId X = M.addVar("x", 0, Infinity);
      Routed.add(X, 1.0);
      Load[P].add(X, 1.0);
    }
    M.addConstraint(std::move(Routed), Sense::EQ, O.Demand);
  }
  for (unsigned P = 0; P < NumPorts; ++P) {
    LinearExpr C = Load[P];
    C.add(T, -1.0);
    M.addConstraint(std::move(C), Sense::LE, 0.0);
  }
  M.setObjective(expr({{T, 1.0}}), Goal::Minimize);
  Solution S = solveLp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);

  // Bottleneck bound: max over port subsets J of demand-inside / |J|.
  double Bound = 0.0;
  for (uint32_t J = 1; J < (1u << NumPorts); ++J) {
    double Inside = 0.0;
    for (const Op &O : Ops)
      if ((O.Mask & ~J) == 0)
        Inside += O.Demand;
    Bound = std::max(Bound, Inside / __builtin_popcount(J));
  }
  EXPECT_NEAR(S.Objective, Bound, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexTransportProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{40}));

// --------------------------------------------------------------------- MILP

TEST(Milp, SimpleKnapsack) {
  // max 10a + 6b + 4c s.t. a+b+c <= 2 (binary). Optimum a=b=1: 16.
  Model M;
  VarId A = M.addBoolVar("a");
  VarId B = M.addBoolVar("b");
  VarId C = M.addBoolVar("c");
  M.addConstraint(expr({{A, 1}, {B, 1}, {C, 1}}), Sense::LE, 2);
  M.setObjective(expr({{A, 10}, {B, 6}, {C, 4}}), Goal::Maximize);

  Solution S = solveMilp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 16.0, 1e-6);
  EXPECT_NEAR(S.value(A), 1.0, 1e-9);
  EXPECT_NEAR(S.value(B), 1.0, 1e-9);
  EXPECT_NEAR(S.value(C), 0.0, 1e-9);
}

TEST(Milp, IntegerRounding) {
  // max x s.t. 2x <= 7, x integer: x = 3 (LP relaxation 3.5).
  Model M;
  VarId X = M.addVar("x", 0, Infinity, /*IsInteger=*/true);
  M.addConstraint(expr({{X, 2}}), Sense::LE, 7);
  M.setObjective(expr({{X, 1}}), Goal::Maximize);

  Solution S = solveMilp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 3.0, 1e-9);
}

TEST(Milp, InfeasibleIntegral) {
  // 0.4 <= x <= 0.6 integral has no solution.
  Model M;
  VarId X = M.addVar("x", 0, 1, /*IsInteger=*/true);
  M.addConstraint(expr({{X, 1}}), Sense::GE, 0.4);
  M.addConstraint(expr({{X, 1}}), Sense::LE, 0.6);
  M.setObjective(expr({{X, 1}}), Goal::Maximize);
  EXPECT_EQ(solveMilp(M).Status, SolveStatus::Infeasible);
}

TEST(Milp, MixedIntegerContinuous) {
  // max 2x + y, x binary, y <= 1.5 continuous, x + y <= 2.
  Model M;
  VarId X = M.addBoolVar("x");
  VarId Y = M.addVar("y", 0, 1.5);
  M.addConstraint(expr({{X, 1}, {Y, 1}}), Sense::LE, 2);
  M.setObjective(expr({{X, 2}, {Y, 1}}), Goal::Maximize);

  Solution S = solveMilp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 3.0, 1e-6); // x = 1, y = 1.
}

/// Property: branch-and-bound agrees with brute force on random small 0/1
/// problems.
class MilpProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MilpProperty, MatchesBruteForce) {
  Rng R(GetParam());
  const int N = 3 + static_cast<int>(R.uniformInt(5));
  const int Rows = 2 + static_cast<int>(R.uniformInt(3));

  std::vector<double> Costs(N);
  for (double &C : Costs)
    C = std::floor(R.uniformRealIn(-5.0, 10.0));
  std::vector<std::vector<double>> A(Rows, std::vector<double>(N));
  std::vector<double> Rhs(Rows);
  for (int Row = 0; Row < Rows; ++Row) {
    for (int I = 0; I < N; ++I)
      A[Row][I] = std::floor(R.uniformRealIn(0.0, 4.0));
    Rhs[Row] = std::floor(R.uniformRealIn(1.0, 8.0));
  }

  Model M;
  std::vector<VarId> Vars;
  for (int I = 0; I < N; ++I)
    Vars.push_back(M.addBoolVar("b"));
  for (int Row = 0; Row < Rows; ++Row) {
    LinearExpr E;
    for (int I = 0; I < N; ++I)
      E.add(Vars[I], A[Row][I]);
    M.addConstraint(std::move(E), Sense::LE, Rhs[Row]);
  }
  LinearExpr Obj;
  for (int I = 0; I < N; ++I)
    Obj.add(Vars[I], Costs[I]);
  M.setObjective(std::move(Obj), Goal::Maximize);

  Solution S = solveMilp(M);
  ASSERT_TRUE(S.ok());

  double Best = -1e18;
  for (uint32_t Bits = 0; Bits < (1u << N); ++Bits) {
    bool Ok = true;
    for (int Row = 0; Row < Rows && Ok; ++Row) {
      double Sum = 0.0;
      for (int I = 0; I < N; ++I)
        if (Bits & (1u << I))
          Sum += A[Row][I];
      Ok = Sum <= Rhs[Row] + 1e-9;
    }
    if (!Ok)
      continue;
    double Value = 0.0;
    for (int I = 0; I < N; ++I)
      if (Bits & (1u << I))
        Value += Costs[I];
    Best = std::max(Best, Value);
  }
  EXPECT_NEAR(S.Objective, Best, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{30}));

/// Property: agreement with brute force on random *general-integer*
/// problems (bounded integer ranges, mixed LE/GE/EQ rows) — exercises the
/// upper-bound rows and multi-level branching.
class MilpGeneralIntProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MilpGeneralIntProperty, MatchesBruteForce) {
  Rng R(GetParam());
  const int N = 2 + static_cast<int>(R.uniformInt(3));
  const int Rows = 1 + static_cast<int>(R.uniformInt(3));
  const int Range = 3; // Each variable in [0, 3].

  std::vector<double> Costs(static_cast<size_t>(N));
  for (double &C : Costs)
    C = std::floor(R.uniformRealIn(-5.0, 10.0));
  std::vector<std::vector<double>> A(static_cast<size_t>(Rows),
                                     std::vector<double>(static_cast<size_t>(N)));
  std::vector<double> Rhs(static_cast<size_t>(Rows));
  std::vector<Sense> Dirs(static_cast<size_t>(Rows));
  for (int Row = 0; Row < Rows; ++Row) {
    for (int I = 0; I < N; ++I)
      A[Row][I] = std::floor(R.uniformRealIn(-2.0, 4.0));
    Dirs[Row] = R.uniformInt(5) == 0
                    ? Sense::EQ
                    : (R.uniformInt(2) ? Sense::LE : Sense::GE);
    Rhs[Row] = std::floor(R.uniformRealIn(Dirs[Row] == Sense::LE ? 2.0 : -6.0,
                                          12.0));
  }

  Model M;
  std::vector<VarId> Vars;
  for (int I = 0; I < N; ++I)
    Vars.push_back(M.addVar("n", 0, Range, /*IsInteger=*/true));
  for (int Row = 0; Row < Rows; ++Row) {
    LinearExpr E;
    for (int I = 0; I < N; ++I)
      E.add(Vars[static_cast<size_t>(I)], A[Row][I]);
    M.addConstraint(std::move(E), Dirs[Row], Rhs[Row]);
  }
  LinearExpr Obj;
  for (int I = 0; I < N; ++I)
    Obj.add(Vars[static_cast<size_t>(I)], Costs[static_cast<size_t>(I)]);
  M.setObjective(std::move(Obj), Goal::Maximize);

  // Brute force over the integer grid.
  double Best = -1e18;
  std::vector<int> X(static_cast<size_t>(N), 0);
  bool Done = false;
  while (!Done) {
    bool Ok = true;
    for (int Row = 0; Row < Rows && Ok; ++Row) {
      double Sum = 0.0;
      for (int I = 0; I < N; ++I)
        Sum += A[Row][I] * X[static_cast<size_t>(I)];
      switch (Dirs[Row]) {
      case Sense::LE:
        Ok = Sum <= Rhs[Row] + 1e-9;
        break;
      case Sense::GE:
        Ok = Sum >= Rhs[Row] - 1e-9;
        break;
      case Sense::EQ:
        Ok = std::abs(Sum - Rhs[Row]) <= 1e-9;
        break;
      }
    }
    if (Ok) {
      double Value = 0.0;
      for (int I = 0; I < N; ++I)
        Value += Costs[static_cast<size_t>(I)] * X[static_cast<size_t>(I)];
      Best = std::max(Best, Value);
    }
    int I = 0;
    for (; I < N; ++I) {
      if (++X[static_cast<size_t>(I)] <= Range)
        break;
      X[static_cast<size_t>(I)] = 0;
    }
    Done = I == N;
  }

  MilpStats Stats;
  Solution S = solveMilp(M, MilpOptions(), &Stats);
  if (Best == -1e18) {
    EXPECT_EQ(S.Status, SolveStatus::Infeasible);
  } else {
    ASSERT_EQ(S.Status, SolveStatus::Optimal);
    EXPECT_NEAR(S.Objective, Best, 1e-6);
    EXPECT_EQ(Stats.DroppedSubtrees, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpGeneralIntProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{40}));

TEST(Milp, IterationStarvedSearchNeverReportsOptimal) {
  // Regression for the silent-pruning bug: when a child LP dies at its
  // iteration limit, the subtree's content is unknown — the search must
  // not claim Optimal (or, with no incumbent, Infeasible). Sweep the
  // iteration budget from "root cannot even solve" to "everything
  // solves" over a family of general-integer models with GE rows (whose
  // children need phase-1 work, so starving them is easy) and check the
  // status contract at every point. On the pre-fix solver several of
  // these sweeps report Optimal with a sub-optimal incumbent.
  bool SawDroppedSubtree = false;
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    Rng R(Seed);
    int N = 6 + static_cast<int>(R.uniformInt(8));
    int Rows = 3 + static_cast<int>(R.uniformInt(4));
    Model M;
    std::vector<VarId> V;
    for (int I = 0; I < N; ++I)
      V.push_back(M.addVar("n", 0, 3, /*IsInteger=*/true));
    for (int Row = 0; Row < Rows; ++Row) {
      LinearExpr E;
      for (int I = 0; I < N; ++I)
        E.add(V[static_cast<size_t>(I)], std::floor(R.uniformRealIn(-2.0, 4.0)));
      Sense S = R.uniformInt(3) == 0 ? Sense::GE : Sense::LE;
      M.addConstraint(std::move(E), S, std::floor(R.uniformRealIn(2.0, 14.0)));
    }
    LinearExpr Obj;
    for (int I = 0; I < N; ++I)
      Obj.add(V[static_cast<size_t>(I)], std::floor(R.uniformRealIn(-3.0, 8.0)));
    M.setObjective(std::move(Obj), Goal::Maximize);

    Solution Reference = solveMilp(M);
    if (Reference.Status != SolveStatus::Optimal)
      continue;

    for (int MaxIter = 1; MaxIter <= 40; ++MaxIter) {
      MilpOptions Options;
      Options.Lp.MaxIterations = MaxIter;
      MilpStats Stats;
      Solution S = solveMilp(M, Options, &Stats);
      if (Stats.DroppedSubtrees > 0) {
        SawDroppedSubtree = true;
        EXPECT_NE(S.Status, SolveStatus::Optimal)
            << "seed " << Seed << " MaxIter " << MaxIter;
        EXPECT_NE(S.Status, SolveStatus::Infeasible)
            << "seed " << Seed << " MaxIter " << MaxIter;
      }
      if (S.Status == SolveStatus::Optimal) {
        EXPECT_EQ(Stats.DroppedSubtrees, 0)
            << "seed " << Seed << " MaxIter " << MaxIter;
        EXPECT_FALSE(Stats.NodeLimitHit)
            << "seed " << Seed << " MaxIter " << MaxIter;
        EXPECT_NEAR(S.Objective, Reference.Objective, 1e-6)
            << "seed " << Seed << " MaxIter " << MaxIter;
      }
    }
  }
  // The sweep must actually cross the interesting regime.
  EXPECT_TRUE(SawDroppedSubtree);
}

TEST(Milp, NodeLimitYieldsFeasibleNotOptimal) {
  Rng R(13);
  Model M;
  LinearExpr Obj, Cap;
  for (int V = 0; V < 18; ++V) {
    VarId Id = M.addBoolVar("b");
    Obj.add(Id, R.uniformRealIn(1.0, 9.0));
    Cap.add(Id, R.uniformRealIn(1.0, 5.0));
  }
  M.addConstraint(std::move(Cap), Sense::LE, 25.0);
  M.setObjective(std::move(Obj), Goal::Maximize);

  MilpOptions Options;
  Options.MaxNodes = 4;
  MilpStats Stats;
  Solution S = solveMilp(M, Options, &Stats);
  EXPECT_NE(S.Status, SolveStatus::Optimal);
  if (S.ok()) {
    EXPECT_EQ(S.Status, SolveStatus::Feasible);
  }
}

// -------------------------------------------------------------------- Model

TEST(Model, NormalizeMergesTerms) {
  LinearExpr E;
  E.add(0, 1.0).add(1, 2.0).add(0, 3.0).add(1, -2.0);
  E.normalize();
  ASSERT_EQ(E.terms().size(), 1u);
  EXPECT_EQ(E.terms()[0].first, 0);
  EXPECT_DOUBLE_EQ(E.terms()[0].second, 4.0);
}

TEST(Model, ConstantFoldedIntoRhs) {
  Model M;
  VarId X = M.addVar("x", 0, 10);
  LinearExpr E;
  E.add(X, 1.0).addConstant(5.0);
  M.addConstraint(std::move(E), Sense::LE, 8.0);
  // x + 5 <= 8 -> x <= 3.
  M.setObjective(expr({{X, 1}}), Goal::Maximize);
  Solution S = solveLp(M);
  ASSERT_EQ(S.Status, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, 3.0, 1e-7);
}

TEST(Model, HasIntegerVars) {
  Model M;
  M.addVar("x", 0, 1);
  EXPECT_FALSE(M.hasIntegerVars());
  M.addBoolVar("b");
  EXPECT_TRUE(M.hasIntegerVars());
}
