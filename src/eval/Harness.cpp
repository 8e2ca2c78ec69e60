//===- eval/Harness.cpp - Accuracy evaluation harness ---------------------===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//

#include "eval/Harness.h"

#include "support/Statistics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <ostream>

using namespace palmed;

ToolAccuracy EvalOutcome::accuracy(const std::string &Tool) const {
  ToolAccuracy A;
  A.Tool = Tool;
  auto ToolIt = Predictions.find(Tool);
  assert(ToolIt != Predictions.end() && "unknown tool");
  const auto &Preds = ToolIt->second;

  // Coverage denominator: blocks the reference tool supports.
  const auto *RefPreds = &Preds;
  auto RefIt = Predictions.find(ReferenceTool);
  if (RefIt != Predictions.end())
    RefPreds = &RefIt->second;

  size_t RefSupported = 0;
  std::vector<double> Pred, Nat, Weights;
  for (size_t I = 0; I < Blocks.size(); ++I) {
    bool RefOk = (*RefPreds)[I].has_value();
    if (RefOk)
      ++RefSupported;
    if (!Preds[I].has_value())
      continue;
    if (RefOk)
      ++A.NumCovered;
    Pred.push_back(*Preds[I]);
    Nat.push_back(NativeIpc[I]);
    Weights.push_back(Blocks[I].Weight);
  }
  A.CoveragePct = RefSupported == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(A.NumCovered) /
                            static_cast<double>(RefSupported);
  A.ErrPct = 100.0 * weightedRmsRelativeError(Pred, Nat, Weights);
  A.KendallTau = kendallTau(Pred, Nat);
  return A;
}

std::vector<std::vector<double>>
EvalOutcome::heatmap(const std::string &Tool, size_t XBins, size_t YBins,
                     double MaxIpc, double MaxRatio) const {
  std::vector<std::vector<double>> Grid(YBins,
                                        std::vector<double>(XBins, 0.0));
  const auto &Preds = Predictions.at(Tool);
  for (size_t I = 0; I < Blocks.size(); ++I) {
    if (!Preds[I].has_value() || NativeIpc[I] <= 0.0)
      continue;
    double X = NativeIpc[I] / MaxIpc;
    double Y = (*Preds[I] / NativeIpc[I]) / MaxRatio;
    size_t XI = std::min(XBins - 1,
                         static_cast<size_t>(std::max(0.0, X) * XBins));
    size_t YI = std::min(YBins - 1,
                         static_cast<size_t>(std::max(0.0, Y) * YBins));
    Grid[YI][XI] += Blocks[I].Weight;
  }
  return Grid;
}

void EvalOutcome::printHeatmap(std::ostream &OS, const std::string &Tool,
                               size_t XBins, size_t YBins, double MaxIpc,
                               double MaxRatio) const {
  auto Grid = heatmap(Tool, XBins, YBins, MaxIpc, MaxRatio);
  double Peak = 0.0;
  for (const auto &Row : Grid)
    for (double V : Row)
      Peak = std::max(Peak, V);
  static const char Shades[] = " .:-=+*#%@";
  OS << Tool << " (y: predicted/native in [0," << MaxRatio
     << "), x: native IPC in [0," << MaxIpc << "))\n";
  for (size_t Y = YBins; Y-- > 0;) {
    // The y = 1 ratio line is the accuracy reference (red line in Fig. 4a).
    double RowLo = MaxRatio * static_cast<double>(Y) / YBins;
    double RowHi = MaxRatio * static_cast<double>(Y + 1) / YBins;
    OS << (RowLo <= 1.0 && 1.0 < RowHi ? '>' : '|');
    for (size_t X = 0; X < XBins; ++X) {
      double V = Grid[Y][X];
      size_t Shade =
          Peak == 0.0
              ? 0
              : std::min<size_t>(9, static_cast<size_t>(
                                        std::ceil(9.0 * V / Peak)));
      OS << Shades[Shade];
    }
    OS << "|\n";
  }
}
