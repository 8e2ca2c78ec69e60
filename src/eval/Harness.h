//===- eval/Harness.h - Accuracy evaluation harness ------------*- C++ -*-===//
//
// Part of the PALMED reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Fig. 4 evaluation outcome: every predictor's IPC over a weighted
/// block set next to native (simulated) execution, as palmed::EvalSession
/// (palmed/EvalSession.h) produces it, and the paper's three metrics —
/// coverage, weighted root-mean-square relative IPC error, and Kendall's
/// tau rank correlation — plus the heatmap histogram of predicted/native
/// IPC ratio against native IPC (Fig. 4a).
///
/// Coverage follows the paper's definition: the fraction of *blocks
/// supported by Palmed* that the tool could process.
///
//===----------------------------------------------------------------------===//

#ifndef PALMED_EVAL_HARNESS_H
#define PALMED_EVAL_HARNESS_H

#include "eval/Workload.h"

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace palmed {

/// Per-tool accuracy summary (one row of the Fig. 4b table).
struct ToolAccuracy {
  std::string Tool;
  /// Percent of reference-supported blocks this tool processed.
  double CoveragePct = 0.0;
  /// Weighted RMS relative IPC error, in percent.
  double ErrPct = 0.0;
  /// Kendall's tau over the covered blocks.
  double KendallTau = 0.0;
  /// Number of blocks covered.
  size_t NumCovered = 0;
};

/// Full evaluation outcome.
struct EvalOutcome {
  std::vector<BasicBlock> Blocks;
  std::vector<double> NativeIpc;
  /// Per tool, per block (nullopt = not processed).
  std::map<std::string, std::vector<std::optional<double>>> Predictions;
  /// Name of the coverage-reference tool (normally "palmed").
  std::string ReferenceTool;

  /// Computes the Fig. 4b row for \p Tool.
  ToolAccuracy accuracy(const std::string &Tool) const;

  /// 2D histogram for Fig. 4a: X = native IPC in [0, MaxIpc), Y =
  /// predicted/native ratio in [0, MaxRatio); weights accumulated per cell.
  std::vector<std::vector<double>> heatmap(const std::string &Tool,
                                           size_t XBins, size_t YBins,
                                           double MaxIpc,
                                           double MaxRatio) const;

  /// Renders a heatmap as ASCII art (densest cell = '@').
  void printHeatmap(std::ostream &OS, const std::string &Tool, size_t XBins,
                    size_t YBins, double MaxIpc, double MaxRatio) const;
};

} // namespace palmed

#endif // PALMED_EVAL_HARNESS_H
