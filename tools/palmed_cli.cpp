//===- tools/palmed_cli.cpp - Command-line front end ----------------------===//
//
// Part of the PALMED reproduction.
//
// A small CLI exposing the public palmed/ facade:
//
//   palmed_cli map     --machine skl|zen|fig1 [--noise S] [--out FILE]
//                      [--save FILE] [--progress]
//   palmed_cli predict --machine skl --mapping FILE "ADD_0^2 LOAD_0"
//   palmed_cli analyze --machine skl --mapping FILE "ADD_0^2 LOAD_0"
//   palmed_cli eval    --machine skl [--threads N] [--blocks N]
//                      [--suite spec|poly] [--tools a,b,c | --tools help]
//   palmed_cli dual    --machine skl
//   palmed_cli query   --socket PATH [--machine M] [KERNEL...]
//                      [--stats] [--list]
//
// `map` infers a resource mapping (palmed::Pipeline) and writes the
// portable text format (--out) and/or the versioned binary format
// (--save); `predict` and `analyze` consume either; `eval` runs the
// Fig. 4b accuracy harness through the PredictorRegistry and a
// (optionally parallel) EvalSession; `dual` prints the ground-truth
// conjunctive dual for comparison; `query` talks to a running
// palmed_serve daemon.
//
//===----------------------------------------------------------------------===//

#include "palmed/palmed.h"
#include "support/Table.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace palmed;

namespace {

/// Machine roster shared by construction, the usage text, and the
/// unknown-name error message.
constexpr const char *MachineNames[] = {"skl", "zen", "fig1", "stress",
                                        "huge"};

std::string machineNameList() {
  std::string Out;
  for (const char *Name : MachineNames) {
    if (!Out.empty())
      Out += ", ";
    Out += Name;
  }
  return Out;
}

void usage() {
  std::fprintf(
      stderr,
      "palmed_cli %s\n"
      "usage:\n"
      "  palmed_cli map     --machine MACHINE [--noise S] [--out F]\n"
      "                     [--save F] [--threads N] [--progress]\n"
      "                     [--prune-pairs | --no-prune-pairs]\n"
      "  palmed_cli predict --machine M --mapping F \"KERNEL\"\n"
      "  palmed_cli analyze --machine M --mapping F \"KERNEL\"\n"
      "  palmed_cli eval    --machine M [--threads N] [--blocks N]\n"
      "                     [--suite spec|poly] [--tools a,b,c|help]\n"
      "  palmed_cli eval    --machine M --corpus FILE [--mapping F]\n"
      "                     [--threads N]\n"
      "  palmed_cli dual    --machine M\n"
      "  palmed_cli query   --socket PATH [--machine M] [KERNEL...]\n"
      "                     [--stats] [--list]\n"
      "  palmed_cli help\n"
      "KERNEL is e.g. \"ADD_0^2 LOAD_0\" (instruction names with optional\n"
      "^multiplicity). Machines: skl (Skylake-like), zen (Zen1-like),\n"
      "fig1 (the paper's running example), stress (large synthetic ISA),\n"
      "huge (2048-instruction / 24-port synthetic ISA).\n"
      "--threads 0 resolves to the hardware thread count.\n"
      "--prune-pairs / --no-prune-pairs toggle the cluster-first selection\n"
      "pruning that replaces the quadratic pair sweep; the default is ON\n"
      "for the huge profile and OFF everywhere else.\n"
      "map --out writes the portable text mapping; map --save writes the\n"
      "versioned binary format (checksummed, machine-stamped) that\n"
      "palmed_serve loads. predict/analyze auto-detect either format.\n"
      "query sends the kernels to a palmed_serve daemon in one batch;\n"
      "--stats prints 'key value' counter lines, --list the served\n"
      "machines.\n"
      "eval --corpus batch-predicts a file of kernel lines (one KERNEL\n"
      "per line; blank lines and # comments skipped) through the batch\n"
      "prediction engine and reports blocks/s; --mapping uses a saved\n"
      "mapping instead of inferring one.\n",
      versionString());
}

std::optional<MachineModel> makeMachine(const std::string &Name) {
  if (Name == "skl")
    return makeSklLike();
  if (Name == "zen")
    return makeZenLike();
  if (Name == "fig1")
    return makeFig1Machine();
  if (Name == "stress")
    return makeStressMachine(StressIsaConfig());
  if (Name == "huge")
    return makeStressMachine(hugeStressConfig());
  std::fprintf(stderr, "error: unknown machine '%s' (valid machines: %s)\n",
               Name.c_str(), machineNameList().c_str());
  return std::nullopt;
}

/// The CLI threading convention shared by map and eval: 1 = serial
/// (default), 0 = auto (hardware concurrency), N = that many workers.
ExecutionPolicy policyFor(unsigned Threads) {
  return Threads == 1 ? ExecutionPolicy::serial()
                      : ExecutionPolicy::parallel(Threads);
}

struct Options {
  std::string Command;
  std::string Machine = "skl";
  std::string MappingFile;
  std::string CorpusFile;
  std::string OutFile;
  std::string SaveFile;
  std::string SocketPath;
  /// Positional kernel arguments; predict/analyze use the first, query
  /// sends the whole batch.
  std::vector<std::string> Kernels;
  std::string Tools;
  std::string Suite = "spec";
  double Noise = 0.0;
  unsigned Threads = 1;
  size_t Blocks = 300;
  bool Progress = false;
  bool Stats = false;
  bool List = false;
  /// Cluster-first selection pruning: unset = default (on for huge, off
  /// otherwise), overridable with --prune-pairs / --no-prune-pairs.
  std::optional<bool> PrunePairs;
};

std::optional<Options> parseArgs(int Argc, char **Argv) {
  if (Argc < 2)
    return std::nullopt;
  Options O;
  O.Command = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "--machine") {
      if (const char *V = Next())
        O.Machine = V;
      else
        return std::nullopt;
    } else if (Arg == "--mapping") {
      if (const char *V = Next())
        O.MappingFile = V;
      else
        return std::nullopt;
    } else if (Arg == "--corpus") {
      if (const char *V = Next())
        O.CorpusFile = V;
      else
        return std::nullopt;
    } else if (Arg == "--out") {
      if (const char *V = Next())
        O.OutFile = V;
      else
        return std::nullopt;
    } else if (Arg == "--save") {
      if (const char *V = Next())
        O.SaveFile = V;
      else
        return std::nullopt;
    } else if (Arg == "--socket") {
      if (const char *V = Next())
        O.SocketPath = V;
      else
        return std::nullopt;
    } else if (Arg == "--noise") {
      if (const char *V = Next())
        O.Noise = std::strtod(V, nullptr);
      else
        return std::nullopt;
    } else if (Arg == "--threads") {
      if (const char *V = Next())
        O.Threads =
            static_cast<unsigned>(std::strtoul(V, nullptr, 10));
      else
        return std::nullopt;
    } else if (Arg == "--blocks") {
      if (const char *V = Next())
        O.Blocks = std::strtoul(V, nullptr, 10);
      else
        return std::nullopt;
    } else if (Arg == "--tools") {
      if (const char *V = Next())
        O.Tools = V;
      else
        return std::nullopt;
    } else if (Arg == "--suite") {
      if (const char *V = Next())
        O.Suite = V;
      else
        return std::nullopt;
    } else if (Arg == "--progress") {
      O.Progress = true;
    } else if (Arg == "--stats") {
      O.Stats = true;
    } else if (Arg == "--list") {
      O.List = true;
    } else if (Arg == "--prune-pairs") {
      O.PrunePairs = true;
    } else if (Arg == "--no-prune-pairs") {
      O.PrunePairs = false;
    } else if (!Arg.empty() && Arg[0] != '-') {
      O.Kernels.push_back(Arg);
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return std::nullopt;
    }
  }
  return O;
}

/// Loads a mapping file in either format (binary auto-detected by magic,
/// text otherwise), reporting MappingIO's typed error on failure.
std::optional<ResourceMapping> loadMapping(const std::string &File,
                                           const MachineModel &Machine) {
  serve::MappingIOError Err;
  auto M = serve::loadMappingAuto(File, Machine, &Err);
  if (!M)
    std::fprintf(stderr, "error: %s [%s]\n", Err.Message.c_str(),
                 serve::mappingIOStatusName(Err.Status));
  return M;
}

const char *bwpModeName(BwpMode Mode) {
  return Mode == BwpMode::Pinned ? "pinned" : "exact-milp";
}

/// Banner naming the library version and the effective pipeline config,
/// printed at the top of `map` output.
void printConfigBanner(const PalmedConfig &Cfg, const Options &O) {
  std::fprintf(stderr,
               "palmed %s | machine=%s epsilon=%g M=%d L=%d mode=%s "
               "max-iter=%d noise=%g threads=%u prune-pairs=%d\n",
               versionString(), O.Machine.c_str(), Cfg.Epsilon, Cfg.MRepeat,
               Cfg.LSat, bwpModeName(Cfg.Mode), Cfg.MaxShapeIterations,
               O.Noise, Cfg.Execution.NumThreads,
               Cfg.Selection.ClusterPairPruning ? 1 : 0);
}

/// Stage-progress printer for `map --progress`.
class StderrObserver : public PipelineObserver {
public:
  void onStageBegin(PipelineStage Stage) override {
    std::fprintf(stderr, "[%s] ...\n", pipelineStageName(Stage));
  }
  void onStageEnd(PipelineStage Stage, const PalmedStats &Stats) override {
    std::fprintf(stderr, "[%s] done (%zu benchmarks so far)\n",
                 pipelineStageName(Stage), Stats.NumBenchmarks);
  }
  void onShapeIteration(int Iteration, size_t NumConstraints,
                        size_t NumResources,
                        size_t NumBenchmarks) override {
    std::fprintf(stderr,
                 "  shape round %d: %zu constraints, %zu resources, "
                 "%zu benchmarks\n",
                 Iteration, NumConstraints, NumResources, NumBenchmarks);
  }
};

int cmdMap(const Options &O) {
  auto Machine = makeMachine(O.Machine);
  if (!Machine)
    return 1;
  AnalyticOracle Oracle(*Machine);
  BenchmarkConfig BCfg;
  BCfg.NoiseStdDev = O.Noise;
  BenchmarkRunner Runner(*Machine, Oracle, BCfg);

  PalmedConfig Cfg;
  Cfg.Execution = policyFor(O.Threads);
  // The huge profile's full quadratic sweep is the wall the pruning
  // removes; everywhere else the paper's full sweep stays the default.
  Cfg.Selection.ClusterPairPruning =
      O.PrunePairs.value_or(O.Machine == "huge");
  printConfigBanner(Cfg, O);
  std::fprintf(stderr, "inferring mapping for '%s'...\n",
               Machine->name().c_str());
  Pipeline P(Runner, Cfg);
  StderrObserver Observer;
  if (O.Progress)
    P.setObserver(&Observer);
  const PalmedResult &R = P.run();
  std::fprintf(stderr,
               "%zu resources, %zu instructions mapped, %zu benchmarks "
               "(%zu of %zu quadratic pairs), %.1fs total (select %.2fs, "
               "core %.2fs, complete %.2fs)\n",
               R.Stats.NumResources, R.Stats.NumMapped,
               R.Stats.NumBenchmarks, R.Stats.PairBenchmarks,
               R.Stats.PairBenchmarksQuadratic,
               R.Stats.SelectionSeconds + R.Stats.CoreMappingSeconds +
                   R.Stats.CompleteMappingSeconds,
               R.Stats.SelectionSeconds, R.Stats.CoreMappingSeconds,
               R.Stats.CompleteMappingSeconds);
  std::fprintf(stderr,
               "LP: %zu shape-search nodes, %ld/%ld block-cache hits "
               "(%.1f%% of probes), core %ld solves/%ld pivots, "
               "complete %ld/%ld\n",
               R.Stats.ShapeSearchNodes, R.Stats.LpWarmStartHits,
               R.Stats.LpWarmStartAttempts,
               R.Stats.LpWarmStartAttempts > 0
                   ? 100.0 * static_cast<double>(R.Stats.LpWarmStartHits) /
                         static_cast<double>(R.Stats.LpWarmStartAttempts)
                   : 0.0,
               R.Stats.CoreLpSolves, R.Stats.CoreLpPivots,
               R.Stats.CompleteLpSolves, R.Stats.CompleteLpPivots);

  if (!O.SaveFile.empty()) {
    serve::MappingIOError Err;
    if (!serve::saveMapping(O.SaveFile, R.Mapping, *Machine, &Err)) {
      std::fprintf(stderr, "error: %s [%s]\n", Err.Message.c_str(),
                   serve::mappingIOStatusName(Err.Status));
      return 1;
    }
    std::fprintf(stderr, "binary mapping written to %s\n",
                 O.SaveFile.c_str());
  }

  std::string Text = R.Mapping.toText(Machine->isa());
  if (O.OutFile.empty()) {
    if (O.SaveFile.empty())
      std::cout << Text;
    return 0;
  }
  std::ofstream OS(O.OutFile);
  if (!OS) {
    std::fprintf(stderr, "error: cannot write '%s'\n", O.OutFile.c_str());
    return 1;
  }
  OS << Text;
  std::fprintf(stderr, "mapping written to %s\n", O.OutFile.c_str());
  return 0;
}

int cmdPredictOrAnalyze(const Options &O, bool Analyze) {
  auto Machine = makeMachine(O.Machine);
  if (!Machine)
    return 1;
  if (O.MappingFile.empty() || O.Kernels.empty()) {
    usage();
    return 1;
  }
  auto Mapping = loadMapping(O.MappingFile, *Machine);
  if (!Mapping)
    return 1;
  const std::string &Kernel = O.Kernels.front();
  auto K = Microkernel::parse(Kernel, Machine->isa());
  if (!K) {
    std::fprintf(stderr, "error: cannot parse kernel '%s'\n",
                 Kernel.c_str());
    return 1;
  }
  auto Ipc = Mapping->predictIpc(*K);
  if (!Ipc) {
    std::fprintf(stderr,
                 "kernel contains instructions the mapping does not cover\n");
    return 1;
  }
  AnalyticOracle Oracle(*Machine);
  std::printf("kernel        : %s\n", K->str(Machine->isa()).c_str());
  std::printf("predicted IPC : %.3f  (t = %.3f cycles/iter)\n", *Ipc,
              K->size() / *Ipc);
  std::printf("simulated IPC : %.3f\n", Oracle.measureIpc(*K));
  if (Analyze) {
    std::printf("\n");
    printReport(std::cout, analyzeKernel(*Mapping, *K), Machine->isa());
  }
  return 0;
}

std::vector<std::string> splitList(const std::string &Csv) {
  std::vector<std::string> Out;
  std::stringstream SS(Csv);
  std::string Item;
  while (std::getline(SS, Item, ','))
    if (!Item.empty())
      Out.push_back(Item);
  return Out;
}

/// `eval --corpus`: batch-predicts a file of microkernel lines through
/// the compiled batch engine and reports corpus-prediction throughput.
/// One kernel per line in Microkernel::parse syntax; blank lines and
/// lines starting with '#' are skipped. Any malformed line aborts with a
/// nonzero exit naming the line. The mapping comes from --mapping when
/// given, otherwise it is inferred by the pipeline.
int cmdEvalCorpus(const Options &O) {
  auto Machine = makeMachine(O.Machine);
  if (!Machine)
    return 1;

  std::ifstream In(O.CorpusFile);
  if (!In) {
    std::fprintf(stderr, "error: cannot open corpus file '%s'\n",
                 O.CorpusFile.c_str());
    return 1;
  }
  predict::KernelBatch Batch;
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    size_t First = Line.find_first_not_of(" \t\r");
    if (First == std::string::npos || Line[First] == '#')
      continue;
    auto K = Microkernel::parse(Line, Machine->isa());
    if (!K) {
      std::fprintf(stderr,
                   "error: corpus line %zu: cannot parse kernel '%s'\n",
                   LineNo, Line.c_str());
      return 1;
    }
    Batch.add(*K);
  }
  if (Batch.empty()) {
    std::fprintf(stderr, "error: corpus file '%s' contains no kernels\n",
                 O.CorpusFile.c_str());
    return 1;
  }

  std::optional<ResourceMapping> Mapping;
  if (!O.MappingFile.empty()) {
    Mapping = loadMapping(O.MappingFile, *Machine);
    if (!Mapping)
      return 1;
  } else {
    std::fprintf(stderr, "inferring mapping for '%s'...\n",
                 Machine->name().c_str());
    AnalyticOracle Oracle(*Machine);
    BenchmarkRunner Runner(*Machine, Oracle);
    Pipeline P(Runner);
    Mapping = P.run().Mapping;
  }

  ExecutionPolicy Pol = policyFor(O.Threads);
  std::unique_ptr<Executor> Exec;
  if (Pol.isParallel())
    Exec = std::make_unique<Executor>(Pol.NumThreads);

  using Clock = std::chrono::steady_clock;
  Clock::time_point T0 = Clock::now();
  predict::CompiledMapping CM = predict::CompiledMapping::compile(*Mapping);
  Clock::time_point T1 = Clock::now();
  std::vector<std::optional<double>> Ipc(Batch.size());
  predict::predictIpcBatch(CM, Batch, Ipc.data(), Exec.get());
  Clock::time_point T2 = Clock::now();

  size_t Supported = 0;
  double IpcSum = 0.0;
  for (const auto &V : Ipc) {
    if (!V)
      continue;
    ++Supported;
    IpcSum += *V;
  }
  double CompileUs =
      std::chrono::duration<double, std::micro>(T1 - T0).count();
  double PredictS = std::chrono::duration<double>(T2 - T1).count();
  double BlocksPerS =
      PredictS > 0.0 ? static_cast<double>(Batch.size()) / PredictS : 0.0;
  std::printf("corpus %s: %zu blocks, %zu supported (%.1f%%), machine %s\n",
              O.CorpusFile.c_str(), Batch.size(), Supported,
              100.0 * static_cast<double>(Supported) /
                  static_cast<double>(Batch.size()),
              Machine->name().c_str());
  if (Supported)
    std::printf("mean predicted IPC: %.3f\n",
                IpcSum / static_cast<double>(Supported));
  std::printf("compile: %.1f us; predicted %zu blocks in %.3f ms: "
              "%.0f blocks/s\n",
              CompileUs, Batch.size(), PredictS * 1e3, BlocksPerS);
  return 0;
}

int cmdEval(const Options &O) {
  if (!O.CorpusFile.empty())
    return cmdEvalCorpus(O);
  const PredictorRegistry &Registry = PredictorRegistry::builtin();
  if (O.Tools == "help" || O.Tools == "list") {
    std::printf("registered predictors:\n");
    for (const std::string &Name : Registry.names())
      std::printf("  %-10s %s\n", Name.c_str(),
                  Registry.description(Name).c_str());
    return 0;
  }
  auto Machine = makeMachine(O.Machine);
  if (!Machine)
    return 1;
  WorkloadConfig WCfg;
  if (O.Suite == "spec")
    WCfg.Profile = WorkloadProfile::SpecLike;
  else if (O.Suite == "poly")
    WCfg.Profile = WorkloadProfile::PolybenchLike;
  else {
    std::fprintf(stderr, "error: unknown suite '%s' (spec|poly)\n",
                 O.Suite.c_str());
    return 1;
  }
  WCfg.NumBlocks = O.Blocks;

  // Validate and dedupe the tool roster before the (expensive) mapping
  // inference, so bad --tools input fails fast.
  std::vector<std::string> Tools =
      O.Tools.empty() ? Registry.names() : splitList(O.Tools);
  {
    std::vector<std::string> Unique;
    for (const std::string &Tool : Tools) {
      if (!Registry.contains(Tool)) {
        std::string Known;
        for (const std::string &Name : Registry.names())
          Known += (Known.empty() ? "" : ", ") + Name;
        std::fprintf(stderr,
                     "error: unknown tool '%s' (valid tools: %s; "
                     "see --tools help)\n",
                     Tool.c_str(), Known.c_str());
        return 1;
      }
      if (std::find(Unique.begin(), Unique.end(), Tool) == Unique.end())
        Unique.push_back(Tool);
    }
    Tools = std::move(Unique);
  }

  AnalyticOracle Oracle(*Machine);
  BenchmarkRunner Runner(*Machine, Oracle);

  std::fprintf(stderr, "palmed %s | eval machine=%s suite=%s blocks=%zu "
                       "threads=%u\n",
               versionString(), O.Machine.c_str(), O.Suite.c_str(),
               O.Blocks, O.Threads);
  std::fprintf(stderr, "inferring mapping for '%s'...\n",
               Machine->name().c_str());
  Pipeline P(Runner);
  const PalmedResult &R = P.run();

  PredictorContext Ctx;
  Ctx.Machine = &*Machine;
  Ctx.Runner = &Runner;
  Ctx.PalmedMapping = &R.Mapping;

  EvalSession Session(Oracle, policyFor(O.Threads));
  Session.setReferenceTool("palmed");
  std::vector<std::string> Added;
  for (const std::string &Tool : Tools) {
    std::string Error;
    auto Pred = Registry.create(Tool, Ctx, &Error);
    if (!Pred) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    Added.push_back(Pred->name());
    Session.add(std::move(Pred));
  }

  auto Blocks = generateWorkload(*Machine, WCfg);
  EvalOutcome Out = Session.run(Blocks);

  TextTable T({"tool", "coverage %", "RMS err %", "Kendall tau"});
  for (const std::string &Tool : Added) {
    ToolAccuracy A = Out.accuracy(Tool);
    T.addRow({A.Tool, TextTable::fmt(A.CoveragePct, 1),
              TextTable::fmt(A.ErrPct, 1),
              TextTable::fmt(A.KendallTau, 2)});
  }
  std::printf("%s workload, %zu blocks, machine %s:\n\n",
              workloadProfileName(WCfg.Profile), Blocks.size(),
              Machine->name().c_str());
  T.print(std::cout);
  return 0;
}

/// Talks to a running palmed_serve daemon: a batched prediction query for
/// the positional kernels, plus optional --stats / --list dumps. Returns
/// nonzero if the transport fails or any kernel in the batch fails.
int cmdQuery(const Options &O) {
  if (O.SocketPath.empty() ||
      (O.Kernels.empty() && !O.Stats && !O.List)) {
    usage();
    return 1;
  }
  serve::Client C;
  if (!C.connect(O.SocketPath)) {
    std::fprintf(stderr, "error: %s\n", C.lastError().c_str());
    return 1;
  }

  if (O.List) {
    auto L = C.list();
    if (!L) {
      std::fprintf(stderr, "error: %s\n", C.lastError().c_str());
      return 1;
    }
    for (const serve::MachineInfo &M : L->Machines)
      std::printf("%-10s digest=%016llx resources=%u mapped=%u\n",
                  M.Name.c_str(),
                  static_cast<unsigned long long>(M.Digest),
                  M.NumResources, M.NumMapped);
  }

  int Rc = 0;
  if (!O.Kernels.empty()) {
    auto R = C.query(O.Machine, O.Kernels);
    if (!R) {
      std::fprintf(stderr, "error: %s\n", C.lastError().c_str());
      return 1;
    }
    for (size_t I = 0; I < O.Kernels.size(); ++I) {
      const serve::KernelAnswer &A = R->Answers[I];
      switch (A.S) {
      case serve::KernelAnswer::Status::Ok: {
        std::string Bottlenecks;
        for (const std::string &B : A.Bottlenecks)
          Bottlenecks += (Bottlenecks.empty() ? "" : ",") + B;
        std::printf("%s : ipc=%.3f bottleneck=%s\n", O.Kernels[I].c_str(),
                    A.Ipc, Bottlenecks.c_str());
        break;
      }
      case serve::KernelAnswer::Status::ParseError:
        std::printf("%s : parse-error\n", O.Kernels[I].c_str());
        Rc = 1;
        break;
      case serve::KernelAnswer::Status::Unsupported:
        std::printf("%s : unsupported\n", O.Kernels[I].c_str());
        Rc = 1;
        break;
      }
    }
  }

  if (O.Stats) {
    auto S = C.stats();
    if (!S) {
      std::fprintf(stderr, "error: %s\n", C.lastError().c_str());
      return 1;
    }
    for (const auto &[Key, Value] : S->Counters)
      std::printf("%s %g\n", Key.c_str(), Value);
  }
  return Rc;
}

int cmdDual(const Options &O) {
  auto Machine = makeMachine(O.Machine);
  if (!Machine)
    return 1;
  ResourceMapping Dual = buildDualMapping(*Machine);
  std::cout << Dual.toText(Machine->isa());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  auto O = parseArgs(Argc, Argv);
  if (!O) {
    usage();
    return 1;
  }
  if (O->Command == "map")
    return cmdMap(*O);
  if (O->Command == "predict")
    return cmdPredictOrAnalyze(*O, /*Analyze=*/false);
  if (O->Command == "analyze")
    return cmdPredictOrAnalyze(*O, /*Analyze=*/true);
  if (O->Command == "eval")
    return cmdEval(*O);
  if (O->Command == "dual")
    return cmdDual(*O);
  if (O->Command == "query")
    return cmdQuery(*O);
  if (O->Command == "help" || O->Command == "--help" || O->Command == "-h") {
    usage();
    return 0;
  }
  usage();
  return 1;
}
