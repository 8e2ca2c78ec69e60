//===- perfbench/workload.cpp - Repository benchmark workloads -------------===//
//
// Part of the PALMED reproduction.
//
// One seeded run of one benchmark workload. perfbench/run.py builds this
// program, runs it, checks its report and prints the result line; see that
// file for the command line the benchmark is driven with.
//
// Every run walks the whole product: cold maps of the workload's profiles,
// the accuracy of those mappings on held-out blocks, corpus prediction
// (text -> IPC and pre-built batch -> IPC) and an in-process server driven
// over its socket by two closed-loop clients. The workloads differ in where
// the run spends its time (WorkloadSpec sizes each phase of the cycles a
// run makes), so each end-to-end metric is measured on every workload while
// each workload stresses its own layers.
//
// Layers are timed from outside, around calls into their public functions:
// Pipeline stages, a counting/timing ThroughputOracle decorator under the
// BenchmarkRunner, KernelBatch::add, predictIpcBatch, Microkernel::parse,
// loadMappingAuto, CompiledMapping::compile, Client::query and the serve
// protocol's encode/decode functions. With --trace 1 the fine-grained
// timers run and spans are kept in memory and written out as Chrome trace
// JSON at exit; work counts are collected in both modes and must agree
// between them.
//
// Usage: perfbench_workload WORKLOAD SEED SECONDS TRACE REPORT.json
//        (run from a scratch directory: mapping files, the server socket
//        and the trace file are created in the working directory; each
//        cold map runs in a child process, see mapProcess)
//
//===----------------------------------------------------------------------===//

#include "palmed/palmed.h"
#include "support/Statistics.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <malloc.h>
#include <mutex>
#include <pthread.h>
#include <sched.h>
#include <spawn.h>
#include <stdexcept>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace palmed;
using Clock = std::chrono::steady_clock;

namespace {

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

double secondsSince(Clock::time_point T0) {
  return secondsBetween(T0, Clock::now());
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank percentile, Q in (0, 1].
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(Q * static_cast<double>(V.size()));
  size_t Idx = Rank <= 1.0 ? 0 : static_cast<size_t>(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

uint64_t splitmix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Independent seed for input stream \p Stream of run seed \p Seed.
uint64_t streamSeed(uint64_t Seed, const std::string &Stream) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (char C : Stream)
    H = (H ^ static_cast<unsigned char>(C)) * 0x100000001b3ull;
  return splitmix(Seed ^ splitmix(H));
}

uint64_t fnv1a(const std::string &Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (char C : Bytes)
    H = (H ^ static_cast<unsigned char>(C)) * 0x100000001b3ull;
  return H;
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

bool sameBits(const std::optional<double> &A, const std::optional<double> &B) {
  return A.has_value() == B.has_value() && (!A || sameBits(*A, *B));
}

//===----------------------------------------------------------------------===//
// Failure accounting and spans.
//===----------------------------------------------------------------------===//

/// Operations attempted and failed over the run, plus the first messages.
struct Ledger {
  std::atomic<uint64_t> Attempted{0};
  std::atomic<uint64_t> Failed{0};
  std::mutex M;
  std::vector<std::string> Messages;

  /// Counts one operation; returns \p Ok.
  bool check(bool Ok, const std::string &What) {
    Attempted.fetch_add(1, std::memory_order_relaxed);
    if (!Ok)
      fail(What);
    return Ok;
  }
  void fail(const std::string &What) {
    Failed.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> L(M);
    if (Messages.size() < 20)
      Messages.push_back(What);
  }
};

Ledger TheLedger;

/// In-memory span store, written out as Chrome trace-event JSON at exit.
/// Only coarse boundaries (stages, passes, phases) become spans; per-call
/// timings are summed in place by the layer that owns them.
class SpanLog {
public:
  explicit SpanLog(bool On) : On(On), Origin(Clock::now()) {}

  void add(const char *Name, Clock::time_point Begin, Clock::time_point End) {
    if (!On)
      return;
    std::lock_guard<std::mutex> L(M);
    Spans.push_back({Name, threadIndex(), Begin, End});
  }

  bool write(const std::string &Path) const {
    std::ofstream OS(Path);
    OS << "{\"traceEvents\":[";
    bool First = true;
    for (const Span &S : Spans) {
      OS << (First ? "" : ",") << "\n{\"name\":\"" << S.Name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << S.Tid << ",\"ts\":"
         << micros(S.Begin) << ",\"dur\":" << micros(S.End) - micros(S.Begin)
         << "}";
      First = false;
    }
    OS << "\n]}\n";
    return static_cast<bool>(OS);
  }

private:
  struct Span {
    const char *Name;
    unsigned Tid;
    Clock::time_point Begin, End;
  };
  static unsigned threadIndex() {
    static std::atomic<unsigned> Next{0};
    thread_local unsigned Index = Next.fetch_add(1);
    return Index;
  }
  long long micros(Clock::time_point T) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(T - Origin)
        .count();
  }

  bool On;
  Clock::time_point Origin;
  mutable std::mutex M;
  std::vector<Span> Spans;
};

/// Runs \p Fn, records it as span \p Name and returns its wall seconds.
template <typename Fn>
double timed(SpanLog &Log, const char *Name, Fn &&F) {
  Clock::time_point T0 = Clock::now();
  F();
  Clock::time_point T1 = Clock::now();
  Log.add(Name, T0, T1);
  return secondsBetween(T0, T1);
}

//===----------------------------------------------------------------------===//
// Measurement-layer decorators.
//===----------------------------------------------------------------------===//

/// Event counters kept per thread: each thread bumps only its own slot, so
/// the pipeline's parallel workers never contend on a shared counter.
/// Totals are read after the counted work has joined.
class PerThreadCounter {
public:
  struct Totals {
    uint64_t Events = 0;
    double BusyS = 0.0;
  };

  void add(uint64_t BusyNs) {
    Slot &S = local();
    S.Events.fetch_add(1, std::memory_order_relaxed);
    S.BusyNs.fetch_add(BusyNs, std::memory_order_relaxed);
  }

  Totals totals() const {
    std::lock_guard<std::mutex> L(M);
    Totals T;
    uint64_t Ns = 0;
    for (const Slot &S : Slots) {
      T.Events += S.Events.load(std::memory_order_relaxed);
      Ns += S.BusyNs.load(std::memory_order_relaxed);
    }
    T.BusyS = static_cast<double>(Ns) * 1e-9;
    return T;
  }

private:
  struct Slot {
    std::atomic<uint64_t> Events{0};
    std::atomic<uint64_t> BusyNs{0};
  };

  Slot &local() {
    // Owner ids are never reused, so a thread's cached slot of a destroyed
    // counter can never be mistaken for a slot of a live one.
    thread_local std::vector<std::pair<uint64_t, Slot *>> Cache;
    for (const auto &[Owner, S] : Cache)
      if (Owner == Id)
        return *S;
    std::lock_guard<std::mutex> L(M);
    Slot &S = Slots.emplace_back();
    Cache.emplace_back(Id, &S);
    return S;
  }

  static inline std::atomic<uint64_t> NextId{1};
  const uint64_t Id = NextId.fetch_add(1);
  mutable std::mutex M;
  std::deque<Slot> Slots; ///< Deque: slot addresses stay stable.
};

uint64_t nanosBetween(Clock::time_point A, Clock::time_point B) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(B - A).count());
}

/// Counts (and, when tracing, times) every measurement that reaches the
/// backend oracle. Forwards isThreadSafe() so the runner keeps its
/// parallel path.
class TimedOracle final : public ThroughputOracle {
public:
  TimedOracle(ThroughputOracle &Inner, bool Timed)
      : Inner(Inner), Timed(Timed) {}

  double measureIpc(const Microkernel &K) override {
    if (!Timed) {
      Calls.add(0);
      return Inner.measureIpc(K);
    }
    Clock::time_point T0 = Clock::now();
    double Ipc = Inner.measureIpc(K);
    Calls.add(nanosBetween(T0, Clock::now()));
    return Ipc;
  }
  std::string name() const override { return Inner.name(); }
  bool isThreadSafe() const override { return Inner.isThreadSafe(); }

  PerThreadCounter::Totals totals() const { return Calls.totals(); }

private:
  ThroughputOracle &Inner;
  const bool Timed;
  PerThreadCounter Calls;
};

/// A BenchmarkRunner that counts the measurement requests the pipeline
/// makes of it (cache hits included).
class CountingRunner final : public BenchmarkRunner {
public:
  using BenchmarkRunner::BenchmarkRunner;

  double measureIpc(const Microkernel &K) override {
    Requests.add(0);
    return BenchmarkRunner::measureIpc(K);
  }
  uint64_t requests() const { return Requests.totals().Events; }

private:
  PerThreadCounter Requests;
};

//===----------------------------------------------------------------------===//
// Workloads.
//===----------------------------------------------------------------------===//

/// How one workload spends a run. A run maps every profile once (which
/// yields the mappings), then makes round(--seconds / SecondsPerCycle)
/// cycles and ends with one more probe block: a cycle is a probe block (
/// CorpusPasses text -> IPC passes, BatchSlice seconds of pre-built batch
/// passes, ServeSlice seconds of serving) followed by one cold map round.
/// The cycle count depends on --seconds alone, not on how fast the host or
/// the code is, so a faster map shortens the run instead of adding serve
/// slices (and server cache entries) to it.
/// Interleaving spreads each metric's samples over the whole run, so a
/// spell of interference from other processes touches a few samples of
/// every metric rather than all samples of one. The phases that are not a
/// workload's focus run as short probes, so every end-to-end metric is
/// measured on every workload.
struct WorkloadSpec {
  const char *Name;
  std::vector<const char *> Profiles;
  size_t CorpusLines;    ///< Corpus lines per profile.
  size_t CorpusDistinct; ///< Distinct long-tail lines per profile.
  int CorpusPasses;      ///< Text -> IPC passes per cycle.
  double BatchSlice;     ///< Seconds of pre-built batch passes per cycle.
  double ServeSlice;     ///< Seconds of serving per cycle.
  size_t HotKernels;     ///< Zipf-drawn served kernels per profile.
  /// Seconds of --seconds one cycle stands for: about one cycle's length
  /// on a 4-CPU host, so a run lasts about --seconds there.
  double SecondsPerCycle;
};

const WorkloadSpec Workloads[] = {
    {"map_huge", {"huge"}, 1u << 15, 1u << 12, 4, 0.7, 1.0, 1024, 12.0},
    {"small_end_to_end", {"skl", "zen", "stress"}, 1u << 17, 1u << 14, 1, 1.0,
     2.0, 4096, 6.5},
};

/// Full cycles every run makes, however long they take.
constexpr int MinCycles = 2;
/// Past MinCycles, a run makes no further cycle once it has run this many
/// times --seconds, so a slow host still finishes within the time the
/// benchmark allows a run.
constexpr double MaxRunFactor = 1.6;
constexpr size_t HeldOutBlocks = 8000;
constexpr size_t HotCorpusBlocks = 4096;
constexpr size_t CheckSample = 4096;
constexpr int SetupRepeats = 5;
constexpr int NumClients = 2;
/// Serving is measured in slices of at most this many seconds.
constexpr double MaxServeSlice = 0.5;
/// Share of served kernels that are first-seen. At ~2M kernels/s a 10%
/// share would add ~200k cache entries per second (about 1 GB per run);
/// 1% still puts a cold miss in about a quarter of the requests.
constexpr double FreshShare = 0.01;
constexpr double ZipfExponent = 1.1;

/// Machines are fixed per profile (the shipped StressIsaConfig seeds): the
/// run seed only draws inputs, so map work is the same on every seed.
MachineModel makeProfileMachine(const std::string &Name) {
  if (Name == "skl")
    return makeSklLike();
  if (Name == "zen")
    return makeZenLike();
  if (Name == "stress")
    return makeStressMachine(StressIsaConfig());
  return makeStressMachine(hugeStressConfig());
}

/// \p N SPEC-like block texts. generateWorkload draws each block weight by
/// scanning its whole Zipf support, so a large set is drawn in small
/// seeded chunks.
std::vector<std::string> blockTexts(const MachineModel &M, size_t N,
                                    uint64_t Seed) {
  constexpr size_t Chunk = 64;
  std::vector<std::string> Out;
  Out.reserve(N);
  for (uint64_t C = 0; Out.size() < N; ++C) {
    WorkloadConfig W;
    W.NumBlocks = std::min(Chunk, N - Out.size());
    W.Seed = splitmix(Seed + C);
    for (const BasicBlock &B : generateWorkload(M, W))
      Out.push_back(B.K.str(M.isa()));
  }
  return Out;
}

/// Inverse-CDF sampler of ranks [0, N) with P(rank k) ~ 1/(k+1)^S.
class ZipfTable {
public:
  ZipfTable(size_t N, double S) : Cdf(N) {
    double Acc = 0.0;
    for (size_t K = 0; K < N; ++K)
      Cdf[K] = Acc += 1.0 / std::pow(static_cast<double>(K + 1), S);
    for (double &C : Cdf)
      C /= Acc;
  }
  size_t draw(Rng &R) const {
    size_t K = static_cast<size_t>(
        std::lower_bound(Cdf.begin(), Cdf.end(), R.uniformReal()) -
        Cdf.begin());
    return std::min(K, Cdf.size() - 1);
  }

private:
  std::vector<double> Cdf;
};

/// Everything one profile contributes to a run.
struct ProfileState {
  std::string Name;
  MachineModel Machine;
  // Inputs (set-up).
  std::vector<Microkernel> HeldOut;
  std::string Corpus; ///< '\n'-terminated lines, as read from a file.
  std::vector<std::string> HotPool;
  std::vector<Microkernel> HotKernels; ///< HotPool, parsed.
  // Mapping (cycle 0, then saved, reloaded and compiled in set-up).
  std::optional<ResourceMapping> Mapped;
  std::optional<ResourceMapping> Loaded;
  predict::CompiledMapping Compiled;
  uint64_t Digest = 0;
  size_t Resources = 0;
  // Corpus batch and the answers of the first corpus pass.
  predict::KernelBatch Batch;
  std::vector<std::optional<double>> BatchIpc;
  // Batch-engine answers for the hot served kernels.
  std::vector<serve::KernelAnswer> HotExpected;

  ProfileState(std::string Name, MachineModel M)
      : Name(std::move(Name)), Machine(std::move(M)) {}
};

/// First-seen served kernel \p J of client \p C: a hot-pool kernel with
/// its first term's multiplicity raised past anything the generator draws,
/// by a distinct step per (client, pass over the pool), so it is no hot
/// kernel and seldom an earlier fresh one. Clients draw them as they go,
/// so a run never runs out of first-seen kernels however fast it serves.
Microkernel freshKernel(const std::vector<Microkernel> &Hot, unsigned C,
                        size_t J) {
  Microkernel K = Hot[J % Hot.size()];
  double Step = static_cast<double>(J / Hot.size() * NumClients + C);
  K.add(K.terms().front().first, 16.0 + Step);
  return K;
}

/// Builds the machines and draws every seeded input of one run.
std::vector<ProfileState> makeInputs(const WorkloadSpec &Spec, uint64_t Seed) {
  std::vector<ProfileState> Ps;
  for (const char *Name : Spec.Profiles)
    Ps.emplace_back(Name, makeProfileMachine(Name));
  for (ProfileState &P : Ps) {
    const std::string &N = P.Name;
    const InstructionSet &Isa = P.Machine.isa();
    for (const std::string &T : blockTexts(P.Machine, HeldOutBlocks,
                                           streamSeed(Seed, "heldout" + N)))
      P.HeldOut.push_back(*Microkernel::parse(T, Isa));
    // Corpus: Zipf-drawn hot blocks plus a long tail of distinct ones.
    std::vector<std::string> Hot = blockTexts(
        P.Machine, HotCorpusBlocks, streamSeed(Seed, "corpus-hot" + N));
    std::vector<std::string> Tail = blockTexts(
        P.Machine, Spec.CorpusDistinct, streamSeed(Seed, "corpus-tail" + N));
    Rng R(streamSeed(Seed, "corpus-mix" + N));
    ZipfTable Z(Hot.size(), ZipfExponent);
    double TailShare = static_cast<double>(Tail.size()) /
                       static_cast<double>(Spec.CorpusLines);
    size_t NextTail = 0;
    for (size_t L = 0; L < Spec.CorpusLines; ++L) {
      bool UseTail = NextTail < Tail.size() && R.chance(TailShare);
      P.Corpus += UseTail ? Tail[NextTail++] : Hot[Z.draw(R)];
      P.Corpus += '\n';
    }
    P.HotPool = blockTexts(P.Machine, Spec.HotKernels,
                           streamSeed(Seed, "serve-hot" + N));
    for (const std::string &T : P.HotPool)
      P.HotKernels.push_back(*Microkernel::parse(T, Isa));
  }
  return Ps;
}

/// Returns freed heap memory to the system; called between phases, off
/// their clocks. Phases run on fresh threads, and memory one phase frees
/// stays in its threads' malloc arenas, where the next phase may not reuse
/// it. Without this the peak RSS would follow which arenas the scheduler
/// happened to hand out, where with it the peak is the largest phase's own
/// footprint, as a process running that phase alone would see.
void releaseFreeMemory() { ::malloc_trim(0); }

/// Keeps every worker busy for \p Seconds. On a shared 4-CPU virtual
/// machine (Xeon, gcc 12 Release build) a process's first second of
/// parallel work ran up to 4x slower than later work; this absorbs that
/// before timing.
void warmUp(Executor &Exec, double Seconds) {
  Clock::time_point End =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  std::atomic<uint64_t> Sink{0};
  Exec.parallelFor(Exec.numWorkers(), [&](size_t, unsigned) {
    uint64_t X = 0;
    while (Clock::now() < End)
      for (int I = 0; I < 1000; ++I)
        X = splitmix(X);
    Sink.fetch_add(X, std::memory_order_relaxed);
  });
}

//===----------------------------------------------------------------------===//
// Map rounds.
//===----------------------------------------------------------------------===//

/// One cold map of one profile.
struct MapRecord {
  double WallS = 0, SelectS = 0, CoreS = 0, CompleteS = 0, OracleBusyS = 0;
  uint64_t Digest = 0, OracleCalls = 0, RunnerRequests = 0;
  PalmedStats Stats;
  std::optional<ResourceMapping> Mapping;
};

uint64_t mappingDigest(const ResourceMapping &M, const MachineModel &Machine) {
  return fnv1a(serve::serializeMapping(M, Machine));
}

/// This program's path, for starting map processes.
const char *SelfPath = nullptr;
/// Map process clock marks: start, pipeline built, then the ends of
/// selectBasics, solveCoreMapping, completeMapping and takeResult.
constexpr int NumMapMarks = 6;

/// The map process, `perfbench_workload --map PROFILE WORKERS TRACE OUT`:
/// one cold map of PROFILE, as `palmed_cli map` runs it. A process of its
/// own starts with an empty heap and empty thread-local solver state (the
/// shape memo, LP scratch), and its peak RSS is the map's alone. Writes
/// the stage boundaries (steady-clock ticks, which the parent shares), the
/// mapping's digest and the work counts to OUT, and the mapping to
/// OUT.mapping.
int mapProcess(const std::string &Profile, unsigned Workers, bool Trace,
               const std::string &Out) {
  MachineModel Machine = makeProfileMachine(Profile);
  Clock::time_point T[NumMapMarks];
  T[0] = Clock::now();
  AnalyticOracle Analytic(Machine);
  TimedOracle Oracle(Analytic, Trace);
  CountingRunner Runner(Machine, Oracle);
  PalmedConfig Cfg;
  Cfg.Execution = ExecutionPolicy::parallel(Workers);
  // As `palmed_cli map`: pair pruning is the huge profile's default.
  Cfg.Selection.ClusterPairPruning = Profile == "huge";
  Pipeline Pipe(Runner, Cfg);
  T[1] = Clock::now();
  Pipe.selectBasics();
  T[2] = Clock::now();
  Pipe.solveCoreMapping();
  T[3] = Clock::now();
  Pipe.completeMapping();
  T[4] = Clock::now();
  PalmedResult R = Pipe.takeResult();
  T[5] = Clock::now();
  serve::MappingIOError Err;
  if (!serve::saveMapping(Out + ".mapping", R.Mapping, Machine, &Err)) {
    std::fprintf(stderr, "error: cannot save mapping: %s\n",
                 Err.Message.c_str());
    return 1;
  }
  PerThreadCounter::Totals Oracled = Oracle.totals();
  const PalmedStats &S = R.Stats;
  std::ofstream OS(Out);
  for (Clock::time_point X : T)
    OS << X.time_since_epoch().count() << ' ';
  OS << static_cast<uint64_t>(Oracled.BusyS * 1e9) << ' '
     << mappingDigest(R.Mapping, Machine) << ' ' << Oracled.Events << ' '
     << Runner.requests() << ' ' << S.NumBenchmarks << ' '
     << S.PairBenchmarks << ' ' << S.NumResources << ' ' << S.NumCoreKernels
     << ' '
     << S.NumShapeConstraints << ' ' << S.CoreLpSolves << ' '
     << S.CoreLpPivots << ' ' << S.CompleteLpSolves << ' '
     << S.CompleteLpPivots << ' ' << S.LpWarmStartAttempts << ' '
     << S.LpWarmStartHits << '\n';
  return OS ? 0 : 1;
}

/// Maps \p P in a map process and reads back its record (with the mapping
/// when \p WantMapping). The map's wall time runs from building the oracle
/// to taking the pipeline's result, inside the map process; the process's
/// start and exit are not timed.
MapRecord coldMap(const ProfileState &P, unsigned Workers, bool Trace,
                  bool WantMapping, SpanLog &Log) {
  const std::string Out = "map-" + P.Name + "-" + std::to_string(::getpid());
  const std::string WorkersArg = std::to_string(Workers);
  const char *Args[] = {SelfPath,          "--map",           P.Name.c_str(),
                        WorkersArg.c_str(), Trace ? "1" : "0", Out.c_str(),
                        nullptr};
  pid_t Pid = 0;
  Clock::time_point Spawned = Clock::now();
  if (::posix_spawn(&Pid, SelfPath, nullptr, nullptr,
                    const_cast<char *const *>(Args), environ) != 0)
    throw std::runtime_error("cannot start a map process");
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  Log.add("map.process", Spawned, Clock::now());
  std::ifstream IS(Out);
  Clock::rep Ticks[NumMapMarks] = {};
  uint64_t BusyNs = 0;
  MapRecord Rec;
  PalmedStats &S = Rec.Stats;
  for (Clock::rep &X : Ticks)
    IS >> X;
  IS >> BusyNs >> Rec.Digest >> Rec.OracleCalls >> Rec.RunnerRequests >>
      S.NumBenchmarks >> S.PairBenchmarks >> S.NumResources >>
      S.NumCoreKernels >> S.NumShapeConstraints >> S.CoreLpSolves >>
      S.CoreLpPivots >> S.CompleteLpSolves >> S.CompleteLpPivots >>
      S.LpWarmStartAttempts >> S.LpWarmStartHits;
  const bool Ok = WIFEXITED(Status) && WEXITSTATUS(Status) == 0 && IS;
  ::unlink(Out.c_str());
  serve::MappingIOError Err;
  if (Ok && WantMapping)
    Rec.Mapping = serve::loadMappingAuto(Out + ".mapping", P.Machine, &Err);
  ::unlink((Out + ".mapping").c_str());
  if (!Ok || (WantMapping && !Rec.Mapping))
    throw std::runtime_error("map process failed; " + Err.Message);
  Clock::time_point T[NumMapMarks];
  for (int I = 0; I < NumMapMarks; ++I)
    T[I] = Clock::time_point(Clock::duration(Ticks[I]));
  Log.add("palmed.select", T[1], T[2]);
  Log.add("palmed.core", T[2], T[3]);
  Log.add("palmed.complete", T[3], T[4]);
  Rec.WallS = secondsBetween(T[0], T[5]);
  Rec.SelectS = secondsBetween(T[1], T[2]);
  Rec.CoreS = secondsBetween(T[2], T[3]);
  Rec.CompleteS = secondsBetween(T[3], T[4]);
  Rec.OracleBusyS = static_cast<double>(BusyNs) * 1e-9;
  return Rec;
}

/// The work counts of a map that must repeat exactly on every run.
std::vector<uint64_t> mapCounts(const MapRecord &R) {
  const PalmedStats &S = R.Stats;
  return {R.Digest,
          R.OracleCalls,
          R.RunnerRequests,
          S.NumBenchmarks,
          S.PairBenchmarks,
          S.NumResources,
          S.NumCoreKernels,
          S.NumShapeConstraints,
          static_cast<uint64_t>(S.CoreLpSolves),
          static_cast<uint64_t>(S.CoreLpPivots),
          static_cast<uint64_t>(S.CompleteLpSolves),
          static_cast<uint64_t>(S.CompleteLpPivots),
          static_cast<uint64_t>(S.LpWarmStartAttempts),
          static_cast<uint64_t>(S.LpWarmStartHits)};
}

/// Map-round samples over the run, summed over a workload's profiles.
struct MapSamples {
  std::vector<double> WallS, SelectS, CoreS, CompleteS, UnattributedS,
      OracleBusyS;
  std::vector<std::vector<uint64_t>> Counts; ///< Per profile, round 0.
  std::vector<MapRecord> First;              ///< Per profile, round 0.
};

/// One cold map of every profile. Round 0 keeps the mappings; later rounds
/// must repeat its work counts exactly — a drift means warm state leaked
/// from one cold map into the next.
void mapRound(std::vector<ProfileState> &Profiles, unsigned Workers,
              bool Trace, SpanLog &Log, MapSamples &S) {
  bool First = S.WallS.empty();
  if (First) {
    S.Counts.resize(Profiles.size());
    S.First.resize(Profiles.size());
  }
  double Wall = 0, Sel = 0, Core = 0, Comp = 0, Busy = 0;
  for (size_t I = 0; I < Profiles.size(); ++I) {
    ProfileState &P = Profiles[I];
    MapRecord Rec;
    try {
      Rec = coldMap(P, Workers, Trace, First, Log);
    } catch (const std::exception &E) {
      TheLedger.check(false, "map of " + P.Name + " threw: " + E.what());
      continue;
    }
    std::vector<uint64_t> Counts = mapCounts(Rec);
    if (First) {
      TheLedger.check(mappingDigest(*Rec.Mapping, P.Machine) == Rec.Digest,
                      "mapping of " + P.Name +
                          " read back from its map process differs");
      S.Counts[I] = Counts;
      P.Digest = Rec.Digest;
      P.Resources = Rec.Stats.NumResources;
      P.Mapped = std::move(Rec.Mapping);
    } else {
      TheLedger.check(Counts == S.Counts[I],
                      "map of " + P.Name +
                          " repeated with different work counts or digest");
    }
    Wall += Rec.WallS;
    Sel += Rec.SelectS;
    Core += Rec.CoreS;
    Comp += Rec.CompleteS;
    Busy += Rec.OracleBusyS;
    if (First) {
      Rec.Mapping.reset();
      S.First[I] = std::move(Rec);
    }
  }
  S.WallS.push_back(Wall);
  S.SelectS.push_back(Sel);
  S.CoreS.push_back(Core);
  S.CompleteS.push_back(Comp);
  S.UnattributedS.push_back(Wall - Sel - Core - Comp);
  S.OracleBusyS.push_back(Busy);
}

//===----------------------------------------------------------------------===//
// Corpus and batch passes. Both run on one thread: the N-worker batch rate
// follows how many CPUs the host happens to give the run, the one-worker
// rate follows the engine.
//===----------------------------------------------------------------------===//

/// The CPUs this process may run on: its affinity mask, which nproc reads
/// too. Empty if the mask cannot be read.
const std::vector<int> &allowedCpus() {
  static const std::vector<int> Cpus = [] {
    std::vector<int> Out;
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (::sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int C = 0; C < CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Set))
          Out.push_back(C);
    return Out;
  }();
  return Cpus;
}

/// Runs \p F on a fresh thread pinned to the next CPU the process may use,
/// in turn. On a shared host one CPU can run 1.5x slower than another for
/// seconds (a busy hyperthread sibling); rotating single-threaded passes
/// over every CPU weighs each CPU alike in every run, where the scheduler
/// would keep a run's passes on whichever CPU it picked.
template <typename Fn> void onNextCpu(Fn &&F) {
  const std::vector<int> &Cpus = allowedCpus();
  static size_t Next = 0;
  const int Cpu = Cpus.empty() ? -1 : Cpus[Next++ % Cpus.size()];
  std::exception_ptr Error;
  std::thread Worker([&] {
    if (Cpu >= 0) {
      cpu_set_t Set;
      CPU_ZERO(&Set);
      CPU_SET(Cpu, &Set);
      ::pthread_setaffinity_np(::pthread_self(), sizeof(Set), &Set);
    }
    try {
      F();
    } catch (...) {
      Error = std::current_exception();
    }
  });
  Worker.join();
  if (Error)
    std::rethrow_exception(Error);
}

struct PredictSamples {
  std::vector<double> CorpusPassS, ParseS, BuildS, PredictS, BatchPassS;
};

/// One `eval --corpus` pass over every profile's corpus: parse each line,
/// append it to a fresh KernelBatch, predict the batch. The batch is kept
/// for the batch passes that follow, so those stream memory allocated anew
/// each cycle rather than one placement for the whole run. The first
/// pass's answers are the reference every later pass must reproduce.
void corpusPass(std::vector<ProfileState> &Profiles, bool Trace, SpanLog &Log,
                PredictSamples &S) {
  bool First = S.CorpusPassS.empty();
  Clock::time_point T0 = Clock::now();
  double Parse = 0, Build = 0, Predict = 0;
  for (ProfileState &P : Profiles) {
    const InstructionSet &Isa = P.Machine.isa();
    predict::KernelBatch B;
    std::string Line;
    size_t ParseFailures = 0;
    for (size_t Pos = 0; Pos < P.Corpus.size();) {
      size_t End = P.Corpus.find('\n', Pos);
      Line.assign(P.Corpus, Pos, End - Pos);
      Pos = End + 1;
      if (!Trace) {
        if (auto K = Microkernel::parse(Line, Isa))
          B.add(*K);
        else
          ++ParseFailures;
        continue;
      }
      Clock::time_point A = Clock::now();
      auto K = Microkernel::parse(Line, Isa);
      Clock::time_point Parsed = Clock::now();
      Parse += secondsBetween(A, Parsed);
      if (!K) {
        ++ParseFailures;
        continue;
      }
      B.add(*K);
      Build += secondsSince(Parsed);
    }
    TheLedger.check(ParseFailures == 0, "corpus line failed to parse");
    std::vector<std::optional<double>> Out(B.size());
    Predict += timed(Log, "predict.batch", [&] {
      predict::predictIpcBatch(P.Compiled, B, Out.data());
    });
    P.Batch = std::move(B);
    if (First) {
      P.BatchIpc = std::move(Out);
      continue;
    }
    TheLedger.check(std::equal(Out.begin(), Out.end(), P.BatchIpc.begin(),
                               P.BatchIpc.end(),
                               [](const auto &X, const auto &Y) {
                                 return sameBits(X, Y);
                               }),
                    "corpus pass answers changed between passes");
  }
  Clock::time_point T1 = Clock::now();
  Log.add("predict.corpus_pass", T0, T1);
  S.CorpusPassS.push_back(secondsBetween(T0, T1));
  S.ParseS.push_back(Parse);
  S.BuildS.push_back(Build);
  S.PredictS.push_back(Predict);
}

/// Pre-built batch passes over every profile's corpus batch for \p Seconds
/// (at least one pass); each must reproduce the first corpus pass.
void batchPasses(std::vector<ProfileState> &Profiles, double Seconds,
                 SpanLog &Log, PredictSamples &S) {
  std::vector<std::vector<std::optional<double>>> Outs;
  for (const ProfileState &P : Profiles)
    Outs.emplace_back(P.Batch.size());
  Clock::time_point Start = Clock::now();
  do {
    onNextCpu([&] {
      S.BatchPassS.push_back(timed(Log, "predict.batch_pass", [&] {
        for (size_t I = 0; I < Profiles.size(); ++I)
          predict::predictIpcBatch(Profiles[I].Compiled, Profiles[I].Batch,
                                   Outs[I].data());
      }));
    });
  } while (secondsSince(Start) < Seconds);
  for (size_t I = 0; I < Profiles.size(); ++I)
    TheLedger.check(std::equal(Outs[I].begin(), Outs[I].end(),
                               Profiles[I].BatchIpc.begin(),
                               Profiles[I].BatchIpc.end(),
                               [](const auto &X, const auto &Y) {
                                 return sameBits(X, Y);
                               }),
                    "pre-built batch answers differ from the corpus pass");
}

/// A sample of batch answers must bit-equal scalar predictIpc.
void checkBatchAgainstScalar(const ProfileState &P, uint64_t Seed) {
  std::vector<size_t> Starts{0};
  for (size_t Pos = P.Corpus.find('\n'); Pos + 1 < P.Corpus.size();
       Pos = P.Corpus.find('\n', Pos + 1))
    Starts.push_back(Pos + 1);
  Rng R(streamSeed(Seed, "check" + P.Name));
  bool Same = Starts.size() == P.BatchIpc.size();
  for (size_t S = 0; Same && S < CheckSample; ++S) {
    size_t L = R.uniformInt(Starts.size());
    size_t End = P.Corpus.find('\n', Starts[L]);
    auto K = Microkernel::parse(P.Corpus.substr(Starts[L], End - Starts[L]),
                                P.Machine.isa());
    Same = K && sameBits(P.Loaded->predictIpc(*K), P.BatchIpc[L]);
  }
  TheLedger.check(Same,
                  "predictIpcBatch differs from scalar predictIpc on " + P.Name);
}

//===----------------------------------------------------------------------===//
// Serving.
//===----------------------------------------------------------------------===//

serve::KernelAnswer expectedAnswer(const predict::KernelDetail &D,
                                   const ResourceMapping &M) {
  serve::KernelAnswer A;
  if (!D.Supported) {
    A.S = serve::KernelAnswer::Status::Unsupported;
    return A;
  }
  A.Ipc = D.Ipc;
  for (uint32_t R : D.CoBottlenecks)
    A.Bottlenecks.push_back(M.resourceName(R));
  return A;
}

bool sameAnswer(const serve::KernelAnswer &A, const serve::KernelAnswer &B) {
  return A.S == B.S && sameBits(A.Ipc, B.Ipc) && A.Bottlenecks == B.Bottlenecks;
}

/// Batch-engine answers (the serve daemon's own cold path, Eps = 0.05) for
/// kernels Kernel(0..N-1) on \p P's reloaded mapping.
template <typename KernelFn>
std::vector<serve::KernelAnswer> engineAnswers(const ProfileState &P, size_t N,
                                               KernelFn Kernel) {
  predict::KernelBatch B;
  for (size_t I = 0; I < N; ++I)
    B.add(Kernel(I));
  std::vector<predict::KernelDetail> D(B.size());
  predict::predictDetailedBatch(P.Compiled, B, 0.05, D.data());
  std::vector<serve::KernelAnswer> Out;
  Out.reserve(D.size());
  for (const predict::KernelDetail &X : D)
    Out.push_back(expectedAnswer(X, *P.Loaded));
  return Out;
}

/// One closed-loop caller: waits for each reply before sending its next
/// seeded batch. State persists across the run's serve slices.
struct ServeClient {
  /// A first-seen kernel's answer, checked once its slice has ended.
  struct FreshAnswer {
    size_t J; ///< freshKernel index.
    serve::KernelAnswer Answer;
  };

  unsigned Id;
  Rng R;
  bool Trace;
  serve::Client Conn;
  std::vector<size_t> FreshNext;                  ///< Per profile.
  std::vector<std::vector<FreshAnswer>> FreshGot; ///< Per profile.
  std::vector<double> LatencyUs;
  uint64_t Kernels = 0;
  double EncodeS = 0, DecodeS = 0, DispatchP50Us = 0;
  bool Broken = false;

  ServeClient(unsigned Id, uint64_t Seed, bool Trace, size_t NumProfiles)
      : Id(Id), R(streamSeed(Seed, "client" + std::to_string(Id))),
        Trace(Trace), FreshNext(NumProfiles, 0), FreshGot(NumProfiles) {}

  /// Sends batches until \p Deadline. Hot kernels' answers are checked
  /// against the batch engine's at once; first-seen kernels' answers are
  /// kept for checkFresh.
  void run(const std::vector<ProfileState> &Profiles, const ZipfTable &Zipf,
           Clock::time_point Deadline) {
    serve::QueryRequest Req;
    std::vector<const serve::KernelAnswer *> Expected; ///< Null: fresh J.
    std::vector<size_t> FreshJ;
    const double LogMaxBatch = std::log(257.0);
    while (!Broken && Clock::now() < Deadline) {
      size_t PI = R.uniformInt(Profiles.size());
      const ProfileState &P = Profiles[PI];
      // Log-uniform batch size in [1, 256]: mostly small, sometimes big.
      size_t N = std::clamp<size_t>(
          static_cast<size_t>(std::exp(R.uniformReal() * LogMaxBatch)), 1,
          256);
      Req.Machine = P.Name;
      Req.Kernels.clear();
      Expected.clear();
      FreshJ.clear();
      for (size_t I = 0; I < N; ++I) {
        if (R.chance(FreshShare)) {
          size_t J = FreshNext[PI]++;
          Req.Kernels.push_back(
              freshKernel(P.HotKernels, Id, J).str(P.Machine.isa()));
          Expected.push_back(nullptr);
          FreshJ.push_back(J);
        } else {
          size_t H = Zipf.draw(R) % P.HotPool.size();
          Req.Kernels.push_back(P.HotPool[H]);
          Expected.push_back(&P.HotExpected[H]);
        }
      }
      Clock::time_point T0 = Clock::now();
      std::optional<serve::QueryResponse> Resp =
          Conn.query(Req.Machine, Req.Kernels);
      LatencyUs.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - T0)
              .count());
      if (!Resp) { // query() also fails on an answer count mismatch.
        TheLedger.check(false, "served query failed: " + Conn.lastError());
        Broken = true;
        return;
      }
      Kernels += N;
      bool AllSame = true;
      for (size_t I = 0, F = 0; I < N; ++I) {
        if (Expected[I])
          AllSame &= sameAnswer(Resp->Answers[I], *Expected[I]);
        else
          FreshGot[PI].push_back({FreshJ[F++], Resp->Answers[I]});
      }
      TheLedger.check(AllSame,
                      "served answer differs from the batch engine's answer");
      if (Trace)
        timeCodec(Req, *Resp);
    }
  }

  /// Times the two protocol steps Client::query takes around its round
  /// trip, on the request just served but outside its latency: encoding
  /// the request and decoding the response's bytes (re-encoded, untimed).
  void timeCodec(const serve::QueryRequest &Req,
                 const serve::QueryResponse &Resp) {
    Clock::time_point T0 = Clock::now();
    std::string Frame = serve::encodeQueryRequest(Req);
    Clock::time_point T1 = Clock::now();
    std::string Reply = serve::encodeQueryResponse(Resp);
    Clock::time_point T2 = Clock::now();
    std::optional<serve::QueryResponse> Decoded =
        serve::decodeQueryResponse(Reply);
    Clock::time_point T3 = Clock::now();
    EncodeS += secondsBetween(T0, T1);
    DecodeS += secondsBetween(T2, T3);
    TheLedger.check(!Frame.empty() && Decoded &&
                        Decoded->Answers.size() == Resp.Answers.size(),
                    "query response does not survive a codec round trip");
  }

  /// Checks the first-seen kernels' answers of the last slice against the
  /// batch engine's, off the slice's clock.
  void checkFresh(const std::vector<ProfileState> &Profiles) {
    for (size_t PI = 0; PI < Profiles.size(); ++PI) {
      std::vector<FreshAnswer> &Got = FreshGot[PI];
      if (Got.empty())
        continue;
      const ProfileState &P = Profiles[PI];
      std::vector<serve::KernelAnswer> Want =
          engineAnswers(P, Got.size(), [&](size_t I) {
            return freshKernel(P.HotKernels, Id, Got[I].J);
          });
      bool AllSame = true;
      for (size_t I = 0; I < Got.size(); ++I)
        AllSame &= sameAnswer(Got[I].Answer, Want[I]);
      TheLedger.check(AllSame, "served answer for a first-seen kernel "
                               "differs from the batch engine's answer");
      Got.clear();
    }
  }

  /// Reads the server-side dispatch latency of this connection (decode +
  /// evaluate, no socket) from the server's own stats request.
  void readDispatchLatency() {
    auto Stats = Conn.stats();
    if (TheLedger.check(Stats.has_value(), "stats request failed"))
      for (const auto &[Name, Value] : Stats->Counters)
        if (Name == "conn.p50_us")
          DispatchP50Us = Value;
  }
};

/// The in-process server and its clients, alive for the whole run.
class ServeHarness {
public:
  ServeHarness(std::vector<ProfileState> &Profiles, unsigned Workers,
               uint64_t Seed, bool Trace)
      : Profiles(Profiles), Zipf(Profiles.front().HotPool.size(), ZipfExponent),
        Server(config(Workers)) {
    for (ProfileState &P : Profiles)
      Server.addMachine(P.Name, P.Machine, *P.Loaded);
    Server.bind();
    ServeThread = std::thread([this] { Server.serve(); });
    for (unsigned C = 0; C < NumClients; ++C) {
      Clients.push_back(
          std::make_unique<ServeClient>(C, Seed, Trace, Profiles.size()));
      TheLedger.check(Clients.back()->Conn.connect(SocketPath),
                      "client cannot connect to the server");
    }
  }
  ServeHarness(const ServeHarness &) = delete;
  ServeHarness &operator=(const ServeHarness &) = delete;
  ~ServeHarness() {
    Server.requestStop();
    ServeThread.join();
  }

  /// Runs every client for \p Seconds and records the slice's latency
  /// percentiles and throughput.
  void slice(double Seconds, SpanLog &Log) {
    std::vector<size_t> Begin;
    uint64_t Kernels0 = 0;
    for (const auto &C : Clients) {
      Begin.push_back(C->LatencyUs.size());
      Kernels0 += C->Kernels;
    }
    Clock::time_point T0 = Clock::now();
    Clock::time_point Deadline =
        T0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(Seconds));
    std::vector<std::thread> Threads;
    for (auto &C : Clients)
      Threads.emplace_back([&, Raw = C.get()] {
        try {
          Raw->run(Profiles, Zipf, Deadline);
        } catch (const std::exception &E) {
          Raw->Broken = true;
          TheLedger.fail(std::string("client threw: ") + E.what());
        }
      });
    for (std::thread &T : Threads)
      T.join();
    Clock::time_point T1 = Clock::now();
    Log.add("serve.slice", T0, T1);
    std::vector<double> Latency;
    uint64_t Kernels = 0;
    for (size_t I = 0; I < Clients.size(); ++I) {
      const std::vector<double> &L = Clients[I]->LatencyUs;
      Latency.insert(Latency.end(), L.begin() + Begin[I], L.end());
      Kernels += Clients[I]->Kernels;
    }
    SliceP50Us.push_back(percentile(Latency, 0.50));
    SliceP99Us.push_back(percentile(Latency, 0.99));
    SliceKernelsPerS.push_back(
        static_cast<double>(Kernels - Kernels0) / secondsBetween(T0, T1));
    for (auto &C : Clients)
      C->checkFresh(Profiles);
  }

  /// Collects per-connection dispatch latencies; call once, at the end.
  void finish() {
    for (auto &C : Clients)
      C->readDispatchLatency();
    Totals = Server.totals();
  }

  std::vector<std::unique_ptr<ServeClient>> Clients;
  serve::ServerTotals Totals;
  /// Per-slice samples: a burst of interference from other processes
  /// spoils the tail of the slices it hits, not the run's whole tail.
  std::vector<double> SliceP50Us, SliceP99Us, SliceKernelsPerS;

private:
  serve::ServerConfig config(unsigned Workers) {
    serve::ServerConfig Cfg;
    Cfg.SocketPath = SocketPath;
    Cfg.NumThreads = Workers;
    return Cfg;
  }

  std::vector<ProfileState> &Profiles;
  ZipfTable Zipf;
  std::string SocketPath = "serve-" + std::to_string(::getpid()) + ".sock";
  serve::Server Server;
  std::thread ServeThread; ///< Declared after the Server it runs.
};

//===----------------------------------------------------------------------===//
// Report.
//===----------------------------------------------------------------------===//

std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    O += C;
  }
  return O;
}

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

std::string numList(const std::vector<double> &V) {
  std::string O = "[";
  for (size_t I = 0; I < V.size(); ++I)
    O += (I ? ", " : "") + num(V[I]);
  return O + "]";
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

void writeMetrics(std::ostream &OS, const std::vector<Metric> &M) {
  OS << "{";
  for (size_t I = 0; I < M.size(); ++I)
    OS << (I ? "," : "") << "\n    \"" << M[I].Name << "\": {\"value\": "
       << num(M[I].Value) << ", \"unit\": \"" << M[I].Unit << "\"}";
  OS << "}";
}

/// Peak RSS of this process (RUSAGE_SELF) or of its largest finished map
/// process (RUSAGE_CHILDREN).
double peakRssMb(int Who) {
  rusage U{};
  ::getrusage(Who, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

int usage() {
  std::fprintf(stderr, "usage: perfbench_workload WORKLOAD SEED SECONDS TRACE "
                       "REPORT.json\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 6)
    return usage();
  SelfPath = Argv[0];
  if (std::string(Argv[1]) == "--map")
    return mapProcess(Argv[2], static_cast<unsigned>(std::atoi(Argv[3])),
                      std::string(Argv[4]) == "1", Argv[5]);
  const WorkloadSpec *Spec = nullptr;
  for (const WorkloadSpec &W : Workloads)
    if (std::string(Argv[1]) == W.Name)
      Spec = &W;
  if (!Spec) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", Argv[1]);
    return usage();
  }
  const uint64_t Seed = std::strtoull(Argv[2], nullptr, 10);
  const double Seconds = std::atof(Argv[3]);
  const bool Trace = std::string(Argv[4]) == "1";
  const std::string ReportPath = Argv[5];
  if (!(Seconds > 0.0))
    return usage();
#ifndef NDEBUG
  std::fprintf(stderr, "error: perfbench_workload must be built with NDEBUG "
                       "(Release); refusing to time a debug build\n");
  return 3;
#endif

  const unsigned Nproc =
      allowedCpus().empty()
          ? std::max(1u, std::thread::hardware_concurrency())
          : static_cast<unsigned>(allowedCpus().size());
  const unsigned Workers = std::min(4u, Nproc);
  SpanLog Log(Trace);
  Executor Exec(Workers);

  warmUp(Exec, 1.0);

  //--- Set-up 1: machines and seeded inputs. -----------------------------//
  std::vector<ProfileState> Profiles;
  std::vector<double> GenS;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    std::vector<ProfileState> Made;
    GenS.push_back(timed(Log, "eval.workload_gen",
                         [&] { Made = makeInputs(*Spec, Seed); }));
    Profiles = std::move(Made); // Frees the previous repeat's set, untimed.
    releaseFreeMemory();
  }

  //--- Cycle 0: the first cold map of every profile. ---------------------//
  const Clock::time_point RunStart = Clock::now();
  MapSamples Maps;
  mapRound(Profiles, Workers, Trace, Log, Maps);
  for (const ProfileState &P : Profiles)
    if (!P.Mapped) {
      std::fprintf(stderr, "error: no mapping for %s\n", P.Name.c_str());
      return 1;
    }

  //--- Set-up 2: save, reload and compile the mappings. -----------------//
  std::vector<double> Setup2S, LoadS, CompileS;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    Clock::time_point T0 = Clock::now();
    double Load = 0, Compile = 0;
    for (ProfileState &P : Profiles) {
      std::string Path = P.Name + "-" + std::to_string(::getpid()) + ".mapping";
      serve::MappingIOError Err;
      TheLedger.check(serve::saveMapping(Path, *P.Mapped, P.Machine, &Err),
                      "cannot save mapping: " + Err.Message);
      Load += timed(Log, "serve.mapping_load", [&] {
        P.Loaded = serve::loadMappingAuto(Path, P.Machine, &Err);
      });
      ::unlink(Path.c_str());
      if (!TheLedger.check(P.Loaded.has_value(),
                           "cannot reload mapping: " + Err.Message)) {
        std::fprintf(stderr, "error: %s\n", Err.Message.c_str());
        return 1;
      }
      Compile += timed(Log, "predict.compile", [&] {
        P.Compiled = predict::CompiledMapping::compile(*P.Loaded);
      });
    }
    LoadS.push_back(Load);
    CompileS.push_back(Compile);
    Setup2S.push_back(secondsSince(T0));
  }
  for (ProfileState &P : Profiles)
    TheLedger.check(fnv1a(serve::serializeMapping(*P.Loaded, P.Machine)) ==
                        P.Digest,
                    "reloaded mapping of " + P.Name + " differs from the map");

  //--- Accuracy on held-out blocks (deterministic per seed). ------------//
  double ErrSum = 0, TauSum = 0;
  for (ProfileState &P : Profiles) {
    AnalyticOracle Truth(P.Machine);
    std::vector<double> Native = Truth.measureIpcBatch(P.HeldOut, &Exec);
    std::vector<double> PredCycles, NatCycles, PredIpc, NatIpc;
    for (size_t I = 0; I < P.HeldOut.size(); ++I) {
      std::optional<double> Ipc = P.Loaded->predictIpc(P.HeldOut[I]);
      if (!Ipc || !(Native[I] > 0.0))
        continue;
      double Size = P.HeldOut[I].size();
      PredIpc.push_back(*Ipc);
      NatIpc.push_back(Native[I]);
      PredCycles.push_back(Size / *Ipc);
      NatCycles.push_back(Size / Native[I]);
    }
    TheLedger.check(PredIpc.size() * 2 > P.HeldOut.size(),
                    "mapping of " + P.Name + " covers under half the blocks");
    // Error on cycles per iteration, the quantity the mapping models: an
    // IPC error is unbounded when a mapping underestimates a block's load.
    ErrSum += 100.0 * weightedRmsRelativeError(PredCycles, NatCycles);
    TauSum += kendallTau(PredIpc, NatIpc);
  }

  //--- Full cycles: a fixed number per --seconds. ----------------------//
  for (ProfileState &P : Profiles)
    P.HotExpected = engineAnswers(P, P.HotKernels.size(),
                                  [&](size_t I) { return P.HotKernels[I]; });
  PredictSamples Pred;
  std::optional<ServeHarness> Serve;
  try {
    Serve.emplace(Profiles, Workers, Seed, Trace);
  } catch (const std::exception &E) {
    TheLedger.check(false, std::string("server failed: ") + E.what());
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
  auto Probes = [&] {
    for (int Pass = 0; Pass < Spec->CorpusPasses; ++Pass) {
      releaseFreeMemory();
      onNextCpu([&] { corpusPass(Profiles, Trace, Log, Pred); });
    }
    releaseFreeMemory();
    batchPasses(Profiles, Spec->BatchSlice, Log, Pred);
    releaseFreeMemory();
    for (double Left = Spec->ServeSlice; Left > 1e-9; Left -= MaxServeSlice)
      Serve->slice(std::min(Left, MaxServeSlice), Log);
  };
  const int Cycles =
      std::max(MinCycles, static_cast<int>(
                              std::lround(Seconds / Spec->SecondsPerCycle)));
  int CyclesRun = 0;
  while (CyclesRun < Cycles &&
         (CyclesRun < MinCycles ||
          secondsSince(RunStart) < MaxRunFactor * Seconds)) {
    Probes();
    mapRound(Profiles, Workers, Trace, Log, Maps);
    ++CyclesRun;
  }
  Probes();
  Serve->finish();
  for (const ProfileState &P : Profiles)
    checkBatchAgainstScalar(P, Seed);

  std::vector<double> DispatchP50;
  uint64_t ServedKernels = 0, Requests = 0;
  double EncodeS = 0, DecodeS = 0;
  for (const auto &C : Serve->Clients) {
    Requests += C->LatencyUs.size();
    DispatchP50.push_back(C->DispatchP50Us);
    ServedKernels += C->Kernels;
    EncodeS += C->EncodeS;
    DecodeS += C->DecodeS;
  }
  const serve::ServerTotals &T = Serve->Totals;
  TheLedger.check(T.Kernels == ServedKernels && T.Requests == Requests,
                  "server totals disagree with the requests the clients made");

  //--- Metrics. ----------------------------------------------------------//
  const size_t CorpusLines = Spec->CorpusLines * Profiles.size();
  size_t BatchKernels = 0, BatchBytes = 0;
  for (const ProfileState &P : Profiles) {
    BatchKernels += P.Batch.size();
    BatchBytes += P.Batch.numTerms() * (sizeof(InstrId) + sizeof(double)) +
                  (P.Batch.size() + 1) * sizeof(size_t) +
                  P.Batch.size() * sizeof(double);
  }
  const double NumProfiles = static_cast<double>(Profiles.size());
  const double ServeP50 = median(Serve->SliceP50Us);
  std::vector<Metric> E2E = {
      {"setup_s", median(GenS) + median(Setup2S), "s"},
      {"map_s", median(Maps.WallS), "s"},
      {"peak_rss_mb",
       std::max(peakRssMb(RUSAGE_SELF), peakRssMb(RUSAGE_CHILDREN)), "MB"},
      {"pred_err_pct", ErrSum / NumProfiles, "%"},
      {"kendall_tau", TauSum / NumProfiles, "1"},
      {"corpus_blocks_per_s",
       ratio(static_cast<double>(CorpusLines), mean(Pred.CorpusPassS)),
       "1/s"},
      {"predict_blocks_per_s",
       ratio(static_cast<double>(BatchKernels), mean(Pred.BatchPassS)),
       "1/s"},
      {"serve_kernels_per_s",
       median(Serve->SliceKernelsPerS), "1/s"},
      {"serve_p50_us", ServeP50, "us"},
      {"serve_p99_us", median(Serve->SliceP99Us), "us"},
  };

  uint64_t OracleCalls = 0, RunnerRequests = 0;
  PalmedStats Sum;
  for (const MapRecord &R : Maps.First) {
    OracleCalls += R.OracleCalls;
    RunnerRequests += R.RunnerRequests;
    const PalmedStats &S = R.Stats;
    Sum.NumBenchmarks += S.NumBenchmarks;
    Sum.PairBenchmarks += S.PairBenchmarks;
    Sum.NumCoreKernels += S.NumCoreKernels;
    Sum.NumShapeConstraints += S.NumShapeConstraints;
    Sum.NumResources += S.NumResources;
    Sum.CoreLpSolves += S.CoreLpSolves;
    Sum.CoreLpPivots += S.CoreLpPivots;
    Sum.CompleteLpSolves += S.CompleteLpSolves;
    Sum.CompleteLpPivots += S.CompleteLpPivots;
    Sum.LpWarmStartAttempts += S.LpWarmStartAttempts;
    Sum.LpWarmStartHits += S.LpWarmStartHits;
  }
  auto count = [](auto V) { return static_cast<double>(V); };
  const double DispatchP50Us = median(DispatchP50);
  std::vector<Metric> Layer = {
      {"palmed.select_s", median(Maps.SelectS), "s"},
      {"palmed.core_s", median(Maps.CoreS), "s"},
      {"palmed.complete_s", median(Maps.CompleteS), "s"},
      {"palmed.unattributed_s", median(Maps.UnattributedS), "s"},
      {"sim.oracle_calls", count(OracleCalls), "count"},
      {"sim.oracle_busy_s", median(Maps.OracleBusyS), "s"},
      {"sim.runner_requests", count(RunnerRequests), "count"},
      {"sim.runner_hit_ratio",
       1.0 - ratio(count(OracleCalls), count(RunnerRequests)), "ratio"},
      {"lp.core_solves", count(Sum.CoreLpSolves), "count"},
      {"lp.core_pivots", count(Sum.CoreLpPivots), "count"},
      {"lp.complete_solves", count(Sum.CompleteLpSolves), "count"},
      {"lp.complete_pivots", count(Sum.CompleteLpPivots), "count"},
      {"lp.warm_hit_ratio",
       ratio(count(Sum.LpWarmStartHits), count(Sum.LpWarmStartAttempts)),
       "ratio"},
      {"core.benchmarks", count(Sum.NumBenchmarks), "count"},
      {"core.pair_benchmarks", count(Sum.PairBenchmarks), "count"},
      {"core.core_kernels", count(Sum.NumCoreKernels), "count"},
      {"core.shape_constraints", count(Sum.NumShapeConstraints), "count"},
      {"core.resources", count(Sum.NumResources), "count"},
      {"predict.batch_s", mean(Pred.BatchPassS), "s"},
      {"predict.batch_bytes", count(BatchBytes), "B"},
      {"predict.batch_build_s", mean(Pred.BuildS), "s"},
      {"predict.compile_s", median(CompileS), "s"},
      {"predict.unattributed_s",
       mean(Pred.CorpusPassS) - mean(Pred.ParseS) - mean(Pred.BuildS) -
           mean(Pred.PredictS),
       "s"},
      {"isa.parse_s", mean(Pred.ParseS), "s"},
      {"isa.parse_kernels", count(CorpusLines), "count"},
      {"serve.cache_hit_ratio",
       ratio(count(T.CacheHits), count(T.CacheHits + T.CacheMisses)), "ratio"},
      {"serve.cache_misses", count(T.CacheMisses), "count"},
      {"serve.dispatch_p50_us", DispatchP50Us, "us"},
      {"serve.wire_p50_us", ServeP50 - DispatchP50Us, "us"},
      {"serve.encode_s", EncodeS, "s"},
      {"serve.decode_s", DecodeS, "s"},
      {"serve.mapping_load_s", median(LoadS), "s"},
      {"eval.workload_gen_s", median(GenS), "s"},
      {"support.workers", count(Workers), "count"},
  };

  //--- Report. -----------------------------------------------------------//
  if (Trace) {
    std::string TracePath = std::string("trace-") + Spec->Name + "-" +
                            std::to_string(Seed) + ".json";
    TheLedger.check(Log.write(TracePath), "cannot write " + TracePath);
  }
  std::ofstream OS(ReportPath);
  OS << "{\n  \"workload\": \"" << Spec->Name << "\",\n  \"seed\": " << Seed
     << ",\n  \"seconds\": " << num(Seconds)
     << ",\n  \"trace\": " << (Trace ? "true" : "false")
     << ",\n  \"host\": {\"nproc\": " << Nproc << ", \"workers\": " << Workers
     << ", \"compiler\": \"" << jsonEscape(__VERSION__)
     << "\", \"build_type\": \"Release\"},\n  \"profiles\": {";
  for (size_t I = 0; I < Profiles.size(); ++I) {
    const ProfileState &P = Profiles[I];
    char Digest[32];
    std::snprintf(Digest, sizeof(Digest), "%016llx",
                  static_cast<unsigned long long>(P.Digest));
    OS << (I ? "," : "") << "\n    \"" << P.Name << "\": {\"digest\": \""
       << Digest << "\", \"resources\": " << P.Resources << ", \"counts\": [";
    for (size_t C = 0; C < Maps.Counts[I].size(); ++C)
      OS << (C ? ", " : "") << Maps.Counts[I][C];
    OS << "]}";
  }
  OS << "},\n  \"attempted\": " << TheLedger.Attempted.load()
     << ",\n  \"failed\": " << TheLedger.Failed.load()
     << ",\n  \"failures\": [";
  for (size_t I = 0; I < TheLedger.Messages.size(); ++I)
    OS << (I ? ", " : "") << "\"" << jsonEscape(TheLedger.Messages[I]) << "\"";
  OS << "],\n  \"samples\": {\"cycles\": " << CyclesRun
     << ", \"map_s\": " << numList(Maps.WallS) << ", \"rss_self_maps_mb\": "
     << numList({peakRssMb(RUSAGE_SELF), peakRssMb(RUSAGE_CHILDREN)})
     << ", \"setup1_s\": " << numList(GenS)
     << ", \"setup2_s\": " << numList(Setup2S)
     << ", \"corpus_pass_s\": " << numList(Pred.CorpusPassS)
     << ", \"batch_pass_p10_p50_p90_s\": "
     << numList({percentile(Pred.BatchPassS, 0.1),
                 percentile(Pred.BatchPassS, 0.5),
                 percentile(Pred.BatchPassS, 0.9)})
     << ", \"batch_passes\": " << Pred.BatchPassS.size()
     << ", \"serve_requests\": " << Requests
     << ", \"serve_p99_us\": " << numList(Serve->SliceP99Us) << "}";
  OS << ",\n  \"end_to_end\": ";
  writeMetrics(OS, E2E);
  OS << ",\n  \"per_layer\": ";
  writeMetrics(OS, Layer);
  OS << "\n}\n";
  if (!OS) {
    std::fprintf(stderr, "error: cannot write %s\n", ReportPath.c_str());
    return 1;
  }
  return 0;
}
