// The four scenario workloads of the tick benchmark, each driving one of
// the engine's shipped simulations (src/sim/) through its public API.
//
// A scenario builds its engine, feeds it host input between ticks, and
// checks sampled ticks with the independent checkers of checks.h. The
// runner (main.cc) owns the clock: it times Build and the warm-up ticks
// into setup_s and every measured Engine::Tick() on its own, so a
// scenario's input generation and checks never count as engine time.
//
// Workloads set only sizes, seeds, thread/shard/job-worker counts and the
// flight recorder; plan, eval and probe modes stay at the engine's
// defaults, so a change of default shows up in the numbers.

#ifndef PERFBENCH_SRC_SCENARIOS_H_
#define PERFBENCH_SRC_SCENARIOS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/engine.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"

namespace perfbench {

/// Wall time summed over the segments between Start() and Stop().
class Stopwatch {
 public:
  void Start() { begin_ = std::chrono::steady_clock::now(); }
  void Stop() {
    total_ += std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - begin_)
                  .count();
  }
  double seconds() const { return total_; }

 private:
  std::chrono::steady_clock::time_point begin_;
  double total_ = 0.0;
};

/// The benchmark's own spans around its calls into the engine's public
/// API, on the Telemetry clock so they line up with the engine's spans in
/// the Chrome trace.
struct BenchSpan {
  const char* name = nullptr;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  int64_t tick = -1;
};

class SpanScope {
 public:
  /// `out` may be null (untraced runs): then the scope records nothing.
  SpanScope(std::vector<BenchSpan>* out, const char* name, int64_t tick = -1)
      : out_(out), span_{name, 0, 0, tick} {
    if (out_ != nullptr) span_.begin_ns = sgl::Telemetry::NowNs();
  }
  ~SpanScope() {
    if (out_ == nullptr) return;
    span_.end_ns = sgl::Telemetry::NowNs();
    out_->push_back(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::vector<BenchSpan>* out_;
  BenchSpan span_;
};

struct ScenarioOptions {
  uint64_t seed = 1;
  /// Entity count (units, vehicles, traders or soldiers); 0 = the gated
  /// workload's size.
  int size = 0;
  /// Capacity mode: one shard whatever the workload (all run one thread
  /// except armies_async's job workers).
  bool one_shard = false;
  /// Attached (disarmed) to every engine of a traced run; null otherwise.
  sgl::Telemetry* telemetry = nullptr;
  /// The benchmark's own spans; null in untraced runs.
  std::vector<BenchSpan>* spans = nullptr;
  /// Directory for scratch files (the market's save file).
  std::string workdir = ".";
};

/// Layer timings of one Build, for the traced run's per-layer table.
struct BuildTimes {
  double build_s = 0.0;    ///< the sim's Build call: create + spawn
  int64_t spawned_rows = 0;
  double restore_s = 0.0;  ///< LoadCheckpointFile + Engine::Restore
  int64_t checkpoint_bytes = 0;
};

class Scenario {
 public:
  virtual ~Scenario() = default;

  /// Drops the previous engine and builds a fresh one. Time that belongs
  /// to setup_s runs inside `setup`.
  virtual sgl::Status Build(Stopwatch* setup, BuildTimes* times) = 0;
  virtual sgl::Engine& engine() = 0;
  /// The SGL program and engine options, for a separately timed
  /// Engine::Create.
  virtual std::string Source() const = 0;
  virtual sgl::EngineOptions CreateOptions() const = 0;

  /// Ticks per round; measured runs attempt whole rounds.
  virtual int round_ticks() const = 0;
  virtual int warmup_rounds() const = 0;
  /// True: every measured round restarts from the world as it stood at the
  /// first measured round (a checkpoint taken then, restored before each
  /// later round), for workloads whose state drifts over a run.
  virtual bool Replays() const { return false; }
  /// Host input before tick `t` of round `round` (outside tick timing).
  virtual void Input(int64_t round, int t) = 0;
  /// Whether the tick gets an output check; Snapshot runs before it and
  /// Verify after it ("" = passed).
  virtual bool Sampled(int64_t round, int t) const = 0;
  virtual void Snapshot() = 0;
  virtual std::string Verify() = 0;

  /// A check that runs once, after the measured ticks and after
  /// peak_rss_mb is read, because it needs a second world beside the
  /// workload's ("" = passed). It may rebuild the engine, so it runs last.
  virtual std::string FinishRun() { return ""; }

  virtual sgl::FlightRecorder* recorder() { return nullptr; }

  /// Rows ticked: live entities across all classes.
  int64_t rows() {
    return static_cast<int64_t>(engine().world().TotalEntities());
  }
};

/// Null for an unknown name.
std::unique_ptr<Scenario> MakeScenario(const std::string& name,
                                       const ScenarioOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SCENARIOS_H_
