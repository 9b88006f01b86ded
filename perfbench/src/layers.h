// Per-layer accounting for the traced run of the tick benchmark.
//
// Everything here reads what the program already publishes: TickStats
// after each tick, the telemetry registry and span rings, and the flight
// recorder's frames. Layers are named by module (src/<layer>/); each
// metric names the end-to-end metric it should move, which the layer
// table prints beside it.

#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/exec/tick_executor.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"

namespace perfbench {

struct LayerMetric {
  const char* name;
  const char* unit;
  /// The end-to-end metric and workload it should move.
  const char* moves;
};

/// Every per-layer metric, in BENCHMARK.json order.
const std::vector<LayerMetric>& LayerMetrics();

/// Inputs measured outside the tick loop.
struct LayerSetup {
  double create_s = 0.0;         ///< separately timed Engine::Create
  double build_s = 0.0;          ///< the sim's Build (create + spawn)
  int64_t spawned_rows = 0;
  double restore_s = 0.0;        ///< LoadCheckpointFile + Engine::Restore
  int64_t checkpoint_bytes = 0;
};

class LayerAccounting {
 public:
  /// One traced tick: its TickStats, the recorder frame it left (null
  /// without a recorder) and the sharded imbalance gauge.
  void AddTracedTick(const sgl::TickStats& stats,
                     const sgl::FlightRecorder* recorder,
                     sgl::Telemetry* telemetry);
  /// Strategy switches are counted over every measured tick.
  void AddMeasuredTick(const sgl::TickStats& stats);
  /// Durations of the spans of ticks [lo, hi) that began at or after
  /// `since_ns` (collected after each traced round; replayed rounds reuse
  /// tick numbers, so older spans in the rings must not count again).
  void AddSpans(const std::vector<sgl::SpanView>& spans, int64_t since_ns,
                int64_t lo, int64_t hi);

  /// Fills every LayerMetrics() entry. `trace_overhead` is traced p50 over
  /// untraced p50 minus 1; `input_us_per_tick` is the host input step.
  std::map<std::string, double> Finish(const LayerSetup& setup,
                                       sgl::Telemetry& telemetry,
                                       const sgl::FlightRecorder* recorder,
                                       double trace_overhead,
                                       double input_us_per_tick) const;

 private:
  int64_t traced_ticks_ = 0;
  int64_t measured_ticks_ = 0;
  double query_us_ = 0, merge_us_ = 0, update_us_ = 0;
  double index_build_us_ = 0, probe_us_ = 0, index_bytes_ = 0;
  double allocs_ = 0, candidates_ = 0, matches_ = 0;
  double sites_bytecode_ = 0, simd_lanes_ = 0;
  double txn_issued_ = 0, txn_committed_ = 0;
  double jobs_submitted_ = 0, jobs_installed_ = 0, job_wait_us_ = 0;
  double recorder_records_ = 0, imbalance_bp_ = 0;
  double select_us_ = 0, mailbox_us_ = 0, worker_run_us_ = 0;
  int64_t strategy_switches_ = 0;
  std::vector<int> last_strategy_;  ///< by site id; -1 = not seen yet
};

/// The per-layer table as text: metric, value, unit and what it moves.
std::string RenderLayerTable(const std::string& workload,
                             const std::map<std::string, double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
