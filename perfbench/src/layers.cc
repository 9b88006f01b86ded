#include "perfbench/src/layers.h"

#include <cstdio>

namespace perfbench {

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> metrics = {
      {"lang.create_ms", "ms", "setup_s on all four workloads"},
      {"storage.spawn_ns_per_entity", "ns",
       "setup_s on rts_waves, traffic_sharded, armies_async"},
      {"debug.restore_ms", "ms", "setup_s on market_boot"},
      {"debug.checkpoint_mb", "MB", "setup_s on market_boot"},
      {"exec.select_us_per_tick", "us", "tick_p50_ms on traffic_sharded"},
      {"exec.query_us_per_tick", "us", "tick_p50_ms on rts_waves"},
      {"exec.merge_us_per_tick", "us", "tick_p50_ms on rts_waves (battle)"},
      {"exec.update_us_per_tick", "us",
       "tick_p50_ms on market_boot, armies_async"},
      {"exec.allocs_per_tick", "count",
       "tick_p99_ms, peak_rss_mb on market_boot"},
      {"index.build_us_per_tick", "us",
       "tick_p50_ms on traffic_sharded, rts_waves"},
      {"index.probe_us_per_tick", "us", "tick_p50_ms on rts_waves"},
      {"index.memory_mb", "MB", "peak_rss_mb on traffic_sharded"},
      {"opt.candidates_per_match", "ratio", "tick_p99_ms on rts_waves"},
      {"opt.strategy_switches", "count/1k_ticks", "tick_p99_ms on rts_waves"},
      {"vm.bytecode_sites_per_tick", "count", "tick_p50_ms on rts_waves"},
      {"vm.simd_lanes_per_tick", "count", "tick_p50_ms on rts_waves"},
      {"shard.cross_records_per_tick", "count",
       "entity_ticks_per_s on traffic_sharded"},
      {"shard.mailbox_us_per_tick", "us", "tick_p50_ms on traffic_sharded"},
      {"shard.barrier_stall_us_per_tick", "us",
       "tick_p99_ms on traffic_sharded"},
      {"shard.imbalance_bp", "bp", "tick_p99_ms on traffic_sharded"},
      {"txn.issued_per_tick", "count", "tick_p50_ms on market_boot"},
      {"txn.committed_per_issued", "ratio", "tick_p50_ms on market_boot"},
      {"async.jobs_submitted_per_tick", "count",
       "entity_ticks_per_s on armies_async"},
      {"async.jobs_installed_per_tick", "count",
       "entity_ticks_per_s on armies_async"},
      {"async.job_wait_us_per_tick", "us", "tick_p99_ms on armies_async"},
      {"async.worker_run_us_per_tick", "us", "tick_p50_ms on armies_async"},
      {"telemetry.recorder_records_per_tick", "count",
       "tick_p50_ms on market_boot"},
      {"telemetry.recorder_dropped_records", "count",
       "tick_p50_ms on market_boot"},
      {"telemetry.trace_overhead_pct", "%",
       "none: the cost of the traced run"},
      {"host.input_us_per_tick", "us",
       "none: the benchmark's input step, outside tick timing"},
  };
  return metrics;
}

void LayerAccounting::AddTracedTick(const sgl::TickStats& s,
                                    const sgl::FlightRecorder* recorder,
                                    sgl::Telemetry* telemetry) {
  ++traced_ticks_;
  query_us_ += static_cast<double>(s.query_effect_micros -
                                   s.index_build_micros - s.probe_micros);
  merge_us_ += static_cast<double>(s.merge_micros);
  update_us_ += static_cast<double>(s.update_micros);
  index_build_us_ += static_cast<double>(s.index_build_micros);
  probe_us_ += static_cast<double>(s.probe_micros);
  index_bytes_ += static_cast<double>(s.index_memory_bytes);
  allocs_ += static_cast<double>(s.allocs_per_tick);
  for (const sgl::SiteFeedback& fb : s.sites) {
    candidates_ += static_cast<double>(fb.candidates);
    matches_ += static_cast<double>(fb.matches);
  }
  sites_bytecode_ += static_cast<double>(s.sites_bytecode);
  simd_lanes_ += static_cast<double>(s.simd_lanes_used);
  txn_issued_ += static_cast<double>(s.txn.issued);
  txn_committed_ += static_cast<double>(s.txn.committed);
  jobs_submitted_ += static_cast<double>(s.jobs_submitted);
  jobs_installed_ += static_cast<double>(s.jobs_installed);
  job_wait_us_ += static_cast<double>(s.job_wait_micros);
  if (recorder != nullptr) {
    const sgl::TickFrame* frame = recorder->frame(s.tick);
    if (frame != nullptr) {
      recorder_records_ += static_cast<double>(frame->num_records);
    }
  }
  imbalance_bp_ += static_cast<double>(
      telemetry->metrics().Snapshot().Gauge("shard.imbalance_bp"));
}

void LayerAccounting::AddMeasuredTick(const sgl::TickStats& s) {
  ++measured_ticks_;
  for (const sgl::SiteFeedback& fb : s.sites) {
    if (fb.site < 0) continue;
    const size_t site = static_cast<size_t>(fb.site);
    if (last_strategy_.size() <= site) last_strategy_.resize(site + 1, -1);
    const int strategy = static_cast<int>(fb.strategy);
    if (last_strategy_[site] >= 0 && last_strategy_[site] != strategy) {
      ++strategy_switches_;
    }
    last_strategy_[site] = strategy;
  }
}

void LayerAccounting::AddSpans(const std::vector<sgl::SpanView>& spans,
                               int64_t since_ns, int64_t lo, int64_t hi) {
  for (const sgl::SpanView& s : spans) {
    if (s.begin_ns < since_ns || s.tick < lo || s.tick >= hi) continue;
    const double us = static_cast<double>(s.end_ns - s.begin_ns) / 1000.0;
    if (s.site == sgl::kSpanTickSelect.id) {
      select_us_ += us;
    } else if (s.site == sgl::kSpanMailboxFlip.id ||
               s.site == sgl::kSpanMailboxReplay.id) {
      mailbox_us_ += us;
    } else if (s.site == sgl::kSpanJobRun.id) {
      worker_run_us_ += us;
    }
  }
}

std::map<std::string, double> LayerAccounting::Finish(
    const LayerSetup& setup, sgl::Telemetry& telemetry,
    const sgl::FlightRecorder* recorder, double trace_overhead,
    double input_us_per_tick) const {
  const double n = traced_ticks_ > 0 ? static_cast<double>(traced_ticks_) : 1;
  const sgl::MetricsSnapshot snap = telemetry.metrics().Snapshot();
  const sgl::HistogramSnapshot* stall = snap.Find("barrier.stall_us");
  std::map<std::string, double> v;
  v["lang.create_ms"] = setup.create_s * 1e3;
  v["storage.spawn_ns_per_entity"] =
      setup.spawned_rows > 0
          ? (setup.build_s - setup.create_s) * 1e9 /
                static_cast<double>(setup.spawned_rows)
          : 0.0;
  v["debug.restore_ms"] = setup.restore_s * 1e3;
  v["debug.checkpoint_mb"] =
      static_cast<double>(setup.checkpoint_bytes) / (1024.0 * 1024.0);
  v["exec.select_us_per_tick"] = select_us_ / n;
  v["exec.query_us_per_tick"] = query_us_ / n;
  v["exec.merge_us_per_tick"] = merge_us_ / n;
  v["exec.update_us_per_tick"] = update_us_ / n;
  v["exec.allocs_per_tick"] = allocs_ / n;
  v["index.build_us_per_tick"] = index_build_us_ / n;
  v["index.probe_us_per_tick"] = probe_us_ / n;
  v["index.memory_mb"] = index_bytes_ / n / (1024.0 * 1024.0);
  v["opt.candidates_per_match"] = matches_ > 0 ? candidates_ / matches_ : 0.0;
  v["opt.strategy_switches"] =
      measured_ticks_ > 0 ? 1000.0 * static_cast<double>(strategy_switches_) /
                                static_cast<double>(measured_ticks_)
                          : 0.0;
  v["vm.bytecode_sites_per_tick"] = sites_bytecode_ / n;
  v["vm.simd_lanes_per_tick"] = simd_lanes_ / n;
  v["shard.cross_records_per_tick"] =
      static_cast<double>(snap.Counter("shard.cross_records_total")) / n;
  v["shard.mailbox_us_per_tick"] = mailbox_us_ / n;
  v["shard.barrier_stall_us_per_tick"] =
      stall != nullptr ? static_cast<double>(stall->sum) / n : 0.0;
  v["shard.imbalance_bp"] = imbalance_bp_ / n;
  v["txn.issued_per_tick"] = txn_issued_ / n;
  v["txn.committed_per_issued"] =
      txn_issued_ > 0 ? txn_committed_ / txn_issued_ : 0.0;
  v["async.jobs_submitted_per_tick"] = jobs_submitted_ / n;
  v["async.jobs_installed_per_tick"] = jobs_installed_ / n;
  v["async.job_wait_us_per_tick"] = job_wait_us_ / n;
  v["async.worker_run_us_per_tick"] = worker_run_us_ / n;
  v["telemetry.recorder_records_per_tick"] = recorder_records_ / n;
  v["telemetry.recorder_dropped_records"] =
      recorder != nullptr ? static_cast<double>(recorder->dropped_records())
                          : 0.0;
  v["telemetry.trace_overhead_pct"] = trace_overhead * 100.0;
  v["host.input_us_per_tick"] = input_us_per_tick;
  return v;
}

std::string RenderLayerTable(const std::string& workload,
                             const std::map<std::string, double>& values) {
  std::string out = "# per-layer table: " + workload + "\n";
  char line[256];
  std::snprintf(line, sizeof(line), "%-38s %16s %-15s %s\n", "metric",
                "value", "unit", "moves");
  out += line;
  for (const LayerMetric& m : LayerMetrics()) {
    auto it = values.find(m.name);
    std::snprintf(line, sizeof(line), "%-38s %16.4f %-15s %s\n", m.name,
                  it != values.end() ? it->second : 0.0, m.unit, m.moves);
    out += line;
  }
  return out;
}

}  // namespace perfbench
