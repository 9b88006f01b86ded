// Scenario tick benchmark runner.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>]
//   perfbench --capacity <rts_waves|traffic_sharded> --seed <n>
//             [--workdir <dir>]
//
// A gated run builds the workload at least kSetupReps times, and cheap
// workloads until kMinSetupSeconds of set-up were timed (setup_s is the
// median), then measures whole rounds of ticks for at least --seconds, at
// least kMinTicks ticks and a whole number of kWindowTicks windows.
// Untraced runs (--trace 0) time every Engine::Tick() with telemetry
// disarmed and report the end-to-end metrics. Traced runs (--trace 1)
// attach a Telemetry, alternate disarmed and armed rounds, and report the
// per-layer metrics from the armed rounds, plus the traced over untraced
// tick p50; they also write the layer table and a Chrome trace under
// <workdir>/trace/. Sampled ticks are checked by the independent checkers
// of checks.h; a tick fails when Tick() returns an error or its check
// fails. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --capacity bisects the largest entity count whose tick p99 stays within
// one 60 Hz frame (16.6 ms) on one thread and one shard (a reference
// figure, not gated).

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/layers.h"
#include "perfbench/src/scenarios.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 5;
/// A set-up of 0.15 s spread by 32% over ten runs at five builds each, so
/// cheap set-ups repeat until this much time was timed (at most
/// kMaxSetupReps builds) and their median rests on more samples.
constexpr double kMinSetupSeconds = 2.0;
constexpr int kMaxSetupReps = 15;
/// tick_p99_ms is the median, over consecutive windows of kWindowTicks
/// measured ticks, of each window's p99. On the shared host a contended
/// stretch of a second or two lifts every tick in it; the p99 of a whole
/// run then followed whether one fell into the run (traffic_sharded read
/// 28.1-39.0 ms over five seeds, 25.7% between quartiles), while the
/// median over windows shrugs it off (27.3-32.8 ms, 11.5%).
constexpr int kWindowTicks = 128;
/// At least eight windows, and at least 10 ticks beyond the p99 of all
/// measured ticks.
constexpr int kMinTicks = 8 * kWindowTicks;
constexpr double kFrameBudgetMs = 16.6;

struct Args {
  std::string workload;
  std::string capacity;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string workdir = ".bench_build/work";
};

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile (p in (0, 100]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return v[rank - 1];
}

/// Median over the whole windows of kWindowTicks samples of `v` of each
/// window's nearest-rank p99 (the mean of the middle two for an even
/// count); the p99 of all of `v` when no window fits.
double WindowedP99(const std::vector<double>& v) {
  std::vector<double> p99;
  for (size_t i = 0; i + kWindowTicks <= v.size(); i += kWindowTicks) {
    p99.push_back(Percentile(
        std::vector<double>(v.begin() + i, v.begin() + i + kWindowTicks), 99));
  }
  if (p99.empty()) return Percentile(v, 99);
  std::sort(p99.begin(), p99.end());
  const size_t n = p99.size();
  return (p99[(n - 1) / 2] + p99[n / 2]) / 2.0;
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return false;
    }
    const char* val = argv[++i];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--capacity") {
      a->capacity = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(val);
    } else if (key == "--trace") {
      a->trace = std::atoi(val);
    } else if (key == "--workdir") {
      a->workdir = val;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return !a->workload.empty() || !a->capacity.empty();
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<std::pair<std::string, std::string>>& units,
                 const std::map<std::string, double>& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[256];
  bool first = true;
  for (const auto& [name, unit] : units) {
    auto it = values.find(name);
    double v = it != values.end() ? it->second : 0.0;
    if (!std::isfinite(v)) v = 0.0;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), v, unit.c_str());
    out += buf;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Builds `sc` and runs its warm-up ticks, timing both into the returned
/// setup seconds. False (with a message) when the engine fails.
bool BuildAndWarm(Scenario* sc, BuildTimes* times, double* setup_s) {
  Stopwatch setup;
  sgl::Status st = sc->Build(&setup, times);
  if (!st.ok()) {
    std::fprintf(stderr, "build failed: %s\n", st.ToString().c_str());
    return false;
  }
  for (int r = 0; r < sc->warmup_rounds(); ++r) {
    for (int t = 0; t < sc->round_ticks(); ++t) {
      sc->Input(r, t);
      setup.Start();
      st = sc->engine().Tick();
      setup.Stop();
      if (!st.ok()) {
        std::fprintf(stderr, "warm-up tick failed: %s\n",
                     st.ToString().c_str());
        return false;
      }
    }
  }
  *setup_s = setup.seconds();
  return true;
}

/// Appends the benchmark's own spans to a Chrome trace as pid 1000.
std::string WithBenchSpans(std::string trace,
                           const std::vector<BenchSpan>& spans) {
  const std::string tail = "],\"displayTimeUnit\":\"ms\"}";
  if (trace.size() < tail.size() ||
      trace.compare(trace.size() - tail.size(), tail.size(), tail) != 0) {
    return trace;
  }
  trace.resize(trace.size() - tail.size());
  const bool empty = trace.back() == '[';
  std::string out = empty ? "" : ",";
  out +=
      "{\"ph\":\"M\",\"pid\":1000,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"benchmark\"}}";
  char buf[256];
  for (const BenchSpan& s : spans) {
    std::snprintf(buf, sizeof(buf),
                  ",{\"ph\":\"X\",\"pid\":1000,\"tid\":0,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":\"%s\",\"args\":{\"tick\":%lld}}",
                  static_cast<double>(s.begin_ns) / 1000.0,
                  static_cast<double>(s.end_ns - s.begin_ns) / 1000.0,
                  s.name, static_cast<long long>(s.tick));
    out += buf;
  }
  return trace + out + tail;
}

bool WriteFile(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  return std::fclose(f) == 0 && ok;
}

int RunWorkload(const Args& a) {
  const std::string trace_dir = a.workdir + "/trace";
  mkdir(a.workdir.c_str(), 0755);  // EEXIST is fine; a real failure shows
  mkdir(trace_dir.c_str(), 0755);  // when the files are written
  std::unique_ptr<sgl::Telemetry> tel;
  std::vector<BenchSpan> spans;
  if (a.trace != 0) {
    sgl::TelemetryOptions topt;
    topt.max_lanes = 24;
    topt.ring_spans = size_t{1} << 14;
    tel = std::make_unique<sgl::Telemetry>(topt);
  }
  ScenarioOptions so;
  so.seed = a.seed;
  so.telemetry = tel.get();
  so.spans = tel != nullptr ? &spans : nullptr;
  so.workdir = a.workdir;
  std::unique_ptr<Scenario> sc = MakeScenario(a.workload, so);
  if (sc == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }

  int64_t attempted = 0, failed = 0;
  bool correct = true;
  int reported = 0;
  auto report = [&](const std::string& what) {
    if (reported++ < 5) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  };

  // --- Setup: fresh builds, the last one is measured ---------------------
  LayerSetup layer_setup;
  if (tel != nullptr) {
    std::vector<double> create_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      SpanScope span(so.spans, "lang.create");
      const auto t0 = Clock::now();
      auto engine = sgl::Engine::Create(sc->Source(), sc->CreateOptions());
      create_s.push_back(Since(t0));
      if (!engine.ok()) {
        std::fprintf(stderr, "create failed: %s\n",
                     engine.status().ToString().c_str());
        return 2;
      }
    }
    layer_setup.create_s = Percentile(create_s, 50);
  }
  std::vector<double> setup_s, build_s, restore_s;
  BuildTimes times;
  double setup_total = 0.0;
  for (int rep = 0; rep < kMaxSetupReps &&
                    (rep < kSetupReps || setup_total < kMinSetupSeconds);
       ++rep) {
    double s = 0.0;
    if (!BuildAndWarm(sc.get(), &times, &s)) return 2;
    setup_total += s;
    setup_s.push_back(s);
    build_s.push_back(times.build_s);
    restore_s.push_back(times.restore_s);
  }
  layer_setup.build_s = Percentile(build_s, 50);
  layer_setup.restore_s = Percentile(restore_s, 50);
  layer_setup.spawned_rows = times.spawned_rows;
  layer_setup.checkpoint_bytes = times.checkpoint_bytes;

  // --- Measured rounds ----------------------------------------------------
  sgl::Engine& engine = sc->engine();
  const int64_t rows = sc->rows();
  std::vector<double> untraced_ms, traced_ms;
  untraced_ms.reserve(1 << 16);
  traced_ms.reserve(1 << 16);
  LayerAccounting layers;
  double input_s = 0.0;
  int64_t input_ticks = 0;
  // Bounds the run when ticks are far slower than expected (fewer than
  // kMinTicks ticks are then measured).
  const double hard_cap =
      std::min(std::max(3 * a.seconds, a.seconds + 30), 120.0);
  sgl::Checkpoint replay;
  const auto loop_start = Clock::now();
  for (int64_t round = sc->warmup_rounds();; ++round) {
    const bool traced =
        tel != nullptr && (round - sc->warmup_rounds()) % 2 == 1;
    if (tel != nullptr) tel->set_armed(traced);
    if (sc->Replays()) {
      SpanScope span(so.spans, "debug.replay", engine.tick());
      const auto r0 = Clock::now();
      if (round == sc->warmup_rounds()) {
        replay = engine.TakeCheckpoint();
      } else {
        const sgl::Status st = engine.Restore(replay);
        if (!st.ok()) {
          std::fprintf(stderr, "replay restore failed: %s\n",
                       st.ToString().c_str());
          return 2;
        }
      }
      input_s += Since(r0);
    }
    const int64_t first_tick = engine.tick();
    const int64_t round_begin_ns = sgl::Telemetry::NowNs();
    for (int t = 0; t < sc->round_ticks(); ++t) {
      const int64_t tick_no = engine.tick();
      {
        SpanScope span(so.spans, "host.input", tick_no);
        const auto i0 = Clock::now();
        sc->Input(round, t);
        input_s += Since(i0);
        ++input_ticks;
      }
      const bool sampled = sc->Sampled(round, t);
      if (sampled) sc->Snapshot();
      sgl::Status st;
      double ms;
      {
        SpanScope span(so.spans, "engine.tick", tick_no);
        const auto t0 = Clock::now();
        st = engine.Tick();
        ms = Since(t0) * 1e3;
      }
      (traced ? traced_ms : untraced_ms).push_back(ms);
      ++attempted;
      if (!st.ok()) {
        ++failed;
        report("tick " + std::to_string(tick_no) + ": " + st.ToString());
        continue;
      }
      if (tel != nullptr) {
        layers.AddMeasuredTick(engine.last_stats());
        if (traced) {
          layers.AddTracedTick(engine.last_stats(), sc->recorder(), tel.get());
        }
      }
      if (sampled) {
        const std::string err = sc->Verify();
        if (!err.empty()) {
          ++failed;
          correct = false;
          report("tick " + std::to_string(tick_no) + ": " + err);
        }
      }
    }
    if (traced) {
      layers.AddSpans(tel->CollectSpans(), round_begin_ns, first_tick,
                      engine.tick());
    }
    const double elapsed = Since(loop_start);
    const bool enough =
        tel != nullptr ? round - sc->warmup_rounds() >= 1
                       : untraced_ms.size() >= size_t{kMinTicks} &&
                             untraced_ms.size() % kWindowTicks == 0;
    if ((elapsed >= a.seconds && enough) || elapsed >= hard_cap) break;
  }
  if (tel != nullptr) tel->set_armed(false);

  std::map<std::string, double> values;
  std::vector<std::pair<std::string, std::string>> units;
  const double p50 = Percentile(untraced_ms, 50);
  if (tel == nullptr) {
    double tick_s = 0.0;
    for (double ms : untraced_ms) tick_s += ms / 1e3;
    values["setup_s"] = Percentile(setup_s, 50);
    values["tick_p50_ms"] = p50;
    values["tick_p99_ms"] = WindowedP99(untraced_ms);
    values["entity_ticks_per_s"] =
        tick_s > 0 ? static_cast<double>(rows) *
                         static_cast<double>(untraced_ms.size()) / tick_s
                   : 0.0;
    values["peak_rss_mb"] = PeakRssMb();
    units = {{"setup_s", "s"},
             {"tick_p50_ms", "ms"},
             {"tick_p99_ms", "ms"},
             {"entity_ticks_per_s", "entity-ticks/s"},
             {"peak_rss_mb", "MB"}};
    std::fprintf(stderr, "%s seed %llu: %zu measured ticks, %lld rows\n",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                 untraced_ms.size(), static_cast<long long>(rows));
  } else {
    const double overhead =
        p50 > 0 ? Percentile(traced_ms, 50) / p50 - 1.0 : 0.0;
    values = layers.Finish(
        layer_setup, *tel, sc->recorder(), overhead,
        input_ticks > 0 ? input_s * 1e6 / static_cast<double>(input_ticks)
                        : 0.0);
    for (const LayerMetric& m : LayerMetrics()) {
      units.emplace_back(m.name, m.unit);
    }
  }
  const std::string finish_error = sc->FinishRun();
  if (!finish_error.empty()) {
    correct = false;
    report(finish_error);
  }
  if (tel != nullptr) {
    const std::string table = RenderLayerTable(a.workload, values);
    std::fputs(table.c_str(), stderr);
    if (!WriteFile(trace_dir + "/" + a.workload + ".layers.txt", table) ||
        !WriteFile(trace_dir + "/" + a.workload + ".trace.json",
                   WithBenchSpans(tel->DumpChromeTrace(), spans))) {
      std::fprintf(stderr, "cannot write the trace files under %s\n",
                   trace_dir.c_str());
      return 2;
    }
  }
  for (const auto& [name, unit] : units) {
    std::printf("%-38s %16.4f %s\n", name.c_str(), values[name], unit.c_str());
  }
  PrintResult(correct, attempted, failed, units, values);
  return 0;
}

/// Tick p99 (ms) of `workload` at `size` entities on one thread and one
/// shard, over at least kMinTicks measured ticks.
double CapacityProbe(const Args& a, int size) {
  ScenarioOptions so;
  so.seed = a.seed;
  so.size = size;
  so.one_shard = true;
  so.workdir = a.workdir;
  std::unique_ptr<Scenario> sc = MakeScenario(a.capacity, so);
  BuildTimes times;
  double setup_s = 0.0;
  if (!BuildAndWarm(sc.get(), &times, &setup_s)) return -1;
  std::vector<double> ms;
  for (int64_t round = sc->warmup_rounds();
       static_cast<int>(ms.size()) < kMinTicks; ++round) {
    for (int t = 0; t < sc->round_ticks(); ++t) {
      sc->Input(round, t);
      const auto t0 = Clock::now();
      if (!sc->engine().Tick().ok()) return -1;
      ms.push_back(Since(t0) * 1e3);
    }
  }
  return Percentile(ms, 99);
}

int RunCapacity(const Args& a) {
  if (a.capacity != "rts_waves" && a.capacity != "traffic_sharded") {
    std::fprintf(stderr, "--capacity takes rts_waves or traffic_sharded\n");
    return 2;
  }
  std::string probes;
  auto within = [&](int n) {
    const double p99 = CapacityProbe(a, n);
    std::fprintf(stderr, "%s: %d entities, tick p99 %.3f ms\n",
                 a.capacity.c_str(), n, p99);
    probes += (probes.empty() ? "" : ", ") + std::string("[") +
              std::to_string(n) + ", " + std::to_string(p99) + "]";
    return p99 >= 0 && p99 <= kFrameBudgetMs;
  };
  const int step = a.capacity == "traffic_sharded" ? 625 : 64;
  int lo = 0, hi = 0;
  for (int n = 16 * step; n <= (1 << 20); n *= 2) {
    if (!within(n)) {
      hi = n;
      break;
    }
    lo = n;
  }
  if (hi == 0) hi = 2 * lo;
  while (hi - lo > std::max(step, lo / 32)) {
    const int mid = (lo + hi) / 2 / step * step;
    if (mid <= lo || mid >= hi) break;
    if (within(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  std::printf(
      "{\"workload\": \"%s\", \"budget_ms\": %.3f, \"max_entities\": %d, "
      "\"first_failing\": %d, \"probes\": [%s]}\n",
      a.capacity.c_str(), kFrameBudgetMs, lo, hi, probes.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n       perfbench --capacity <name>\n");
    return 2;
  }
  return a.capacity.empty() ? perfbench::RunWorkload(a)
                            : perfbench::RunCapacity(a);
}
