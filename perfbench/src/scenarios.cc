#include "perfbench/src/scenarios.h"

#include <unistd.h>

#include <cstdio>
#include <utility>

#include "perfbench/src/checks.h"
#include "src/common/rng.h"
#include "src/debug/checkpoint_file.h"
#include "src/sim/armies.h"
#include "src/sim/market.h"
#include "src/sim/rts.h"
#include "src/sim/traffic.h"

namespace perfbench {
namespace {

using sgl::Engine;
using sgl::EngineOptions;
using sgl::Status;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Builds through `build`, timing it into `setup` and `times->build_s`.
template <typename BuildFn>
Status TimedBuild(const ScenarioOptions& o, Stopwatch* setup,
                  BuildTimes* times, std::unique_ptr<Engine>* out,
                  BuildFn build) {
  SpanScope span(o.spans, "storage.build");
  const auto t0 = std::chrono::steady_clock::now();
  setup->Start();
  auto engine = build();
  setup->Stop();
  times->build_s = SecondsSince(t0);
  if (!engine.ok()) return engine.status();
  *out = std::move(engine).value();
  times->spawned_rows =
      static_cast<int64_t>((*out)->world().TotalEntities());
  return Status::OK();
}

// --- rts_waves ---------------------------------------------------------------
//
// RtsWorkload at 8,192 units on one thread. Each 32-tick wave heals every
// unit to 100 and scatters them uniformly (24 exploration ticks), then
// clusters them around four hotspots (8 battle ticks). Without the heal,
// dead units keep running Combat and drift to the arena centre, and the
// tick cost grows without bound.
class RtsScenario : public Scenario {
 public:
  static constexpr int kWaveTicks = 32;
  static constexpr int kBattleStart = 24;

  explicit RtsScenario(const ScenarioOptions& o) : o_(o) {
    cfg_.num_units = o.size > 0 ? o.size : 8192;
    cfg_.seed = sgl::Mix64(o.seed ^ 0x727473ULL);
    cfg_.cluster_radius = 120.0;
    eo_.exec.telemetry = o.telemetry;
  }

  Status Build(Stopwatch* setup, BuildTimes* times) override {
    engine_.reset();
    return TimedBuild(o_, setup, times, &engine_,
                      [&] { return sgl::RtsWorkload::Build(cfg_, eo_); });
  }
  Engine& engine() override { return *engine_; }
  std::string Source() const override { return sgl::RtsWorkload::Source(); }
  EngineOptions CreateOptions() const override { return EngineOptions(); }
  int round_ticks() const override { return kWaveTicks; }
  int warmup_rounds() const override { return 1; }

  void Input(int64_t round, int t) override {
    const uint64_t wave_seed =
        sgl::Mix64(o_.seed ^ (static_cast<uint64_t>(round) << 8));
    if (t == 0) {
      sgl::World& world = engine_->world();
      const sgl::ClassId cls = engine_->catalog().Find("Unit");
      sgl::EntityTable& table = world.table(cls);
      sgl::NumberColumn health =
          table.Num(engine_->catalog().Get(cls).FindState("health"));
      for (size_t i = 0; i < table.size(); ++i) health.at(i) = 100.0;
      sgl::RtsWorkload::RepositionMode(engine_.get(), cfg_, false,
                                       wave_seed);
    } else if (t == kBattleStart) {
      sgl::RtsWorkload::RepositionMode(engine_.get(), cfg_, true,
                                       wave_seed ^ 1);
    }
  }
  // One exploration and one battle tick of every eighth wave.
  bool Sampled(int64_t round, int t) const override {
    return round % 8 == 1 && (t == 3 || t == kBattleStart + 3);
  }
  void Snapshot() override {
    SpanScope span(o_.spans, "check.snapshot");
    before_ = ReadRts(*engine_);
  }
  std::string Verify() override {
    SpanScope span(o_.spans, "check.verify");
    return CompareRts(StepRts(before_), ReadRts(*engine_), 1e-9);
  }

 private:
  ScenarioOptions o_;
  sgl::RtsConfig cfg_;
  EngineOptions eo_;
  std::unique_ptr<Engine> engine_;
  RtsState before_;
};

// --- traffic_sharded ---------------------------------------------------------
//
// TrafficWorkload at 40,000 vehicles on 64 lanes (625 per lane keeps the
// road flowing), 4 shards on one thread: the sharded pipeline (per-shard
// select and query, mailboxes, barrier) runs in full, but ticks do not
// wait on 4 shared vCPUs at once. With 4 threads, steal time from other
// guests spread the tick p50 by 27% and the p99 by 45% across ten runs.
// No host input: the fleet circulates on its own. Left alone, it slowly
// bunches into platoons (matches per vehicle grow ~7× over 4,000 ticks),
// so every 64-tick round replays the road as it stood after the warm-up.
class TrafficScenario : public Scenario {
 public:
  static constexpr int kPerLane = 625;

  explicit TrafficScenario(const ScenarioOptions& o) : o_(o) {
    cfg_.num_vehicles = o.size > 0 ? o.size : 40000;
    cfg_.num_lanes = std::max(1, cfg_.num_vehicles / kPerLane);
    cfg_.seed = sgl::Mix64(o.seed ^ 0x74726166ULL);
    eo_.exec.num_shards = o.one_shard ? 1 : 4;
    eo_.exec.telemetry = o.telemetry;
  }

  Status Build(Stopwatch* setup, BuildTimes* times) override {
    engine_.reset();
    return TimedBuild(o_, setup, times, &engine_,
                      [&] { return sgl::TrafficWorkload::Build(cfg_, eo_); });
  }
  Engine& engine() override { return *engine_; }
  std::string Source() const override {
    return sgl::TrafficWorkload::Source();
  }
  EngineOptions CreateOptions() const override {
    EngineOptions eo = eo_;
    eo.exec.telemetry = nullptr;
    return eo;
  }
  int round_ticks() const override { return 64; }
  // The first ~64 ticks run about twice as slow as the steady state.
  int warmup_rounds() const override { return 2; }
  bool Replays() const override { return true; }
  void Input(int64_t, int) override {}
  bool Sampled(int64_t round, int t) const override {
    return round % 2 == 1 && t == 37;
  }
  void Snapshot() override {
    SpanScope span(o_.spans, "check.snapshot");
    before_ = ReadTraffic(*engine_);
  }
  std::string Verify() override {
    SpanScope span(o_.spans, "check.verify");
    return CompareTraffic(StepTraffic(before_, cfg_.road_length),
                          ReadTraffic(*engine_), 1e-9);
  }

 private:
  ScenarioOptions o_;
  sgl::TrafficConfig cfg_;
  EngineOptions eo_;
  std::unique_ptr<Engine> engine_;
  TrafficState before_;
};

// --- market_boot -------------------------------------------------------------
//
// MarketWorkload at 8,192 traders and 16,384 items, booted like a server
// restarting from its save: a freshly built world is written to a
// checkpoint file once, before any timing, and freed; every Build then
// runs Engine::Create, LoadCheckpointFile and Engine::Restore. The flight
// recorder is armed to audit trades. Every 128-tick round replays from
// the world as it stood after the warm-up (with fresh wants): left alone,
// ticks get cheaper the longer a run lasts (p50 8.5 -> 7.9 ms over 1,600
// ticks). The ticks right after a replay's restore are the slowest; with
// 64-tick rounds they were more than 1% of all ticks, so the tick p99 sat
// among them and spread by 28-30% over ten seeds. After the run,
// FinishRun boots the save once more and ticks it beside a directly built
// world with the same wants; the two canonical checksums must agree,
// because restore must be lossless.
class MarketScenario : public Scenario {
 public:
  static constexpr int kLosslessTicks = 64;

  explicit MarketScenario(const ScenarioOptions& o) : o_(o) {
    cfg_.num_traders = o.size > 0 ? o.size : 8192;
    cfg_.num_items = 2 * cfg_.num_traders;
    cfg_.contention = 4;
    cfg_.active_fraction = 0.25;
    cfg_.seed = sgl::Mix64(o.seed ^ 0x6d6b74ULL);
    // Provisioning of the directly built world only: it never reaches the
    // save file, which records set sizes, not capacities.
    cfg_.inventory_capacity = 64;
    path_ = o.workdir + "/market_" + std::to_string(getpid()) + ".sgl";
  }
  ~MarketScenario() override {
    if (saved_) std::remove(path_.c_str());
  }

  Status Build(Stopwatch* setup, BuildTimes* times) override {
    engine_.reset();
    recorder_.reset();
    if (!saved_) {
      SGL_RETURN_IF_ERROR(WriteSave());
    }
    times->build_s = fresh_build_s_;
    times->spawned_rows = fresh_rows_;
    times->checkpoint_bytes = checkpoint_bytes_;

    recorder_ = std::make_unique<sgl::FlightRecorder>();
    recorder_->set_armed(true);
    EngineOptions eo;
    eo.exec.telemetry = o_.telemetry;
    eo.exec.recorder = recorder_.get();
    setup->Start();
    auto engine = [&] {
      SpanScope span(o_.spans, "lang.create");
      return Engine::Create(sgl::MarketWorkload::Source(), eo);
    }();
    if (!engine.ok()) {
      setup->Stop();
      return engine.status();
    }
    engine_ = std::move(engine).value();
    const auto t0 = std::chrono::steady_clock::now();
    sgl::Checkpoint cp;
    Status st;
    {
      SpanScope span(o_.spans, "debug.load");
      st = sgl::LoadCheckpointFile(path_, &cp);
    }
    if (st.ok()) {
      SpanScope span(o_.spans, "debug.restore");
      st = engine_->Restore(cp);
    }
    setup->Stop();
    times->restore_s = SecondsSince(t0);
    SGL_RETURN_IF_ERROR(st);
    rng_ = sgl::Rng(sgl::Mix64(o_.seed ^ 0x77616e74ULL));
    return Status::OK();
  }
  Engine& engine() override { return *engine_; }
  std::string Source() const override {
    return sgl::MarketWorkload::Source();
  }
  EngineOptions CreateOptions() const override { return EngineOptions(); }
  int round_ticks() const override { return 128; }
  int warmup_rounds() const override { return 1; }
  bool Replays() const override { return true; }

  void Input(int64_t, int) override {
    sgl::MarketWorkload::AssignWants(engine_.get(), cfg_, &rng_);
  }
  bool Sampled(int64_t, int t) const override { return t % 4 == 1; }
  void Snapshot() override {
    SpanScope span(o_.spans, "check.snapshot");
    before_ = ReadMarket(*engine_);
  }
  std::string Verify() override {
    SpanScope span(o_.spans, "check.verify");
    std::string err = CheckMarketTick(
        before_, ReadMarket(*engine_), cfg_.item_value,
        cfg_.initial_gold * static_cast<double>(cfg_.num_traders));
    return err.empty() ? CheckMarketInvariants(*engine_) : err;
  }

  // Boots the save again and ticks it beside a directly built world, with
  // the booted world's wants copied by entity id (want is input, not
  // engine output).
  std::string FinishRun() override {
    SpanScope span(o_.spans, "check.lossless");
    Stopwatch unused;
    BuildTimes times;
    Status st = Build(&unused, &times);
    auto fresh = sgl::MarketWorkload::Build(cfg_, EngineOptions());
    if (st.ok()) st = fresh.status();
    for (int t = 0; st.ok() && t < kLosslessTicks; ++t) {
      Input(0, t);
      const MarketState booted = ReadMarket(*engine_);
      for (size_t i = 0; st.ok() && i < booted.trader_ids.size(); ++i) {
        st = (*fresh)->Set(booted.trader_ids[i], "want",
                           sgl::Value::Ref(booted.want[i]));
      }
      if (st.ok()) st = engine_->Tick();
      if (st.ok()) st = (*fresh)->Tick();
    }
    if (!st.ok()) return "market: lossless check failed: " + st.ToString();
    if (sgl::CanonicalWorldChecksum(engine_->world()) !=
        sgl::CanonicalWorldChecksum((*fresh)->world())) {
      return "market: booted world diverged from the directly built world";
    }
    return "";
  }

  sgl::FlightRecorder* recorder() override { return recorder_.get(); }

 private:
  /// Builds the world directly, saves it, and frees it again.
  Status WriteSave() {
    const auto t0 = std::chrono::steady_clock::now();
    auto fresh = [&] {
      SpanScope span(o_.spans, "storage.build");
      return sgl::MarketWorkload::Build(cfg_, EngineOptions());
    }();
    fresh_build_s_ = SecondsSince(t0);
    if (!fresh.ok()) return fresh.status();
    fresh_rows_ = static_cast<int64_t>((*fresh)->world().TotalEntities());
    SpanScope span(o_.spans, "debug.save");
    SGL_RETURN_IF_ERROR(
        sgl::SaveCheckpointFile((*fresh)->TakeCheckpoint(), path_));
    saved_ = true;
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    if (f != nullptr) {
      std::fseek(f, 0, SEEK_END);
      checkpoint_bytes_ = std::ftell(f);
      std::fclose(f);
    }
    return Status::OK();
  }

  ScenarioOptions o_;
  sgl::MarketConfig cfg_;
  std::string path_;
  bool saved_ = false;
  double fresh_build_s_ = 0.0;
  int64_t fresh_rows_ = 0;
  int64_t checkpoint_bytes_ = 0;
  sgl::Rng rng_;
  std::unique_ptr<sgl::FlightRecorder> recorder_;  ///< outlives engine_
  std::unique_ptr<Engine> engine_;
  MarketState before_;
};

// --- armies_async ------------------------------------------------------------
//
// ArmiesWorkload at 16,384 soldiers in 16 armies on a 256×256 map, with
// the asynchronous pathfinder. One army is retargeted every 4 ticks,
// round-robin, which keeps a steady flow of new path requests instead of a
// burst every 64 ticks. A retargeted army first regroups: its soldiers
// stand on kRegroupCells random open cells within kRegroupRadius of the
// rally point it was heading to, then it marches to the next rally point,
// so every 1,024 ticks each army walks every route between consecutive
// rally points once. Without the regroup, marching armies merge onto
// shared routes and the flow of new requests dies out, so the numbers
// would depend on how long the run lasted. A regroup asks for about one
// search per cell.
//
// The JobService runs with 0 workers (its inline reference mode): every
// search runs on the tick thread at its install tick, so the async layer
// (request cache, submission, A*, install) is measured and worker overlap
// is not. With 2 workers, the tick p99 followed how soon the host ran the
// workers' vCPUs: 3.8-8.5 ms on one seed set, 2.7-13.9 ms on another.
class ArmiesScenario : public Scenario {
 public:
  static constexpr int kArmies = 16;
  static constexpr int kRetargetEvery = 4;
  static constexpr int kRegroupRadius = 6;
  static constexpr int kRegroupCells = 4;

  explicit ArmiesScenario(const ScenarioOptions& o)
      : o_(o),
        cfg_(Config(o)),
        map_(sgl::ArmiesWorkload::BuildMap(cfg_)),
        checker_(map_),
        rallies_(sgl::ArmiesWorkload::RallyCells(cfg_)) {
    eo_.exec.jobs.num_workers = 0;
    eo_.exec.telemetry = o.telemetry;
  }

  Status Build(Stopwatch* setup, BuildTimes* times) override {
    engine_.reset();
    SGL_RETURN_IF_ERROR(TimedBuild(o_, setup, times, &engine_, [&] {
      return sgl::ArmiesWorkload::Build(cfg_, eo_);
    }));
    const sgl::ClassId cls = engine_->catalog().Find("Soldier");
    const sgl::EntityTable& table = engine_->world().table(cls);
    const sgl::ConstNumberColumn army =
        table.Num(engine_->catalog().Get(cls).FindState("army"));
    army_.assign(table.size(), 0);
    army_rows_.assign(kArmies, {});
    for (size_t i = 0; i < table.size(); ++i) {
      army_[i] = static_cast<int>(army[i]);
      army_rows_[static_cast<size_t>(army_[i])].push_back(i);
    }
    // Every army starts grouped at its first rally point (input, untimed).
    sgl::Rng rng(sgl::Mix64(o_.seed ^ 0x67726f7570ULL));
    for (int a = 0; a < kArmies; ++a) {
      goal_now_[a] = a % cfg_.num_rally;
      Regroup(a, goal_now_[a], &rng);
    }
    std::copy(goal_now_, goal_now_ + kArmies, goal_prev_);
    return Status::OK();
  }
  Engine& engine() override { return *engine_; }
  std::string Source() const override {
    return sgl::ArmiesWorkload::Source();
  }
  EngineOptions CreateOptions() const override {
    EngineOptions eo = eo_;
    eo.exec.telemetry = nullptr;
    return eo;
  }
  int round_ticks() const override { return kArmies * kRetargetEvery; }
  int warmup_rounds() const override { return 1; }

  void Input(int64_t round, int t) override {
    std::copy(goal_now_, goal_now_ + kArmies, goal_prev_);
    if (t % kRetargetEvery != 0) return;
    const int a = t / kRetargetEvery;
    sgl::Rng rng(sgl::Mix64(o_.seed ^ (static_cast<uint64_t>(round) << 8) ^
                            static_cast<uint64_t>(a)));
    Regroup(a, (goal_now_[a] + 1) % cfg_.num_rally, &rng);
  }
  bool Sampled(int64_t, int) const override { return true; }
  void Snapshot() override {
    SpanScope span(o_.spans, "check.snapshot");
    before_ = ReadArmies(*engine_);
  }
  std::string Verify() override {
    SpanScope span(o_.spans, "check.verify");
    const size_t n = army_.size();
    goal_x_.resize(n);
    goal_y_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const auto& rally = rallies_[static_cast<size_t>(goal_prev_[army_[i]])];
      goal_x_[i] = map_.CenterX(rally.first);
      goal_y_[i] = map_.CenterY(rally.second);
    }
    return checker_.CheckStep(before_, ReadArmies(*engine_), goal_x_,
                              goal_y_);
  }

 private:
  /// Places army `a` on kRegroupCells random open cells around the rally
  /// point it was heading to and sends it to rally point `to`. Writes the
  /// waypoint too: movement follows it (x = waypoint_x), so the soldiers
  /// stay put until the pathfinder plans the next step.
  void Regroup(int a, int to, sgl::Rng* rng) {
    const auto& home = rallies_[static_cast<size_t>(goal_now_[a])];
    const auto& dest = rallies_[static_cast<size_t>(to)];
    goal_now_[a] = to;
    const sgl::ClassId cls = engine_->catalog().Find("Soldier");
    sgl::EntityTable& table = engine_->world().table(cls);
    const sgl::ClassDef& def = engine_->catalog().Get(cls);
    sgl::NumberColumn col[6] = {
        table.Num(def.FindState("x")),  table.Num(def.FindState("waypoint_x")),
        table.Num(def.FindState("y")),  table.Num(def.FindState("waypoint_y")),
        table.Num(def.FindState("tx")), table.Num(def.FindState("ty"))};
    std::pair<int, int> cells[kRegroupCells];
    for (auto& [cx, cy] : cells) {
      do {
        cx = home.first +
             static_cast<int>(rng->UniformInt(-kRegroupRadius, kRegroupRadius));
        cy = home.second +
             static_cast<int>(rng->UniformInt(-kRegroupRadius, kRegroupRadius));
      } while (map_.Blocked(cx, cy));
    }
    const std::vector<size_t>& rows = army_rows_[static_cast<size_t>(a)];
    for (size_t k = 0; k < rows.size(); ++k) {
      const size_t i = rows[k];
      const auto& [cx, cy] = cells[k % kRegroupCells];
      col[0].at(i) = col[1].at(i) = map_.CenterX(cx);
      col[2].at(i) = col[3].at(i) = map_.CenterY(cy);
      col[4].at(i) = map_.CenterX(dest.first);
      col[5].at(i) = map_.CenterY(dest.second);
    }
  }

  static sgl::ArmiesConfig Config(const ScenarioOptions& o) {
    sgl::ArmiesConfig cfg;
    cfg.num_units = o.size > 0 ? o.size : 16384;
    cfg.num_armies = kArmies;
    cfg.map_w = 256;
    cfg.map_h = 256;
    cfg.num_rally = kArmies;
    // One fixed map and set of rally points for every seed: the seed drives
    // where the soldiers of a regrouping army stand. A seeded map changes
    // route lengths, and with them the size of every retarget's burst of
    // searches, far more than the run-to-run noise.
    cfg.seed = 0x61726d696573ULL;
    return cfg;
  }

  ScenarioOptions o_;
  sgl::ArmiesConfig cfg_;
  EngineOptions eo_;
  sgl::GridMap map_;
  ArmiesChecker checker_;
  std::vector<std::pair<int, int>> rallies_;
  std::unique_ptr<Engine> engine_;
  std::vector<int> army_;
  std::vector<std::vector<size_t>> army_rows_;
  /// Rally index per army at the start of this tick / the previous tick.
  int goal_now_[kArmies] = {};
  int goal_prev_[kArmies] = {};
  ArmiesState before_;
  std::vector<double> goal_x_, goal_y_;
};

}  // namespace

std::unique_ptr<Scenario> MakeScenario(const std::string& name,
                                       const ScenarioOptions& options) {
  if (name == "rts_waves") return std::make_unique<RtsScenario>(options);
  if (name == "traffic_sharded") {
    return std::make_unique<TrafficScenario>(options);
  }
  if (name == "market_boot") return std::make_unique<MarketScenario>(options);
  if (name == "armies_async") {
    return std::make_unique<ArmiesScenario>(options);
  }
  return nullptr;
}

}  // namespace perfbench
