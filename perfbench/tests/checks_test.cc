// Checker sensitivity test: each independent check passes on the engine's
// real output and reports a failure when fed one perturbed value.
//
//   cmake --build .bench_build --target perfbench_checks_test
//   .bench_build/perfbench_checks_test

#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/src/checks.h"
#include "perfbench/src/scenarios.h"
#include "src/sim/armies.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "[ OK ]" : "[FAIL]", what.c_str());
  if (!ok) ++g_failures;
}

std::unique_ptr<Scenario> Warm(const std::string& name, int size) {
  ScenarioOptions o;
  o.seed = 5;
  o.size = size;
  o.workdir = ".";
  std::unique_ptr<Scenario> sc = MakeScenario(name, o);
  Stopwatch setup;
  BuildTimes times;
  if (!sc->Build(&setup, &times).ok()) return nullptr;
  for (int r = 0; r < sc->warmup_rounds(); ++r) {
    for (int t = 0; t < sc->round_ticks(); ++t) {
      sc->Input(r, t);
      if (!sc->engine().Tick().ok()) return nullptr;
    }
  }
  return sc;
}

/// Runs one measured round, checking every tick the scenario samples.
bool RoundPasses(Scenario* sc, int64_t round) {
  bool any = false;
  for (int t = 0; t < sc->round_ticks(); ++t) {
    sc->Input(round, t);
    const bool sampled = sc->Sampled(round, t);
    if (sampled) sc->Snapshot();
    if (!sc->engine().Tick().ok()) return false;
    if (sampled) {
      any = true;
      const std::string err = sc->Verify();
      if (!err.empty()) {
        std::printf("  %s\n", err.c_str());
        return false;
      }
    }
  }
  return any;
}

std::vector<double> Column(sgl::Engine& engine, const char* cls,
                           const char* field) {
  const sgl::ClassId c = engine.catalog().Find(cls);
  const sgl::EntityTable& table = engine.world().table(c);
  const sgl::ConstNumberColumn col =
      table.Num(engine.catalog().Get(c).FindState(field));
  std::vector<double> out(table.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = col[i];
  return out;
}

void TestRts() {
  auto sc = Warm("rts_waves", 1024);
  Expect(sc != nullptr, "rts: builds and warms up");
  if (sc == nullptr) return;
  Expect(RoundPasses(sc.get(), 1), "rts: sampled ticks pass");
  // A battle tick: cluster, then compare one tick against the reference.
  for (int t = 0; t <= 25; ++t) {
    sc->Input(2, t);
    if (t < 25) (void)sc->engine().Tick();
  }
  const RtsState before = ReadRts(sc->engine());
  (void)sc->engine().Tick();
  RtsState actual = ReadRts(sc->engine());
  const RtsState expected = StepRts(before);
  Expect(CompareRts(expected, actual, 1e-9).empty(),
         "rts: battle tick matches the reference");
  actual.health[17] += 0.5;
  Expect(!CompareRts(expected, actual, 1e-9).empty(),
         "rts: a unit's health off by 0.5 is reported");
}

void TestTraffic() {
  auto sc = Warm("traffic_sharded", 2500);
  Expect(sc != nullptr, "traffic: builds and warms up");
  if (sc == nullptr) return;
  Expect(RoundPasses(sc.get(), 3), "traffic: sampled ticks pass");
  const TrafficState before = ReadTraffic(sc->engine());
  (void)sc->engine().Tick();
  TrafficState actual = ReadTraffic(sc->engine());
  const TrafficState expected = StepTraffic(before, 10000.0);
  Expect(CompareTraffic(expected, actual, 1e-9).empty(),
         "traffic: tick matches the reference");
  actual.x[41] += 0.25;
  Expect(!CompareTraffic(expected, actual, 1e-9).empty(),
         "traffic: a vehicle's shifted x is reported");
}

void TestMarket() {
  auto sc = Warm("market_boot", 256);
  Expect(sc != nullptr, "market: boots from its save and warms up");
  if (sc == nullptr) return;
  Expect(RoundPasses(sc.get(), 2), "market: sampled ticks pass");
  sc->Input(3, 0);
  const MarketState before = ReadMarket(sc->engine());
  (void)sc->engine().Tick();
  MarketState after = ReadMarket(sc->engine());
  Expect(CheckMarketTick(before, after, 10.0, 100.0 * 256).empty(),
         "market: tick passes the trade checks");
  // Hand item 0 to a trader that neither owns nor wanted it.
  for (size_t t = 0; t < after.trader_ids.size(); ++t) {
    if (before.want[t] != after.item_ids[0] &&
        after.trader_ids[t] != after.owner[0]) {
      after.owner[0] = after.trader_ids[t];
      break;
    }
  }
  Expect(!CheckMarketTick(before, after, 10.0, 100.0 * 256).empty(),
         "market: an item handed to a trader who did not want it is "
         "reported");
  Expect(sc->FinishRun().empty(),
         "market: a booted world ticks like the directly built world");
}

void TestArmies() {
  auto sc = Warm("armies_async", 512);
  Expect(sc != nullptr, "armies: builds and warms up");
  if (sc == nullptr) return;
  Expect(RoundPasses(sc.get(), 1), "armies: sampled ticks pass");

  // A world of its own with fixed goals, so the goal in force is the
  // tx/ty every soldier holds.
  sgl::ArmiesConfig cfg;
  cfg.num_units = 512;
  cfg.map_w = 64;
  cfg.map_h = 64;
  sgl::EngineOptions eo;
  eo.exec.jobs.num_workers = 2;
  auto built = sgl::ArmiesWorkload::Build(cfg, eo);
  Expect(built.ok(), "armies: fixed-goal world builds");
  if (!built.ok()) return;
  sgl::Engine& engine = *built.value();
  const std::vector<double> gx = Column(engine, "Soldier", "tx");
  const std::vector<double> gy = Column(engine, "Soldier", "ty");
  ArmiesChecker checker(sgl::ArmiesWorkload::BuildMap(cfg));
  std::string err;
  ArmiesState before, after;
  for (int t = 0; t < 40 && err.empty(); ++t) {
    before = ReadArmies(engine);
    (void)engine.Tick();
    after = ReadArmies(engine);
    err = checker.CheckStep(before, after, gx, gy);
  }
  Expect(err.empty(), "armies: 40 fixed-goal ticks pass the step check");
  after.x[9] = before.x[9] + 2.0;
  after.y[9] = before.y[9];
  Expect(!checker.CheckStep(before, after, gx, gy).empty(),
         "armies: a soldier moved two cells is reported");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestRts();
  perfbench::TestTraffic();
  perfbench::TestMarket();
  perfbench::TestArmies();
  std::printf("%d failure(s)\n", perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
