// Independent output checks for the scenario tick benchmark.
//
// Each checker is written from the scenario's SGL source or from a
// property the method must have, never from the engine's code paths and
// never against a stored copy of an earlier run's output:
//
//   * RTS and traffic: a plain loop recomputes the next tick from a
//     snapshot of the state columns (update rules read one pre-update
//     snapshot; sum/avg/min/last combinators; an avg with no writes reads
//     as 0; `%` is fmod) and every updated field must match within a
//     tolerance.
//   * Market: gold is conserved, ownership stays consistent, items move
//     only to a trader that wanted them this tick, each trader's gold
//     moves by item_value × (sold − bought), and owner changes never
//     exceed the number of contested items.
//   * Armies: every soldier stands on an open in-map cell and each tick's
//     step is at most one cell and, measured by a 4-neighbour BFS to the
//     goal in force when the step was planned, lowers the distance by
//     exactly one or leaves the soldier in place.
//
// Every check returns "" on success and a one-line description of the
// first violation otherwise. The state structs are plain copies so the
// self-test can feed the checkers perturbed values.

#ifndef PERFBENCH_SRC_CHECKS_H_
#define PERFBENCH_SRC_CHECKS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/engine/engine.h"

namespace perfbench {

// --- RTS: class Unit, script Combat, handler Flee -----------------------
struct RtsState {
  std::vector<double> player, x, y, health, range, speed, attack, engaged;
};
RtsState ReadRts(sgl::Engine& engine);
/// The next tick's state, by an all-pairs loop over every unit pair.
RtsState StepRts(const RtsState& s);
std::string CompareRts(const RtsState& expected, const RtsState& actual,
                       double tol);

// --- Traffic: class Vehicle, script Follow ------------------------------
struct TrafficState {
  std::vector<double> lane, x, v, vmax, horizon;
};
TrafficState ReadTraffic(sgl::Engine& engine);
/// The next tick's state, by an all-pairs loop over the vehicles of each
/// lane (the script's join requires equal lanes, so pairs across lanes
/// never match).
TrafficState StepTraffic(const TrafficState& s, double road_length);
std::string CompareTraffic(const TrafficState& expected,
                           const TrafficState& actual, double tol);

// --- Market: classes Trader and Item, script Buy ------------------------
struct MarketState {
  std::vector<sgl::EntityId> trader_ids;
  std::vector<double> gold;
  std::vector<sgl::EntityId> want;
  std::vector<sgl::EntityId> item_ids;
  std::vector<sgl::EntityId> owner;
};
MarketState ReadMarket(sgl::Engine& engine);
/// One tick's trades: `before` is read after the wants were assigned,
/// `after` after the tick. Rows must be the same entities in both.
std::string CheckMarketTick(const MarketState& before,
                            const MarketState& after, double item_value,
                            double total_gold);
/// Whole-world invariants: single, consistent ownership and no negative
/// gold.
std::string CheckMarketInvariants(sgl::Engine& engine);

// --- Armies: class Soldier, async pathfinder ------------------------------
struct ArmiesState {
  std::vector<double> x, y;
};
ArmiesState ReadArmies(sgl::Engine& engine);

class ArmiesChecker {
 public:
  explicit ArmiesChecker(sgl::GridMap map) : map_(std::move(map)) {}

  /// `before`/`after`: positions around one tick. `goal_x`/`goal_y`: each
  /// soldier's goal at the start of the previous tick (movement follows
  /// the waypoint planned then).
  std::string CheckStep(const ArmiesState& before, const ArmiesState& after,
                        const std::vector<double>& goal_x,
                        const std::vector<double>& goal_y);

 private:
  /// BFS distance field to cell (gx, gy); -1 = unreachable or blocked.
  const std::vector<int32_t>& Distances(int gx, int gy);

  sgl::GridMap map_;
  std::unordered_map<int64_t, std::vector<int32_t>> dist_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CHECKS_H_
