#include "perfbench/src/checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <unordered_set>

#include "src/sim/market.h"

namespace perfbench {
namespace {

using sgl::ClassId;
using sgl::EntityId;
using sgl::Engine;
using sgl::EntityTable;

std::vector<double> NumCol(Engine& engine, const char* cls,
                           const char* field) {
  const ClassId c = engine.catalog().Find(cls);
  const EntityTable& table = engine.world().table(c);
  const sgl::ConstNumberColumn col =
      table.Num(engine.catalog().Get(c).FindState(field));
  std::vector<double> out(table.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = col[i];
  return out;
}

std::vector<EntityId> RefColumn(Engine& engine, const char* cls,
                                const char* field) {
  const ClassId c = engine.catalog().Find(cls);
  const EntityTable& table = engine.world().table(c);
  const EntityId* col =
      table.RefCol(engine.catalog().Get(c).FindState(field));
  return std::vector<EntityId>(col, col + table.size());
}

std::vector<EntityId> Ids(Engine& engine, const char* cls) {
  return engine.world().table(engine.catalog().Find(cls)).ids();
}

double Clamp(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

std::string Describe(const char* what, size_t row, double want,
                     double got) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s row %zu: expected %.17g, got %.17g",
                what, row, want, got);
  return buf;
}

/// First field/row whose values differ by more than `tol`.
std::string CompareField(const char* name, const std::vector<double>& want,
                         const std::vector<double>& got, double tol) {
  if (want.size() != got.size()) {
    return std::string(name) + ": row count differs";
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (!(std::fabs(want[i] - got[i]) <= tol)) {
      return Describe(name, i, want[i], got[i]);
    }
  }
  return "";
}

}  // namespace

// --- RTS -------------------------------------------------------------------

RtsState ReadRts(Engine& engine) {
  RtsState s;
  s.player = NumCol(engine, "Unit", "player");
  s.x = NumCol(engine, "Unit", "x");
  s.y = NumCol(engine, "Unit", "y");
  s.health = NumCol(engine, "Unit", "health");
  s.range = NumCol(engine, "Unit", "range");
  s.speed = NumCol(engine, "Unit", "speed");
  s.attack = NumCol(engine, "Unit", "attack");
  s.engaged = NumCol(engine, "Unit", "engaged");
  return s;
}

RtsState StepRts(const RtsState& s) {
  const size_t n = s.x.size();
  std::vector<double> damage(n, 0.0), vx_sum(n, 0.0), vy_sum(n, 0.0);
  std::vector<int> vx_writes(n, 0), vy_writes(n, 0);
  std::vector<double> foes_seen(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    // script Combat: accum foes with sum over every Unit w.
    const double xlo = s.x[i] - s.range[i], xhi = s.x[i] + s.range[i];
    const double ylo = s.y[i] - s.range[i], yhi = s.y[i] + s.range[i];
    double foes = 0.0;
    for (size_t j = 0; j < n; ++j) {
      if (s.x[j] >= xlo && s.x[j] <= xhi && s.y[j] >= ylo &&
          s.y[j] <= yhi && s.player[j] != s.player[i] && s.health[j] > 0) {
        foes += 1.0;
        damage[j] += s.attack[i] / 8;
      }
    }
    foes_seen[i] = foes;
    if (foes == 0) {
      vx_sum[i] += s.x[i] < 500 ? s.speed[i] : -s.speed[i];
      vy_sum[i] += s.y[i] < 500 ? s.speed[i] : -s.speed[i];
      ++vx_writes[i];
      ++vy_writes[i];
    }
    // when Unit Flee (health > 0 && health < 25 && engaged > 0).
    if (s.health[i] > 0 && s.health[i] < 25 && s.engaged[i] > 0) {
      vx_sum[i] += s.player[i] == 0 ? -3.0 : 3.0;
      ++vx_writes[i];
    }
  }
  RtsState next = s;
  for (size_t i = 0; i < n; ++i) {
    const double vx = vx_writes[i] > 0 ? vx_sum[i] / vx_writes[i] : 0.0;
    const double vy = vy_writes[i] > 0 ? vy_sum[i] / vy_writes[i] : 0.0;
    next.x[i] = Clamp(s.x[i] + vx, 0, 1000);
    next.y[i] = Clamp(s.y[i] + vy, 0, 1000);
    next.health[i] = std::max(s.health[i] - damage[i], 0.0);
    // foes_seen is assigned for every unit, so engaged = min(foes, 1).
    next.engaged[i] = std::min(foes_seen[i], 1.0);
  }
  return next;
}

std::string CompareRts(const RtsState& expected, const RtsState& actual,
                       double tol) {
  const std::pair<const char*, const std::vector<double> RtsState::*>
      fields[] = {{"player", &RtsState::player}, {"x", &RtsState::x},
                  {"y", &RtsState::y},           {"health", &RtsState::health},
                  {"range", &RtsState::range},   {"speed", &RtsState::speed},
                  {"attack", &RtsState::attack},
                  {"engaged", &RtsState::engaged}};
  for (const auto& [name, member] : fields) {
    std::string err = CompareField(name, expected.*member, actual.*member, tol);
    if (!err.empty()) return "rts " + err;
  }
  return "";
}

// --- Traffic ---------------------------------------------------------------

TrafficState ReadTraffic(Engine& engine) {
  TrafficState s;
  s.lane = NumCol(engine, "Vehicle", "lane");
  s.x = NumCol(engine, "Vehicle", "x");
  s.v = NumCol(engine, "Vehicle", "v");
  s.vmax = NumCol(engine, "Vehicle", "vmax");
  s.horizon = NumCol(engine, "Vehicle", "horizon");
  return s;
}

TrafficState StepTraffic(const TrafficState& s, double road_length) {
  const size_t n = s.x.size();
  std::map<double, std::vector<size_t>> lanes;
  for (size_t i = 0; i < n; ++i) lanes[s.lane[i]].push_back(i);
  TrafficState next = s;
  for (const auto& [lane, rows] : lanes) {
    for (size_t i : rows) {
      // accum gap with min over Vehicle w: no match leaves gap at 0.
      double gap = 0.0;
      bool any = false;
      for (size_t j : rows) {
        if (s.lane[j] == s.lane[i] && s.x[j] >= s.x[i] + 0.001 &&
            s.x[j] <= s.x[i] + s.horizon[i]) {
          const double d = s.x[j] - s.x[i];
          gap = any ? std::min(gap, d) : d;
          any = true;
        }
      }
      double accel;
      if (gap > 0 && gap < 10) {
        accel = -1;
      } else if (gap > 0 && gap < 20) {
        accel = -0.2;
      } else {
        accel = 0.5;
      }
      next.v[i] = Clamp(s.v[i] + accel, 0, s.vmax[i]);
      next.x[i] = std::fmod(s.x[i] + s.v[i], road_length);
    }
  }
  return next;
}

std::string CompareTraffic(const TrafficState& expected,
                           const TrafficState& actual, double tol) {
  const std::pair<const char*, const std::vector<double> TrafficState::*>
      fields[] = {{"lane", &TrafficState::lane},
                  {"x", &TrafficState::x},
                  {"v", &TrafficState::v},
                  {"vmax", &TrafficState::vmax},
                  {"horizon", &TrafficState::horizon}};
  for (const auto& [name, member] : fields) {
    std::string err = CompareField(name, expected.*member, actual.*member, tol);
    if (!err.empty()) return "traffic " + err;
  }
  return "";
}

// --- Market ----------------------------------------------------------------

MarketState ReadMarket(Engine& engine) {
  MarketState s;
  s.trader_ids = Ids(engine, "Trader");
  s.gold = NumCol(engine, "Trader", "gold");
  s.want = RefColumn(engine, "Trader", "want");
  s.item_ids = Ids(engine, "Item");
  s.owner = RefColumn(engine, "Item", "owner");
  return s;
}

std::string CheckMarketTick(const MarketState& before,
                            const MarketState& after, double item_value,
                            double total_gold) {
  if (before.trader_ids != after.trader_ids ||
      before.item_ids != after.item_ids) {
    return "market: entity rows changed during the tick";
  }
  std::unordered_map<EntityId, size_t> trader_row;
  for (size_t t = 0; t < before.trader_ids.size(); ++t) {
    trader_row[before.trader_ids[t]] = t;
  }
  double gold_sum = 0.0;
  for (double g : after.gold) gold_sum += g;
  if (gold_sum != total_gold) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "market: total gold %.17g, expected %.17g", gold_sum,
                  total_gold);
    return buf;
  }
  std::unordered_set<EntityId> contested;
  for (EntityId w : before.want) {
    if (w != sgl::kNullEntity) contested.insert(w);
  }
  std::vector<int64_t> sold(before.trader_ids.size(), 0);
  std::vector<int64_t> bought(before.trader_ids.size(), 0);
  size_t changes = 0;
  for (size_t i = 0; i < before.item_ids.size(); ++i) {
    const EntityId from = before.owner[i], to = after.owner[i];
    if (from == to) continue;
    ++changes;
    auto to_row = trader_row.find(to);
    if (to_row == trader_row.end() ||
        before.want[to_row->second] != before.item_ids[i]) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "market: item %lld moved to trader %lld, which did not "
                    "want it",
                    static_cast<long long>(before.item_ids[i]),
                    static_cast<long long>(to));
      return buf;
    }
    ++bought[to_row->second];
    auto from_row = trader_row.find(from);
    if (from_row != trader_row.end()) ++sold[from_row->second];
  }
  if (changes > contested.size()) {
    return "market: " + std::to_string(changes) + " owner changes for " +
           std::to_string(contested.size()) + " contested items";
  }
  for (size_t t = 0; t < before.trader_ids.size(); ++t) {
    const double want_delta =
        item_value * static_cast<double>(sold[t] - bought[t]);
    const double delta = after.gold[t] - before.gold[t];
    if (delta != want_delta) return Describe("market gold delta", t,
                                             want_delta, delta);
  }
  return "";
}

std::string CheckMarketInvariants(Engine& engine) {
  if (!sgl::MarketWorkload::OwnershipConsistent(&engine)) {
    return "market: ownership inconsistent";
  }
  if (!sgl::MarketWorkload::NoNegativeGold(&engine)) {
    return "market: negative gold";
  }
  return "";
}

// --- Armies ----------------------------------------------------------------

ArmiesState ReadArmies(Engine& engine) {
  ArmiesState s;
  s.x = NumCol(engine, "Soldier", "x");
  s.y = NumCol(engine, "Soldier", "y");
  return s;
}

const std::vector<int32_t>& ArmiesChecker::Distances(int gx, int gy) {
  const int w = map_.width(), h = map_.height();
  const int64_t key = static_cast<int64_t>(gy) * w + gx;
  auto it = dist_.find(key);
  if (it != dist_.end()) return it->second;
  std::vector<int32_t>& d = dist_[key];
  d.assign(static_cast<size_t>(w) * static_cast<size_t>(h), -1);
  if (map_.Blocked(gx, gy)) return d;
  std::deque<std::pair<int, int>> queue;
  d[static_cast<size_t>(key)] = 0;
  queue.emplace_back(gx, gy);
  const int dx[4] = {1, -1, 0, 0}, dy[4] = {0, 0, 1, -1};
  while (!queue.empty()) {
    const auto [cx, cy] = queue.front();
    queue.pop_front();
    const int32_t here = d[static_cast<size_t>(cy) * w + cx];
    for (int k = 0; k < 4; ++k) {
      const int nx = cx + dx[k], ny = cy + dy[k];
      if (map_.Blocked(nx, ny)) continue;
      int32_t& nd = d[static_cast<size_t>(ny) * w + nx];
      if (nd >= 0) continue;
      nd = here + 1;
      queue.emplace_back(nx, ny);
    }
  }
  return d;
}

std::string ArmiesChecker::CheckStep(const ArmiesState& before,
                                     const ArmiesState& after,
                                     const std::vector<double>& goal_x,
                                     const std::vector<double>& goal_y) {
  const size_t n = after.x.size();
  if (before.x.size() != n || goal_x.size() != n) {
    return "armies: row count differs";
  }
  const int w = map_.width();
  for (size_t i = 0; i < n; ++i) {
    const int ax = map_.CellX(after.x[i]), ay = map_.CellY(after.y[i]);
    if (map_.Blocked(ax, ay)) {
      return "armies: soldier row " + std::to_string(i) +
             " stands on a blocked or off-map cell";
    }
    const int bx = map_.CellX(before.x[i]), by = map_.CellY(before.y[i]);
    const int step = std::abs(ax - bx) + std::abs(ay - by);
    if (step > 1) {
      return "armies: soldier row " + std::to_string(i) + " moved " +
             std::to_string(step) + " cells in one tick";
    }
    if (step == 0) continue;
    const std::vector<int32_t>& d =
        Distances(map_.CellX(goal_x[i]), map_.CellY(goal_y[i]));
    const int32_t d0 = d[static_cast<size_t>(by) * w + bx];
    const int32_t d1 = d[static_cast<size_t>(ay) * w + ax];
    if (d0 < 0 || d1 != d0 - 1) {
      return "armies: soldier row " + std::to_string(i) +
             " stepped from goal distance " + std::to_string(d0) + " to " +
             std::to_string(d1);
    }
  }
  return "";
}

}  // namespace perfbench
