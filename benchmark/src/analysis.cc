#include "analysis.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

namespace fedbench {

namespace {

Part PartOf(const Span& s) {
  if (std::strcmp(s.name, "Evaluate") == 0) return kEval;
  if (std::strcmp(s.name, "ServerUpdate") == 0 ||
      std::strcmp(s.name, "AggregateOne") == 0) {
    return kServer;
  }
  if (std::strcmp(s.layer, "comm") == 0) return kCodec;
  if (std::strcmp(s.name, "Select") == 0) return kSelect;
  if (std::strcmp(s.name, "ClientUpdate") == 0) return kClient;
  if (std::strcmp(s.name, "CollectWave") == 0) return kCollect;
  return kOther;
}

}  // namespace

const std::array<const char*, kNumParts>& PartNames() {
  static const std::array<const char*, kNumParts> names = {
      "eval", "server", "codec", "select", "client", "collect", "other"};
  return names;
}

std::vector<RoundParts> AttributeRounds(const std::vector<Span>& spans,
                                        const std::vector<double>& bounds) {
  struct Edge {
    double t;
    int part;
    int delta;
  };
  std::vector<Edge> edges;
  for (const Span& s : spans) {
    const Part part = PartOf(s);
    if (part == kOther) continue;
    edges.push_back({s.start, part, +1});
    edges.push_back({s.end, part, -1});
  }
  for (const double b : bounds) edges.push_back({b, kOther, 0});
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.t < b.t; });

  std::vector<RoundParts> rounds(bounds.size() > 1 ? bounds.size() - 1 : 0);
  std::array<int, kNumParts> active{};
  double prev = edges.empty() ? 0.0 : edges.front().t;
  for (const Edge& e : edges) {
    // The segment [prev, e.t) lies in round r: the last bound <= prev.
    if (e.t > prev && !rounds.empty()) {
      const auto it = std::upper_bound(bounds.begin(), bounds.end(), prev);
      const long r = static_cast<long>(it - bounds.begin()) - 1;
      if (r >= 0 && r < static_cast<long>(rounds.size())) {
        int part = kOther;
        for (int p = 0; p < kOther; ++p) {
          if (active[static_cast<size_t>(p)] > 0) {
            part = p;
            break;
          }
        }
        rounds[static_cast<size_t>(r)].parts[static_cast<size_t>(part)] +=
            e.t - prev;
      }
    }
    active[static_cast<size_t>(e.part)] += e.delta;
    prev = e.t;
  }
  for (size_t r = 0; r < rounds.size(); ++r) {
    rounds[r].wall = bounds[r + 1] - bounds[r];
  }
  return rounds;
}

std::map<std::string, double> LayerSelfTime(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, double> child_time;
  for (const Span& s : spans) {
    if (s.parent >= 0) child_time[s.parent] += s.duration();
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    const auto it = child_time.find(s.id);
    const double children = it == child_time.end() ? 0.0 : it->second;
    self[s.layer] += s.duration() - children;
  }
  return self;
}

}  // namespace fedbench
