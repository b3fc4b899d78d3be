// Fixture: hot-node-container (file is opted in via the marker).
// hicc-lint: hotpath
#pragma once

#include <deque>
#include <list>
#include <map>
#include <memory_resource>
#include <unordered_set>
#include <vector>

namespace fixture {

struct Queues {
  std::map<long, int> by_seq;                 // line 15: flagged
  std::pmr::map<long, int> pooled{};          // line 16: flagged, pmr too
  std::deque<int> backlog;                    // line 17: flagged
  std::list<std::pair<int, int>> retry = {};  // line 18: flagged
  std::unordered_set<long> seen;              // line 19: flagged

  // hicc-lint: allow(hot-node-container) -- config-time registry,
  // filled once before the run starts.
  std::map<int, int> registry;

  const std::map<long, int>& view;  // a reference owns no nodes
  std::vector<int> slab;            // not node-based

  std::map<long, int> snapshot() const;  // a function, not a member
};

}  // namespace fixture
