// Fixture: a file without the hotpath marker keeps its node containers.
#pragma once

#include <map>

namespace fixture {

struct ColdConfig {
  std::map<int, int> per_port;
};

}  // namespace fixture
