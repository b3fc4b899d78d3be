// The one Metrics comparator of the bitwise tests: every key the
// Metrics visitor yields (core/metrics.h for_each_field, so every
// hicc.sweep.v1 metrics key) is compared exactly, except the keys a
// caller names. A field added to the visitor is compared everywhere.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fmt.h"
#include "core/metrics.h"

namespace hicc {

/// Every metrics key with its value as text: doubles in round-trip
/// form, so equal text means equal values.
inline std::vector<std::pair<std::string, std::string>> metric_texts(const Metrics& m) {
  std::vector<std::pair<std::string, std::string>> out;
  for_each_field(m, [&out](const char* key, const auto& v) {
    using T = std::decay_t<decltype(v)>;
    std::ostringstream text;
    if constexpr (std::is_same_v<T, double>) {
      put_double(text, v);
    } else if constexpr (std::is_same_v<T, RunStatus>) {
      text << to_string(v);
    } else {
      text << v;
    }
    out.emplace_back(key, text.str());
  });
  return out;
}

/// Expects `a` and `b` to agree on every metrics key but `except`.
inline void expect_same_metrics(const Metrics& a, const Metrics& b,
                                std::initializer_list<std::string_view> except = {}) {
  const auto ta = metric_texts(a);
  const auto tb = metric_texts(b);
  for (std::size_t i = 0; i < ta.size(); ++i) {
    const std::string& key = ta[i].first;
    if (std::find(except.begin(), except.end(), key) != except.end()) continue;
    EXPECT_EQ(ta[i].second, tb[i].second) << "metrics." << key;
  }
}

}  // namespace hicc
