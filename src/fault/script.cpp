#include "fault/script.h"

#include <array>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/fmt.h"

namespace hicc::fault {
namespace {

constexpr std::array<std::pair<std::string_view, FaultKind>, 10> kKindNames = {{
    {"net.link_down", FaultKind::kNetLinkDown},
    {"net.rate", FaultKind::kNetRate},
    {"net.loss", FaultKind::kNetLoss},
    {"nic.credit_stall", FaultKind::kNicCreditStall},
    {"nic.buffer_squeeze", FaultKind::kNicBufferSqueeze},
    {"iommu.storm", FaultKind::kIommuStorm},
    {"mem.antagonist", FaultKind::kMemAntagonist},
    {"mem.ddio_squeeze", FaultKind::kMemDdioSqueeze},
    {"host.deschedule", FaultKind::kHostDeschedule},
    {"transport.churn", FaultKind::kTransportChurn},
}};

bool lookup_kind(std::string_view name, FaultKind* out) {
  for (const auto& [spec, kind] : kKindNames) {
    if (spec == name) {
      *out = kind;
      return true;
    }
  }
  return false;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

/// Parses "12", "12us", "3.5ms", "2s", "40ns" into a TimePs.
bool parse_time(std::string_view text, TimePs* out) {
  const std::string buf(text);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end == buf.c_str()) return false;
  const std::string_view unit = trim(std::string_view(end));
  if (unit.empty() || unit == "us") {
    *out = TimePs::from_us(v);
  } else if (unit == "ms") {
    *out = TimePs::from_ms(v);
  } else if (unit == "s") {
    *out = TimePs::from_sec(v);
  } else if (unit == "ns") {
    *out = TimePs::from_ns(v);
  } else {
    return false;
  }
  return true;
}

void put_time(std::ostream& os, TimePs t) {
  // Emit in the largest unit that keeps the value integral in ps terms,
  // preferring us (the grammar's default unit).
  const std::int64_t ps = t.ps();
  if (ps % 1'000'000 == 0) {
    os << ps / 1'000'000 << "us";
  } else if (ps % 1'000 == 0) {
    os << ps / 1'000 << "ns";
  } else {
    put_double(os, t.us());
    os << "us";
  }
}

}  // namespace

std::string_view to_string(FaultKind kind) {
  for (const auto& [spec, k] : kKindNames) {
    if (k == kind) return spec;
  }
  return "unknown";
}

std::string FaultScript::to_spec() const {
  std::ostringstream os;
  bool first_event = true;
  for (const FaultEvent& e : events) {
    if (!first_event) os << ';';
    first_event = false;
    os << to_string(e.kind) << '@';
    put_time(os, e.at);
    if (e.duration != TimePs{}) {
      os << '+';
      put_time(os, e.duration);
    }
    if (e.period != TimePs{}) {
      os << '/';
      put_time(os, e.period);
    }
    for (const auto& [key, value] : e.params) {
      os << ',' << key << '=';
      put_double(os, value);
    }
  }
  return os.str();
}

ParseResult parse_script(std::string_view spec) {
  ParseResult result;
  int index = 0;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t sep = spec.find(';', pos);
    std::string_view entry =
        trim(spec.substr(pos, sep == std::string_view::npos ? sep : sep - pos));
    pos = sep == std::string_view::npos ? spec.size() + 1 : sep + 1;
    if (entry.empty()) continue;  // tolerate empty segments / trailing ';'
    ++index;
    const std::string where = "entry " + std::to_string(index) + " ('" + std::string(entry) + "')";

    FaultEvent ev;
    // Split off the comma-separated params; head is kind@times.
    std::string_view head = entry;
    std::string_view rest;
    if (const std::size_t comma = entry.find(','); comma != std::string_view::npos) {
      head = entry.substr(0, comma);
      rest = entry.substr(comma + 1);
    }

    const std::size_t at_pos = head.find('@');
    if (at_pos == std::string_view::npos) {
      result.errors.push_back(where + ": missing '@<time>' (grammar: kind@t[+dur][/period])");
      continue;
    }
    const std::string_view kind_name = trim(head.substr(0, at_pos));
    if (!lookup_kind(kind_name, &ev.kind)) {
      std::string known;
      for (const auto& [spec_name, _] : kKindNames) {
        if (!known.empty()) known += ", ";
        known += spec_name;
      }
      result.errors.push_back(where + ": unknown fault kind '" + std::string(kind_name) +
                              "' (known: " + known + ")");
      continue;
    }

    // times := at ['+' duration] ['/' period]
    std::string_view times = head.substr(at_pos + 1);
    std::string_view period_text;
    std::string_view duration_text;
    if (const std::size_t slash = times.find('/'); slash != std::string_view::npos) {
      period_text = times.substr(slash + 1);
      times = times.substr(0, slash);
    }
    if (const std::size_t plus = times.find('+'); plus != std::string_view::npos) {
      duration_text = times.substr(plus + 1);
      times = times.substr(0, plus);
    }
    bool entry_ok = true;
    if (!parse_time(trim(times), &ev.at)) {
      result.errors.push_back(where + ": bad activation time '" + std::string(trim(times)) +
                              "' (want number with optional ns/us/ms/s suffix)");
      entry_ok = false;
    }
    if (!duration_text.empty() && !parse_time(trim(duration_text), &ev.duration)) {
      result.errors.push_back(where + ": bad duration '" + std::string(trim(duration_text)) + "'");
      entry_ok = false;
    }
    if (!period_text.empty() && !parse_time(trim(period_text), &ev.period)) {
      result.errors.push_back(where + ": bad period '" + std::string(trim(period_text)) + "'");
      entry_ok = false;
    }

    // key=value params, every value numeric.
    while (!rest.empty()) {
      std::string_view kv = rest;
      if (const std::size_t comma = rest.find(','); comma != std::string_view::npos) {
        kv = rest.substr(0, comma);
        rest = rest.substr(comma + 1);
      } else {
        rest = {};
      }
      kv = trim(kv);
      if (kv.empty()) continue;
      const std::size_t eq = kv.find('=');
      if (eq == std::string_view::npos) {
        result.errors.push_back(where + ": parameter '" + std::string(kv) +
                                "' is not of the form key=value");
        entry_ok = false;
        continue;
      }
      const std::string key(trim(kv.substr(0, eq)));
      const std::string value_text(trim(kv.substr(eq + 1)));
      char* end = nullptr;
      const double value = std::strtod(value_text.c_str(), &end);
      if (end == value_text.c_str() || trim(std::string_view(end)) != "") {
        result.errors.push_back(where + ": parameter '" + key + "' has non-numeric value '" +
                                value_text + "'");
        entry_ok = false;
        continue;
      }
      if (!ev.params.emplace(key, value).second) {
        result.errors.push_back(where + ": duplicate parameter '" + key + "'");
        entry_ok = false;
      }
    }

    if (entry_ok) result.script.events.push_back(std::move(ev));
  }
  return result;
}

}  // namespace hicc::fault
