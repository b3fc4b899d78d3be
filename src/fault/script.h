// Fault scripts: declarative, deterministic mid-run disturbance plans.
//
// A FaultScript is a list of timed events, each naming an injector kind
// plus parameters. Scripts are data only -- this header depends on
// nothing but common/ so core/config.h can embed one; the engine that
// executes scripts against live device models lives in fault/engine.h.
//
// Spec grammar (the `--faults` CLI flag and sweep JSON use this form):
//
//   script   := entry (';' entry)*
//   entry    := kind '@' time ['+' time] ['/' time] (',' key '=' value)*
//   time     := number ['us' | 'ms' | 's' | 'ns']     (bare number = us)
//
// `@t` is the activation instant, `+d` an optional window duration
// (omitted or 0 = permanent), `/p` an optional repeat period. Example:
//
//   mem.antagonist@5ms+2ms/10ms,cores=8;net.rate@12ms+1ms,gbps=25
//
// ramps 8 antagonist cores for 2ms every 10ms starting at 5ms, and
// downgrades the access link to 25 Gbps for 1ms at 12ms. Every value
// is a number: net.* entries name their link by `leaf=`+`spine=` or
// `host=`, and no target means the access link (docs/FAULTS.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"

namespace hicc::fault {

/// Injector catalog. Each kind perturbs exactly one layer; the mapping
/// to device-model hooks is documented in docs/FAULTS.md.
enum class FaultKind : std::uint8_t {
  kNetLinkDown,      // net.link_down: link drops every packet
  kNetRate,          // net.rate: link rate downgrade (gbps=)
  kNetLoss,          // net.loss: random loss window (prob=)
  kNicCreditStall,   // nic.credit_stall: PCIe posted credits frozen
  kNicBufferSqueeze, // nic.buffer_squeeze: NIC buffer limit (kb=)
  kIommuStorm,       // iommu.storm: random IOTLB invalidations (per_us=)
  kMemAntagonist,    // mem.antagonist: antagonist core ramp (cores=)
  kMemDdioSqueeze,   // mem.ddio_squeeze: DDIO way reduction (ways=)
  kHostDeschedule,   // host.deschedule: rx threads stop running (threads=)
  kTransportChurn,   // transport.churn: victim flows pause (flows=)
};

/// Canonical spec name ("mem.antagonist", ...).
std::string_view to_string(FaultKind kind);

/// One scripted disturbance.
struct FaultEvent {
  FaultKind kind = FaultKind::kMemAntagonist;
  /// Activation time, measured from the start of the run.
  TimePs at{};
  /// Window length; 0 means the fault persists to the end of the run.
  TimePs duration{};
  /// Repeat period; 0 means one-shot. Must exceed `duration` when set.
  TimePs period{};
  /// Kind-specific knobs (see docs/FAULTS.md for the per-kind keys).
  std::map<std::string, double> params;

  bool operator==(const FaultEvent&) const = default;
};

/// A whole scenario. Order does not matter; the engine schedules every
/// entry up front and the Simulator's time ordering takes over.
struct FaultScript {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }
  bool operator==(const FaultScript&) const = default;

  /// Renders the script back into spec-grammar form (round-trips
  /// through parse_script); used to record scenarios in sweep JSON.
  [[nodiscard]] std::string to_spec() const;
};

/// Parse outcome: a script plus every problem found. The script is only
/// meaningful when `errors` is empty -- parsing keeps going after an
/// error so a user sees all mistakes at once.
struct ParseResult {
  FaultScript script;
  std::vector<std::string> errors;

  [[nodiscard]] bool ok() const { return errors.empty(); }
};

/// Parses the spec grammar above. Never throws; all syntax problems are
/// aggregated into ParseResult::errors with entry positions.
ParseResult parse_script(std::string_view spec);

}  // namespace hicc::fault
