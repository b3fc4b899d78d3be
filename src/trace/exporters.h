// File exporters for traced runs.
//
// Two formats, both documented in docs/OBSERVABILITY.md:
//
//  * CsvTraceWriter -- the `hicc.trace.v1` long-format CSV: a probe
//    catalog in `# probe,...` comment lines, then one
//    `time_us,probe,value` row per sample. Trivially loadable with
//    pandas / gnuplot / awk.
//
//  * ChromeTraceWriter -- Chrome `trace_event` JSON (counter events,
//    "ph":"C"), so a capture opens directly in chrome://tracing or
//    https://ui.perfetto.dev with one named track per probe.
//
// Both writers stream: each sample is formatted as it arrives into one
// reused pass buffer, and a sampling pass's rows reach the ostream in a
// single write at end_pass(); nothing is buffered beyond that pass.
// Doubles use round-trip formatting (common/fmt.h) so outputs are
// bitwise-stable across runs.
#pragma once

#include <cstddef>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

#include "common/fmt.h"
#include "trace/trace.h"

namespace hicc::trace {

/// The text of a sample time in microseconds. Every probe of a sampling
/// pass shares one time, so it is formatted once per pass rather than
/// once per row.
class SampleTimeText {
 public:
  [[nodiscard]] std::string_view format(TimePs t) {
    if (t != t_) {
      t_ = t;
      len_ = static_cast<std::size_t>(format_double(text_, t.us()) - text_);
    }
    return {text_, len_};
  }

 private:
  TimePs t_{};
  char text_[kDoubleChars] = {'0'};  // format_double of TimePs{}.us()
  std::size_t len_ = 1;
};

/// Long-format CSV writer (schema "hicc.trace.v1").
class CsvTraceWriter final : public TraceSink {
 public:
  explicit CsvTraceWriter(std::ostream& os) : os_(os) {}

  void begin(const std::vector<ProbeInfo>& probes) override;
  void sample(const ProbeInfo& probe, TimePs t, double value) override;
  void end_pass() override;
  void end() override;

 private:
  std::ostream& os_;
  SampleTimeText time_;
  std::string pass_;
};

/// Chrome trace_event JSON writer: one counter track per probe.
class ChromeTraceWriter final : public TraceSink {
 public:
  explicit ChromeTraceWriter(std::ostream& os) : os_(os) {}

  void begin(const std::vector<ProbeInfo>& probes) override;
  void sample(const ProbeInfo& probe, TimePs t, double value) override;
  void end_pass() override;
  void end() override;

 private:
  std::ostream& os_;
  SampleTimeText time_;
  std::string pass_;
  bool first_event_ = true;
};

/// Opens `path` and attaches the writer matching its extension (.csv
/// -> CSV, anything else -> Chrome JSON) to `tracer`. Returns false if
/// the file cannot be opened. The returned sink must stay alive until
/// Tracer::finish(); wrap in the small RAII helper below.
class FileTraceSink {
 public:
  FileTraceSink() = default;

  /// Attach to `tracer`, writing to `path`. False on I/O failure.
  [[nodiscard]] bool open(Tracer& tracer, const std::string& path);

  /// Flushes via Tracer::finish() and closes the file. True when the
  /// stream is still good after the final write.
  [[nodiscard]] bool close(Tracer& tracer);

 private:
  std::unique_ptr<std::ofstream> file_;
  std::unique_ptr<TraceSink> sink_;
};

}  // namespace hicc::trace
