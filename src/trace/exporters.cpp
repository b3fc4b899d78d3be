#include "trace/exporters.h"

#include <fstream>

namespace hicc::trace {

namespace {

void append_double(std::string& row, double v) {
  char buf[kDoubleChars];
  row.append(buf, format_double(buf, v));
}

/// Hands the buffered rows to the stream in one write and empties the
/// buffer (keeping its capacity for the next pass).
void write_pass(std::ostream& os, std::string& pass) {
  if (pass.empty()) return;
  os.write(pass.data(), static_cast<std::streamsize>(pass.size()));
  pass.clear();
}

/// The category shown in the Chrome trace viewer: the probe name's
/// first dotted component ("nic", "pcie", "iommu", ...).
std::string_view category_of(std::string_view name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

void CsvTraceWriter::begin(const std::vector<ProbeInfo>& probes) {
  os_ << "# hicc.trace.v1\n";
  for (const ProbeInfo& p : probes) {
    os_ << "# probe," << p.name << "," << to_string(p.kind) << "," << p.unit << "\n";
  }
  os_ << "time_us,probe,value\n";
}

void CsvTraceWriter::sample(const ProbeInfo& probe, TimePs t, double value) {
  pass_ += time_.format(t);
  pass_ += ',';
  pass_ += probe.name;
  pass_ += ',';
  append_double(pass_, value);
  pass_ += '\n';
}

void CsvTraceWriter::end_pass() { write_pass(os_, pass_); }

void CsvTraceWriter::end() {
  write_pass(os_, pass_);
  os_.flush();
}

void ChromeTraceWriter::begin(const std::vector<ProbeInfo>& probes) {
  (void)probes;
  os_ << "{\"otherData\": {\"schema\": \"hicc.trace.v1\"},\n"
      << "\"displayTimeUnit\": \"ms\",\n"
      << "\"traceEvents\": [\n"
      << " {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
         "\"args\": {\"name\": \"hicc\"}}";
  first_event_ = false;
}

void ChromeTraceWriter::sample(const ProbeInfo& probe, TimePs t, double value) {
  pass_ += first_event_ ? "\n" : ",\n";
  first_event_ = false;
  pass_ += " {\"name\": \"";
  pass_ += probe.name;
  pass_ += "\", \"cat\": \"";
  pass_ += category_of(probe.name);
  pass_ += "\", \"ph\": \"C\", \"ts\": ";
  pass_ += time_.format(t);
  pass_ += ", \"pid\": 1, \"tid\": 1, \"args\": {\"";
  pass_ += probe.unit;
  pass_ += "\": ";
  append_double(pass_, value);
  pass_ += "}}";
}

void ChromeTraceWriter::end_pass() { write_pass(os_, pass_); }

void ChromeTraceWriter::end() {
  write_pass(os_, pass_);
  os_ << "\n]}\n";
  os_.flush();
}

bool FileTraceSink::open(Tracer& tracer, const std::string& path) {
  file_ = std::make_unique<std::ofstream>(path);
  if (!*file_) return false;
  const bool csv = path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (csv) {
    sink_ = std::make_unique<CsvTraceWriter>(*file_);
  } else {
    sink_ = std::make_unique<ChromeTraceWriter>(*file_);
  }
  tracer.set_sink(sink_.get());
  return true;
}

bool FileTraceSink::close(Tracer& tracer) {
  if (sink_ == nullptr) return false;
  tracer.finish();
  const bool ok = static_cast<bool>(*file_);
  file_->close();
  sink_.reset();
  file_.reset();
  return ok;
}

}  // namespace hicc::trace
