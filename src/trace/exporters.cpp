#include "trace/exporters.h"

#include <fstream>

namespace hicc::trace {

namespace {

void append_double(std::string& row, double v) {
  char buf[kDoubleChars];
  row.append(buf, format_double(buf, v));
}

void write_row(std::ostream& os, const std::string& row) {
  os.write(row.data(), static_cast<std::streamsize>(row.size()));
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
  row_ = time_.format(t);
  row_ += ',';
  row_ += probe.name;
  row_ += ',';
  append_double(row_, value);
  row_ += '\n';
  write_row(os_, row_);
}

void CsvTraceWriter::end() { os_.flush(); }

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
  row_ = first_event_ ? "\n" : ",\n";
  first_event_ = false;
  row_ += " {\"name\": \"";
  row_ += probe.name;
  row_ += "\", \"cat\": \"";
  row_ += category_of(probe.name);
  row_ += "\", \"ph\": \"C\", \"ts\": ";
  row_ += time_.format(t);
  row_ += ", \"pid\": 1, \"tid\": 1, \"args\": {\"";
  row_ += probe.unit;
  row_ += "\": ";
  append_double(row_, value);
  row_ += "}}";
  write_row(os_, row_);
}

void ChromeTraceWriter::end() {
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
