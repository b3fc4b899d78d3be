// The probe-trace sink of the benchmark: the library's CSV writer
// (hicc.trace.v1) over a stream that counts bytes and data rows and
// discards them. The trace layer does all of its sampling and
// formatting work; only the file-system write is left out, because on
// a shared machine its time depends on other tenants' I/O.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <streambuf>

#include "trace/exporters.h"

namespace perfbench {

class CountingCsvSink {
 public:
  CountingCsvSink() = default;
  CountingCsvSink(const CountingCsvSink&) = delete;
  CountingCsvSink& operator=(const CountingCsvSink&) = delete;

  /// The sink to hand to Tracer::set_sink(); lives as long as this.
  [[nodiscard]] hicc::trace::TraceSink& sink() { return writer_; }

  [[nodiscard]] std::int64_t bytes() {
    buf_.drain();
    return buf_.bytes;
  }
  /// Sample rows: lines other than the `#` catalog and the column header.
  [[nodiscard]] std::int64_t rows() {
    buf_.drain();
    return buf_.lines > 0 ? buf_.lines - 1 : 0;
  }

 private:
  class CountingBuf final : public std::streambuf {
   public:
    CountingBuf() { setp(data_.data(), data_.data() + data_.size()); }

    void drain() {
      for (const char* p = pbase(); p != pptr(); ++p) {
        if (line_start_) comment_ = *p == '#';
        line_start_ = *p == '\n';
        if (line_start_ && !comment_) ++lines;
      }
      bytes += pptr() - pbase();
      setp(data_.data(), data_.data() + data_.size());
    }

    std::int64_t bytes = 0;
    std::int64_t lines = 0;  // non-comment lines, the column header included

   protected:
    int_type overflow(int_type ch) override {
      drain();
      if (!traits_type::eq_int_type(ch, traits_type::eof())) {
        *pptr() = traits_type::to_char_type(ch);
        pbump(1);
      }
      return traits_type::not_eof(ch);
    }

   private:
    std::array<char, 1 << 16> data_{};
    bool line_start_ = true;
    bool comment_ = false;
  };

  CountingBuf buf_;
  std::ostream os_{&buf_};
  hicc::trace::CsvTraceWriter writer_{os_};
};

}  // namespace perfbench
