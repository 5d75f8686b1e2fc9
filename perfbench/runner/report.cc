#include "report.h"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace perfbench {
namespace {

void WriteString(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out << buf;
    } else {
      out << c;
    }
  }
  out << '"';
}

void WriteStrings(std::ostream& out, const std::vector<std::string>& v) {
  out << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out << ',';
    WriteString(out, v[i]);
  }
  out << ']';
}

}  // namespace

long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

void WriteReport(const Args& args, const Report& report,
                 const std::string& path) {
  std::ofstream out(path);
  out << std::setprecision(17);
  out << "{\"workload\":";
  WriteString(out, args.workload);
  out << ",\"seed\":" << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"seconds\":" << args.seconds;
  out << ",\"setup_s\":[";
  for (std::size_t i = 0; i < report.setup_s.size(); ++i) {
    out << (i == 0 ? "" : ",") << report.setup_s[i];
  }
  out << "],\"peak_rss_kb\":" << PeakRssKb();
  out << ",\"checks\":";
  WriteStrings(out, report.checks);
  out << ",\"failures\":";
  WriteStrings(out, report.failures);
  out << ",\"errors\":";
  WriteStrings(out, report.errors);
  out << ",\"attempted\":" << report.attempted
      << ",\"failed\":" << report.failed;
  // calls: [ms, gap_ms, traced]
  out << ",\"calls\":[";
  for (std::size_t i = 0; i < report.calls.size(); ++i) {
    const CallSample& c = report.calls[i];
    out << (i == 0 ? "" : ",") << '[' << c.ms << ',' << c.gap_ms << ','
        << (c.traced ? 1 : 0) << ']';
  }
  // requests: [op, tenant, due_ns, sent_ns, done_ns, ok, phase, traced,
  //            body_bytes]
  out << "],\"requests\":[";
  for (std::size_t i = 0; i < report.requests.size(); ++i) {
    const RequestSample& r = report.requests[i];
    out << (i == 0 ? "" : ",") << '[' << int{r.op} << ',' << r.tenant << ','
        << r.due_ns << ',' << r.sent_ns << ',' << r.done_ns << ','
        << (r.ok ? 1 : 0) << ',' << int{r.phase} << ','
        << (r.traced ? 1 : 0) << ',' << r.body_bytes << ']';
  }
  out << "],\"values\":{";
  bool first = true;
  for (const auto& [name, value] : report.values) {
    if (!first) out << ',';
    first = false;
    WriteString(out, name);
    out << ':' << value;
  }
  out << "}}\n";
}

void WriteTrace(const setrec::Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const setrec::SpanEvent& e : tracer.Events()) {
    out << (first ? "\n" : ",\n");
    first = false;
    // ts/dur in microseconds with three decimals: exact nanoseconds.
    out << "{\"name\":";
    WriteString(out, e.name);
    out << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":"
        << e.start_ns / 1000 << '.' << std::setw(3) << std::setfill('0')
        << e.start_ns % 1000 << std::setfill(' ') << ",\"dur\":"
        << e.dur_ns / 1000 << '.' << std::setw(3) << std::setfill('0')
        << e.dur_ns % 1000 << std::setfill(' ') << ",\"args\":{\"id\":"
        << e.id << ",\"parent\":" << e.parent << ",\"trace_id\":"
        << e.trace_id << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_events\":"
      << tracer.dropped_events() << "}}\n";
}

}  // namespace perfbench
