#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "trace.hpp"

namespace e2e {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples,
                    std::size_t windows) {
  metrics_.push_back(MetricValue{name, value, unit, samples, windows, 0.0});
}

void Report::metric(const std::string& name, const Percentile& p,
                    double scale, const std::string& unit) {
  metrics_.push_back(
      MetricValue{name, p.value * scale, unit, p.samples, p.windows,
                  p.effective});
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back(CheckResult{name, ok, detail});
}

bool Report::correct() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const CheckResult& c) { return c.ok; });
}

void Report::print(std::ostream& os) const {
  for (const std::string& line : notes_) {
    os << "  " << line << '\n';
  }
  for (const MetricValue& m : metrics_) {
    os << "  " << std::left << std::setw(32) << m.name << ' '
       << std::setprecision(8) << m.value << ' ' << m.unit;
    if (m.samples > 0) {
      os << "  (n=" << m.samples;
      if (m.windows > 1) {
        os << " in " << m.windows << " windows";
      }
      if (m.quantile > 0.0) {
        os << ", q=" << std::setprecision(4) << m.quantile;
      }
      os << ')';
    }
    os << '\n';
  }
  for (const CheckResult& c : checks_) {
    os << "  check " << c.name << ": " << (c.ok ? "ok" : "FAILED");
    if (!c.detail.empty()) {
      os << " (" << c.detail << ')';
    }
    os << '\n';
  }
  os << "  ops attempted " << attempted_ << ", failed " << failed_ << '\n';
}

void Report::write_json(std::ostream& os) const {
  os << std::setprecision(17);
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const MetricValue& m = metrics_[i];
    os << (i == 0 ? "" : ", ") << json_string(m.name) << ": {\"value\": "
       << m.value << ", \"unit\": " << json_string(m.unit)
       << ", \"samples\": " << m.samples << ", \"windows\": " << m.windows
       << ", \"quantile\": " << m.quantile
       << '}';
  }
  os << "}, \"failed_checks\": [";
  bool first = true;
  for (const CheckResult& c : checks_) {
    if (!c.ok) {
      os << (first ? "" : ", ") << json_string(c.name + ": " + c.detail);
      first = false;
    }
  }
  os << "]}\n";
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    throw std::runtime_error("getrusage failed");
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) {
    throw std::runtime_error("cannot read /proc/self/statm");
  }
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

double median_setup_seconds(std::size_t repetitions,
                            const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (std::size_t i = 0; i < repetitions; ++i) {
    const std::int64_t start = now_ns();
    setup();
    seconds.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

}  // namespace e2e
