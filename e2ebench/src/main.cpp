// optibar_e2e: one run of one workload of the end-to-end barrier
// benchmark. Usually driven by e2ebench/run.py, which builds it, picks
// the metrics BENCHMARK.json names and prints the final JSON line.
//
//   optibar_e2e --workload churn --seed 7 --seconds 10 --trace 0
//               [--trace-out spans.csv] [--report result.json]
//               [--fingerprint key=value]...
//
// Exit status: 0 when every correctness check passed, 1 when one
// failed (named on stderr), 2 on bad arguments or an unexpected error.
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "report.hpp"
#include "workloads.hpp"

namespace {

using e2e::Report;
using e2e::RunConfig;

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

RunConfig parse(int argc, char** argv, std::string& report_path) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
    } else if (flag == "--trace") {
      config.trace = value == "1";
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else if (flag == "--report") {
      report_path = value;
    } else if (flag == "--fingerprint") {
      config.fingerprint.push_back(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(config.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string report_path;
    RunConfig config = parse(argc, argv, report_path);
    config.fingerprint.push_back(
        "nproc=" + std::to_string(std::thread::hardware_concurrency()));
    config.fingerprint.push_back("compiler=" + compiler());
    config.fingerprint.push_back(std::string("build_type=") + E2E_BUILD_TYPE);
    config.fingerprint.push_back("seed=" + std::to_string(config.seed));
    config.fingerprint.push_back("workload=" + config.workload);
    config.fingerprint.push_back(std::string("trace=") +
                                 (config.trace ? "1" : "0"));

    Report report;
    if (config.workload == "churn") {
      e2e::run_churn(config, report);
    } else if (config.workload == "steady") {
      e2e::run_steady(config, report);
    } else if (config.workload == "service") {
      e2e::run_service(config, report);
    } else if (config.workload == "tenk") {
      e2e::run_tenk(config, report);
    } else {
      throw std::invalid_argument("unknown workload '" + config.workload +
                                  "' (churn, steady, service, tenk)");
    }

    std::cout << "workload " << config.workload << '\n';
    for (const std::string& line : config.fingerprint) {
      std::cout << "  fingerprint " << line << '\n';
    }
    report.print(std::cout);
    if (report_path.empty()) {
      report.write_json(std::cout);
    } else {
      std::ofstream out(report_path);
      report.write_json(out);
      if (!out) {
        throw std::runtime_error("cannot write " + report_path);
      }
    }
    if (!report.correct()) {
      std::cerr << "optibar_e2e: correctness check failed (see 'FAILED' "
                   "lines above)\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "optibar_e2e: " << error.what() << '\n';
    return 2;
  }
}
