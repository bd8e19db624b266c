// zdbench: one benchmark run of one workload.
//
//   zdbench --workload archive_census|traffic_census|campaign --seed N
//           --seconds S --trace 0|1 [--inject-load-delay-us D] [--out-dir DIR]
//
// Untraced (--trace 0) it prints the end-to-end metrics; traced (--trace 1)
// the per-layer metrics, and writes the spans to DIR/spans-<workload>.json.
// Human-readable lines (digests, sample counts, failed checks) come first;
// the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {name: {"value", "unit"}}}
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace zdbench;

[[noreturn]] void usage(const std::string& message) {
    std::cerr << "zdbench: " << message << "\n"
              << "usage: zdbench --workload archive_census|traffic_census|campaign --seed N\n"
              << "               --seconds S --trace 0|1 [--inject-load-delay-us D]"
                 " [--out-dir DIR]\n";
    std::exit(2);
}

double parse_number(const std::string& flag, const std::string& text) {
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !(v >= 0.0)) usage(flag + " wants a number >= 0");
    return v;
}

std::string json_number(double v) {
    std::ostringstream out;
    out.precision(12);
    out << v;
    return out.str();
}

}  // namespace

int main(int argc, char** argv) {
    RunOptions opts;
    opts.out_dir = ".bench_out";
    bool have_workload = false;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            have_workload = true;
            if (value == "archive_census") {
                opts.workload = Workload::kArchiveCensus;
            } else if (value == "traffic_census") {
                opts.workload = Workload::kTrafficCensus;
            } else if (value == "campaign") {
                opts.workload = Workload::kCampaign;
            } else {
                usage("unknown workload '" + value + "'");
            }
        } else if (flag == "--seed") {
            opts.seed = static_cast<std::uint64_t>(parse_number(flag, value));
        } else if (flag == "--seconds") {
            opts.seconds = parse_number(flag, value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") usage("--trace wants 0 or 1");
            trace = value == "1";
        } else if (flag == "--inject-load-delay-us") {
            opts.load_delay_us = parse_number(flag, value);
        } else if (flag == "--out-dir") {
            opts.out_dir = value;
        } else {
            usage("unknown flag '" + flag + "'");
        }
    }
    if (!have_workload) usage("--workload is required");

    Outcome out;
    try {
        std::filesystem::create_directories(opts.out_dir);
        if (trace) {
            out = run_traced(opts);
        } else if (opts.workload == Workload::kCampaign) {
            out = run_campaign_workload(opts);
        } else {
            out = run_census_workload(opts, opts.workload == Workload::kArchiveCensus
                                                ? WorkloadKind::kArchive
                                                : WorkloadKind::kTraffic);
        }
    } catch (const std::exception& e) {
        out.fail(std::string("benchmark aborted: ") + e.what());
        if (out.attempted == 0) out.attempted = 1;
        ++out.failed;
    }

    for (const std::string& p : out.problems) std::cout << "CHECK FAILED: " << p << "\n";
    for (const Metric& m : out.metrics) {
        std::cout << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";
    }
    std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
              << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric& m = out.metrics[i];
        std::cout << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << json_number(m.value)
                  << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return out.correct ? 0 : 1;
}
