// perfbench/main.cpp — command line, host and build fingerprint, and the
// result line.
//
//   perfbench --workload W --seed N --seconds T --trace 0|1 --ref FILE
//   perfbench --make-ref --workload W --seed N --out FILE
//
// The last line of standard output is the result:
//   {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
// Exit status: 0 with a result, 1 on a run-time error, 2 on bad arguments or
// a reference file that belongs to another workload, 3 for a build that is
// not an optimized Release build.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "ledger.hpp"

namespace {

struct arguments {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    bool make_ref = false;
    std::string ref;
    std::string out;
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload sedov30|fine16|dist30 --seed N"
                 " --seconds T --trace 0|1 --ref FILE\n"
                 "       perfbench --make-ref --workload W --seed N --out "
                 "FILE\n";
    std::exit(2);
}

std::uint64_t parse_seed(const std::string& s) {
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
        s.size() > 19) {
        usage("--seed takes a non-negative integer");
    }
    return std::stoull(s);
}

arguments parse(int argc, char** argv) {
    arguments a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--make-ref") {
            a.make_ref = true;
            continue;
        }
        if (i + 1 >= argc) usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = parse_seed(value);
            have_seed = true;
        } else if (flag == "--seconds") {
            char* end = nullptr;
            a.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' ||
                !(a.seconds > 0.0 && a.seconds <= 3600.0)) {
                usage("--seconds takes a number in (0, 3600]");
            }
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") usage("--trace takes 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--ref") {
            a.ref = value;
        } else if (flag == "--out") {
            a.out = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (a.workload.empty() || !have_seed) usage("--workload and --seed needed");
    if (a.make_ref ? a.out.empty() : a.ref.empty()) {
        usage(a.make_ref ? "--make-ref needs --out" : "--ref needed");
    }
    return a;
}

bool optimized_release_build() {
#ifdef NDEBUG
    return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
    return false;
#endif
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
    if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
        unsigned regs[12] = {};
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        char brand[sizeof regs + 1] = {};
        std::memcpy(brand, regs, sizeof regs);
        std::string s(brand);
        const auto first = s.find_first_not_of(' ');
        const auto last = s.find_last_not_of(' ');
        return first == std::string::npos ? "unknown"
                                          : s.substr(first, last - first + 1);
    }
#endif
    return "unknown";
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) >= 0x20) {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/// The host and build the numbers come from, on one comment line.
void print_fingerprint(const perfbench::workload& w,
                       const perfbench::reference& ref, bool trace) {
    const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
    const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    std::cout << "# fingerprint {\"nproc\": "
              << std::thread::hardware_concurrency()
              << ", \"cpu\": " << json_string(cpu_model())
              << ", \"l2_kib_per_core\": " << (l2 > 0 ? l2 / 1024 : -1)
              << ", \"l3_kib\": " << (l3 > 0 ? l3 / 1024 : -1)
              << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
              << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
              << ", \"march\": " << json_string(PERFBENCH_MARCH)
              << ", \"cxx_flags\": " << json_string(PERFBENCH_CXX_FLAGS)
              << ", \"workload\": " << json_string(w.name)
              << ", \"seed\": " << w.seed
              << ", \"region_seed\": " << w.problem.region_seed
              << ", \"trace\": " << (trace ? 1 : 0)
              << ", \"workers\": " << w.workers
              << ", \"solve_cycles\": " << w.solve_cycles
              << ", \"working_set_mb_computed\": "
              << json_number(ref.working_set_bytes / 1e6) << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
    const arguments args = parse(argc, argv);
    if (!optimized_release_build()) {
        std::cerr << "perfbench: refusing to report numbers from a "
                  << PERFBENCH_BUILD_TYPE
                  << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 3;
    }
    try {
        const perfbench::workload w =
            perfbench::make_workload(args.workload, args.seed);
        if (args.make_ref) {
            const perfbench::reference r = perfbench::make_reference(w);
            perfbench::write_reference(args.out, r);
            std::cerr << "perfbench: reference for " << w.name << " seed "
                      << args.seed << " written";
            if (r.has_anchor()) {
                std::cerr << " (full-length solve: " << r.full_cycles
                          << " cycles, origin energy " << r.full_energy
                          << ")";
            }
            std::cerr << "\n";
            return 0;
        }

        const perfbench::reference ref = perfbench::read_reference(args.ref);
        if (ref.workload != w.name || ref.seed != args.seed ||
            ref.cycles != w.solve_cycles ||
            ref.slabs.size() != static_cast<std::size_t>(perfbench::dist_slabs)) {
            std::cerr << "perfbench: " << args.ref << " is not the reference of "
                      << w.name << " seed " << args.seed << "\n";
            return 2;
        }
        print_fingerprint(w, ref, args.trace);

        perfbench::metric_list metrics;
        perfbench::tally t;
        if (args.trace) {
            perfbench::run_traced(w, ref, args.seconds, metrics, t);
        } else {
            perfbench::run_end_to_end(w, ref, args.seconds, metrics, t);
        }
        if (ref.has_anchor()) {
            std::cout << "# full-length solve: " << ref.full_cycles
                      << " cycles, origin energy " << ref.full_energy
                      << " (published " << perfbench::published_cycles << ", "
                      << perfbench::published_energy << ")\n";
        }
        const bool correct =
            t.attempted > 0 && t.failed == 0 && ref.anchor_ok();

        for (const perfbench::metric& m : metrics) {
            std::cout << "# " << m.name << " = " << json_number(m.value) << ' '
                      << m.unit << "\n";
        }
        std::cout << "{\"correct\": " << (correct ? "true" : "false")
                  << ", \"attempted\": " << t.attempted
                  << ", \"failed\": " << t.failed << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            std::cout << (i > 0 ? ", " : "") << json_string(metrics[i].name)
                      << ": {\"value\": " << json_number(metrics[i].value)
                      << ", \"unit\": " << json_string(metrics[i].unit) << "}";
        }
        std::cout << "}}" << std::endl;
        return 0;
    } catch (const std::invalid_argument& e) {
        usage(e.what());
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
