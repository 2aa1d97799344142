// bench/bench_artifact.hpp
//
// Machine-readable benchmark artifacts, shared by every bench binary
// (including micro_runtime, which does not link the LULESH libraries — this
// header depends only on the amt runtime and the standard library).  The
// timing-hygiene policy the artifacts record (one untimed warm-up rep,
// min-of-reps summary) is defined in bench_common.hpp.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iomanip>
#include <iostream>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "amt/json.hpp"

namespace bench {

/// One BENCH_<name>.json document (schema "lulesh-bench-v1"): the sweep
/// configuration, an environment fingerprint, and named metrics, each with
/// the full sample list plus min/median/mean/max.  scripts/bench_compare.py
/// diffs two artifacts metric-by-metric and fails on regressions beyond a
/// noise threshold; metric names therefore encode their configuration
/// point (e.g. "task_seconds/s10/t4") so runs match positionally across
/// builds.  Direction says which way is better: "lower" for durations,
/// "higher" for speedups/ratios.
class artifact {
public:
    explicit artifact(std::string name) : name_(std::move(name)) {}

    void set_config(const std::string& key, const std::string& value) {
        config_.emplace_back(key, value);
    }
    void set_config(const std::string& key, long long value) {
        set_config(key, std::to_string(value));
    }

    void add_sample(const std::string& key, double value,
                    const char* unit = "s", const char* direction = "lower") {
        for (auto& m : metrics_) {
            if (m.name == key) {
                m.samples.push_back(value);
                return;
            }
        }
        metrics_.push_back({key, unit, direction, {value}});
    }

    /// Every sample of one rep_samples sweep point under one metric name
    /// (templated so this header does not depend on bench_common's types).
    template <class RepSamples>
    void add_seconds(const std::string& key, const RepSamples& s) {
        for (const auto& m : s.reps) add_sample(key, m.seconds);
    }

    void write(std::ostream& os) const {
        const auto now_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count();
        os << "{\n  \"schema\": \"lulesh-bench-v1\",\n  \"name\": \""
           << amt::json_escape(name_)
           << "\",\n  \"timestamp_ms\": " << now_ms
           << ",\n  \"env\": {\"hardware_threads\": "
           << std::thread::hardware_concurrency() << ", \"compiler\": \""
           << amt::json_escape(compiler_id()) << "\", \"build\": \""
#if defined(NDEBUG)
           << "release"
#else
           << "debug"
#endif
           << "\"},\n  \"policy\": {\"warmup_reps\": 1, \"summary\": \"min\"},"
           << "\n  \"config\": {";
        for (std::size_t i = 0; i < config_.size(); ++i) {
            if (i != 0) os << ", ";
            os << '"' << amt::json_escape(config_[i].first) << "\": \""
               << amt::json_escape(config_[i].second) << '"';
        }
        os << "},\n  \"metrics\": {\n";
        os << std::setprecision(9);
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const metric& m = metrics_[i];
            std::vector<double> sorted = m.samples;
            std::sort(sorted.begin(), sorted.end());
            double sum = 0.0;
            for (const double v : sorted) sum += v;
            os << "    \"" << amt::json_escape(m.name) << "\": {\"unit\": \""
               << m.unit << "\", \"direction\": \"" << m.direction
               << "\", \"samples\": [";
            for (std::size_t j = 0; j < m.samples.size(); ++j) {
                if (j != 0) os << ", ";
                os << m.samples[j];
            }
            os << "], \"min\": " << sorted.front()
               << ", \"median\": " << sorted[sorted.size() / 2]
               << ", \"mean\": "
               << sum / static_cast<double>(sorted.size())
               << ", \"max\": " << sorted.back()
               << ", \"count\": " << sorted.size() << "}"
               << (i + 1 < metrics_.size() ? "," : "") << "\n";
        }
        os << "  }\n}\n";
    }

    /// Writes BENCH_<name>.json into $BENCH_DIR (or the working directory)
    /// and says so on stdout; complains to stderr but does not abort the
    /// benchmark when the file cannot be written.
    bool write_file() const {
        std::string path = "BENCH_" + name_ + ".json";
        if (const char* dir = std::getenv("BENCH_DIR");
            dir != nullptr && *dir != '\0') {
            path = std::string(dir) + "/" + path;
        }
        std::ofstream os(path, std::ios::trunc);
        if (os) write(os);
        if (!os) {
            std::cerr << "bench: cannot write artifact '" << path << "'\n";
            return false;
        }
        std::cout << "Bench artifact written to '" << path << "'\n";
        return true;
    }

private:
    struct metric {
        std::string name;
        const char* unit;
        const char* direction;
        std::vector<double> samples;
    };

    static const char* compiler_id() {
#if defined(__clang__)
        return "clang " __clang_version__;
#elif defined(__GNUC__)
        return "gcc " __VERSION__;
#else
        return "unknown";
#endif
    }

    std::string name_;
    std::vector<std::pair<std::string, std::string>> config_;
    std::vector<metric> metrics_;
};

/// "task_seconds/s10/t4"-style metric keys: base plus /<tag><value> pairs.
inline std::string metric_key(std::string base,
                              std::initializer_list<std::pair<const char*,
                                                              long long>>
                                  dims) {
    for (const auto& [tag, v] : dims) {
        base += '/';
        base += tag;
        base += std::to_string(v);
    }
    return base;
}

/// Comma-joined int list for config values ("10,15,20").
inline std::string join_ints(const std::vector<int>& v) {
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) out += ',';
        out += std::to_string(v[i]);
    }
    return out;
}

}  // namespace bench
