// amt/json.hpp — the one JSON string escaper behind every JSON writer of
// the tree: the Chrome trace and utilization report (amt/trace), metrics
// snapshots (amt/metrics), the critical-path report (core/critical_path)
// and the bench artifacts (bench/bench_artifact.hpp).

#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace amt {

/// `s` as the contents of a JSON string literal: `"` and `\` are
/// backslash-escaped and every byte below 0x20 becomes `\u00XX`.
inline std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        const auto byte = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (byte < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", byte);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

}  // namespace amt
