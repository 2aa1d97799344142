// tools/amtlint/main.cpp — CLI driver.
//
//   amtlint [--baseline FILE] [--root DIR] [--exclude SUBSTR]...
//           [--atomics-only] <file-or-dir>...
//
// Directories are walked recursively for .hpp/.cpp/.h/.cc sources; paths
// are reported relative to --root (default: current directory) with '/'
// separators so output is stable across machines.  Exit codes:
//   0  clean (every diagnostic baselined or none at all)
//   1  new diagnostics (not in the baseline)
//   2  usage / IO error
// Stale baseline entries (baselined diagnostics that no longer fire) are
// reported on stderr as a reminder to shrink the baseline, but do not fail
// the run.

#include "amtlint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

bool is_source_file(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

std::string display_path(const fs::path& p, const fs::path& root) {
    std::error_code ec;
    fs::path rel = fs::relative(p, root, ec);
    std::string s = (ec || rel.empty()) ? p.generic_string()
                                        : rel.generic_string();
    return s;
}

int usage(const char* argv0) {
    std::cerr << "usage: " << argv0
              << " [--baseline FILE] [--root DIR] [--exclude SUBSTR]...\n"
                 "       [--atomics-only] <file-or-dir>...\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string baseline_file;
    fs::path root = fs::current_path();
    std::vector<std::string> excludes;
    std::vector<fs::path> inputs;
    amtlint::config cfg;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "amtlint: " << flag << " requires a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--baseline") {
            baseline_file = value("--baseline");
        } else if (arg == "--root") {
            root = value("--root");
        } else if (arg == "--exclude") {
            excludes.emplace_back(value("--exclude"));
        } else if (arg == "--atomics-only") {
            cfg.atomics_only = true;
        } else if (arg == "-h" || arg == "--help") {
            return usage(argv[0]);
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "amtlint: unknown flag '" << arg << "'\n";
            return 2;
        } else {
            inputs.emplace_back(arg);
        }
    }
    if (inputs.empty()) return usage(argv[0]);

    // Collect the scan set, sorted by display path for determinism.
    std::vector<fs::path> files;
    for (const auto& in : inputs) {
        std::error_code ec;
        if (fs::is_directory(in, ec)) {
            for (const auto& e : fs::recursive_directory_iterator(in)) {
                if (e.is_regular_file() && is_source_file(e.path())) {
                    files.push_back(e.path());
                }
            }
        } else if (fs::is_regular_file(in, ec)) {
            files.push_back(in);
        } else {
            std::cerr << "amtlint: cannot read '" << in.generic_string()
                      << "'\n";
            return 2;
        }
    }
    std::vector<std::pair<std::string, fs::path>> scan;
    scan.reserve(files.size());
    for (const auto& f : files) {
        const std::string disp = display_path(f, root);
        const bool skip = std::any_of(
            excludes.begin(), excludes.end(), [&](const std::string& x) {
                return disp.find(x) != std::string::npos;
            });
        if (!skip) scan.emplace_back(disp, f);
    }
    std::sort(scan.begin(), scan.end());
    scan.erase(std::unique(scan.begin(), scan.end()), scan.end());

    std::set<std::string> baseline;
    if (!baseline_file.empty()) {
        std::ifstream bf(baseline_file);
        if (!bf) {
            std::cerr << "amtlint: cannot read baseline '" << baseline_file
                      << "'\n";
            return 2;
        }
        std::string line;
        while (std::getline(bf, line)) {
            if (line.empty() || line[0] == '#') continue;
            baseline.insert(line);
        }
    }

    // The whole scan set is read first: AMT003 follows calls across files.
    std::vector<amtlint::source> sources;
    sources.reserve(scan.size());
    for (const auto& [disp, path] : scan) {
        std::ifstream f(path, std::ios::binary);
        if (!f) {
            std::cerr << "amtlint: cannot read '" << disp << "'\n";
            return 2;
        }
        std::ostringstream ss;
        ss << f.rdbuf();
        sources.push_back({disp, ss.str()});
    }

    int new_count = 0;
    std::set<std::string> seen_baselined;
    for (const auto& d : amtlint::lint_sources(sources, cfg)) {
        const std::string line = d.format();
        if (baseline.count(line) > 0) {
            seen_baselined.insert(line);
            continue;
        }
        std::cout << line << "\n";
        ++new_count;
    }

    for (const auto& b : baseline) {
        if (seen_baselined.count(b) == 0) {
            std::cerr << "amtlint: stale baseline entry: " << b << "\n";
        }
    }
    if (new_count > 0) {
        std::cerr << "amtlint: " << new_count << " new diagnostic"
                  << (new_count == 1 ? "" : "s") << " (scanned "
                  << scan.size() << " files)\n";
        return 1;
    }
    std::cerr << "amtlint: clean (" << scan.size() << " files scanned)\n";
    return 0;
}
