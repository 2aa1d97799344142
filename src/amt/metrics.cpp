// amt/metrics.cpp — registry storage, aggregation, export writers and the
// interval reporter.  The hot paths live in the header; everything here is
// cold (registration, collect, I/O).

#include "amt/metrics.hpp"

#include <cstring>
#include <deque>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "amt/counters.hpp"
#include "amt/json.hpp"

namespace amt::metrics {

namespace detail {
amt::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

enum class kind { counter, histogram };

struct entry {
    const char* name;
    const char* help;
    kind k;
    counter* c = nullptr;
    histogram* h = nullptr;
};

/// Registry storage: deques give stable element addresses across growth, so
/// the references handed out by get_* never move.  Registration holds the
/// mutex and is rare (call sites cache the reference in a function
/// local static); collect() copies the entry table under the lock and reads
/// shards outside it.
struct registry_state {
    amt::mutex mu;
    std::deque<counter> counters;
    std::deque<histogram> histograms;
    std::vector<entry> entries;
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
};

registry_state& state() {
    static registry_state s;
    return s;
}

entry* find(registry_state& s, const char* name) {
    for (auto& e : s.entries) {
        if (std::strcmp(e.name, name) == 0) return &e;
    }
    return nullptr;
}

[[noreturn]] void kind_clash(const char* name) {
    throw std::logic_error(std::string("amt::metrics: metric '") + name +
                           "' re-registered with a different kind");
}

}  // namespace

counter& get_counter(const char* name, const char* help) {
    auto& s = state();
    std::lock_guard<amt::mutex> lk(s.mu);
    if (entry* e = find(s, name)) {
        if (e->k != kind::counter) kind_clash(name);
        return *e->c;
    }
    s.counters.emplace_back();
    s.entries.push_back(
        {name, help, kind::counter, &s.counters.back(), nullptr});
    return s.counters.back();
}

histogram& get_histogram(const char* name, const char* help) {
    auto& s = state();
    std::lock_guard<amt::mutex> lk(s.mu);
    if (entry* e = find(s, name)) {
        if (e->k != kind::histogram) kind_clash(name);
        return *e->h;
    }
    s.histograms.emplace_back();
    s.entries.push_back(
        {name, help, kind::histogram, nullptr, &s.histograms.back()});
    return s.histograms.back();
}

void arm() { detail::g_armed.store(true, amt::memory_order_relaxed); }
void disarm() { detail::g_armed.store(false, amt::memory_order_relaxed); }
bool armed() noexcept {
    return detail::g_armed.load(amt::memory_order_relaxed);
}

void reset() {
    auto& s = state();
    std::lock_guard<amt::mutex> lk(s.mu);
    for (auto& e : s.entries) {
        switch (e.k) {
            case kind::counter: e.c->reset(); break;
            case kind::histogram: e.h->reset(); break;
        }
    }
}

std::uint64_t histogram_value::quantile_bound(double q) const {
    if (count == 0) return 0;
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(count) + 0.5);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        seen += buckets[b];
        if (seen >= target) {
            return b == 0 ? 0 : (std::uint64_t{1} << b) - 1;
        }
    }
    return (std::uint64_t{1} << (num_buckets - 1)) - 1;
}

snapshot collect() {
    auto& s = state();
    std::vector<entry> entries;
    std::chrono::steady_clock::time_point epoch;
    {
        std::lock_guard<amt::mutex> lk(s.mu);
        entries = s.entries;
        epoch = s.epoch;
    }

    snapshot out;
    out.wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
    out.uptime_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - epoch)
                        .count();

    for (const auto& e : entries) {
        switch (e.k) {
            case kind::counter:
                out.counters.push_back({e.name, e.help, e.c->value()});
                break;
            case kind::histogram: {
                histogram_value hv{e.name, e.help, 0, 0,
                                   std::vector<std::uint64_t>(num_buckets, 0)};
                for (std::size_t b = 0; b < num_buckets; ++b) {
                    hv.buckets[b] = e.h->bucket_count(b);
                    hv.count += hv.buckets[b];
                }
                hv.sum = e.h->sum();
                out.histograms.push_back(std::move(hv));
                break;
            }
        }
    }

    // Bridge the process-wide resilience block so one scrape sees both
    // planes; kept as plain counters under a reserved prefix.
    const auto& r = amt::resilience();
    const std::pair<const char*, std::uint64_t> bridged[] = {
        {"amt_resilience_halo_crc_failures", r.halo_crc_failures.load()},
        {"amt_resilience_halo_retries", r.halo_retries.load()},
        {"amt_resilience_halo_resends", r.halo_resends.load()},
        {"amt_resilience_halo_drops", r.halo_drops.load()},
        {"amt_resilience_heartbeats", r.heartbeats.load()},
        {"amt_resilience_slab_deaths", r.slab_deaths.load()},
        {"amt_resilience_recoveries", r.recoveries.load()},
        {"amt_resilience_entry_fallbacks", r.entry_fallbacks.load()},
    };
    for (const auto& [name, v] : bridged) {
        out.counters.push_back({name, "amt::resilience() bridge", v});
    }
    return out;
}

void write_json(std::ostream& os, const snapshot& s) {
    os << "{\"ts_ms\":" << s.wall_ms << ",\"uptime_ns\":" << s.uptime_ns;
    os << ",\"counters\":{";
    bool first = true;
    for (const auto& c : s.counters) {
        if (!first) os << ',';
        first = false;
        os << '"' << json_escape(c.name) << "\":" << c.value;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto& h : s.histograms) {
        if (!first) os << ',';
        first = false;
        os << '"' << json_escape(h.name) << "\":{\"count\":" << h.count
           << ",\"sum\":" << h.sum << ",\"buckets\":[";
        // Trailing zero buckets are elided; consumers pad to num_buckets.
        std::size_t last = h.buckets.size();
        while (last > 0 && h.buckets[last - 1] == 0) --last;
        for (std::size_t b = 0; b < last; ++b) {
            if (b != 0) os << ',';
            os << h.buckets[b];
        }
        os << "]}";
    }
    os << "}}";
}

void write_prometheus(std::ostream& os, const snapshot& s) {
    for (const auto& c : s.counters) {
        if (c.help[0] != '\0') {
            os << "# HELP " << c.name << ' ' << c.help << '\n';
        }
        os << "# TYPE " << c.name << " counter\n";
        os << c.name << ' ' << c.value << '\n';
    }
    for (const auto& h : s.histograms) {
        if (h.help[0] != '\0') {
            os << "# HELP " << h.name << ' ' << h.help << '\n';
        }
        os << "# TYPE " << h.name << " histogram\n";
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < h.buckets.size(); ++b) {
            cum += h.buckets[b];
            // Bucket b holds values < 2^b; emit only buckets in use plus
            // the mandatory +Inf.
            if (h.buckets[b] == 0 && b != 0) continue;
            os << h.name << "_bucket{le=\"" << (std::uint64_t{1} << b)
               << "\"} " << cum << '\n';
        }
        os << h.name << "_bucket{le=\"+Inf\"} " << h.count << '\n';
        os << h.name << "_sum " << h.sum << '\n';
        os << h.name << "_count " << h.count << '\n';
    }
}

// ---- reporter ------------------------------------------------------------

reporter::reporter(options opts) : opts_(std::move(opts)) {
    const auto& p = opts_.path;
    prometheus_ = p.size() >= 5 && p.compare(p.size() - 5, 5, ".prom") == 0;
    if (!prometheus_) {
        // JSON lines accumulate across the run; start from a clean file so
        // the artifact describes exactly this process.
        std::ofstream truncate(p, std::ios::trunc);
        ok_ = static_cast<bool>(truncate);
    }
    arm();
    thread_ = std::thread([this] { run(); });
}

reporter::~reporter() { stop(); }

bool reporter::stop() {
    if (!stopped_) {
        {
            std::lock_guard<amt::mutex> lk(mu_);
            quit_ = true;
        }
        cv_.notify_all();
        thread_.join();
        if (!write_once()) ok_ = false;
        stopped_ = true;
    }
    return ok_;
}

void reporter::run() {
    std::unique_lock<amt::mutex> lk(mu_);
    while (!quit_) {
        if (cv_.wait_for(lk, opts_.interval, [this] { return quit_; })) {
            break;
        }
        lk.unlock();
        if (!write_once()) ok_ = false;
        lk.lock();
    }
}

bool reporter::write_once() {
    const snapshot s = collect();
    std::ofstream os(opts_.path, prometheus_
                                     ? std::ios::trunc
                                     : (std::ios::app | std::ios::ate));
    if (!os) return false;
    if (prometheus_) {
        write_prometheus(os, s);
    } else {
        write_json(os, s);
        os << '\n';
    }
    os.flush();
    if (os) ++written_;
    return static_cast<bool>(os);
}

}  // namespace amt::metrics
