// amt/trace.cpp — ring buffers, registry, Chrome trace writer, and the
// per-phase utilization attribution.

#include "amt/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>

namespace amt::trace {

#if !defined(AMT_TRACE_DISABLE)

namespace detail {

namespace {

/// Single-writer event ring with keep-first-N overflow.  The owning thread
/// writes slots_[count] then publishes with a release store of count+1;
/// drain() reads count with acquire and copies only the published prefix,
/// so concurrent drains observe a consistent prefix without locking.
struct alignas(cache_line_size) ring {
    explicit ring(std::size_t capacity) : slots(capacity) {}

    std::vector<event> slots;
    amt::atomic<std::size_t> count{0};
    relaxed_counter dropped;
    std::string name;  // written under the registry mutex only

    void push(const event& e) noexcept {
        const std::size_t n = count.load(amt::memory_order_relaxed);
        if (n < slots.size()) {
            slots[n] = e;
            count.store(n + 1, amt::memory_order_release);
        } else {
            dropped.add(1);
        }
    }
};

struct registry_state {
    std::mutex mu;
    std::vector<std::unique_ptr<ring>> rings;
    ring* phase_ring = nullptr;       // lazily created, written under mu
    std::uint64_t generation = 1;     // bumped by reset(); 0 never used
    std::size_t capacity = default_ring_capacity;
    // epoch is written under the mutex before the release store of
    // epoch_set; to_ns() pairs that with an acquire load, so emitters can
    // read the epoch without taking the lock.
    clock::time_point epoch{};
    amt::atomic<bool> epoch_set{false};
};

registry_state& registry() {
    static registry_state s;
    return s;
}

amt::atomic<std::uint64_t> g_generation{1};

struct tls_state {
    ring* r = nullptr;
    std::uint64_t generation = 0;
    task_label label;
    std::string pending_name;
};
thread_local tls_state g_tls;

bool env_armed() {
    const char* v = std::getenv("AMT_TRACE");
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

/// The calling thread's ring, registering it on first use (or after a
/// reset invalidated the cached pointer).  Registration takes the registry
/// mutex once per thread per generation; emission itself never locks.
ring* ring_for_current_thread() {
    tls_state& tls = g_tls;
    if (tls.r != nullptr &&
        tls.generation == g_generation.load(amt::memory_order_acquire)) {
        return tls.r;
    }
    registry_state& reg = registry();
    std::lock_guard lk(reg.mu);
    auto owned = std::make_unique<ring>(reg.capacity);
    owned->name = !tls.pending_name.empty()
                      ? tls.pending_name
                      : "thread" + std::to_string(reg.rings.size());
    tls.r = owned.get();
    tls.generation = reg.generation;
    reg.rings.push_back(std::move(owned));
    return tls.r;
}

}  // namespace

amt::atomic<bool> g_armed{env_armed()};

void annotate_slow(const char* name, std::int32_t arg) noexcept {
    task_label& l = g_tls.label;
    if (l.name == nullptr) l = task_label{name, arg};
}

task_label take_label_slow() noexcept {
    task_label l = g_tls.label;
    g_tls.label = task_label{};
    return l;
}

std::int64_t now_ns_slow() noexcept {
    return to_ns(clock::now());
}

void emit(event_kind kind, const char* name, std::int64_t ts_ns,
          std::int64_t dur_ns, std::int32_t arg) noexcept {
    event e;
    e.ts_ns = ts_ns;
    e.dur_ns = dur_ns < 0 ? 0 : dur_ns;
    e.name = name;
    e.arg = arg;
    e.kind = kind;
    ring_for_current_thread()->push(e);
}

}  // namespace detail

std::int64_t to_ns(clock::time_point tp) noexcept {
    detail::registry_state& reg = detail::registry();
    if (!reg.epoch_set.load(amt::memory_order_acquire)) return 0;
    return std::chrono::duration_cast<std::chrono::nanoseconds>(tp -
                                                                reg.epoch)
        .count();
}

void emit_span(event_kind kind, const char* name, clock::time_point begin,
               clock::time_point end, std::int32_t arg) noexcept {
    if (!enabled()) return;
    detail::emit(kind, name, to_ns(begin), to_ns(end) - to_ns(begin), arg);
}

void arm() {
    detail::registry_state& reg = detail::registry();
    {
        std::lock_guard lk(reg.mu);
        if (!reg.epoch_set.load(amt::memory_order_relaxed)) {
            reg.epoch = clock::now();
            reg.epoch_set.store(true, amt::memory_order_release);
        }
    }
    detail::g_armed.store(true, amt::memory_order_release);
}

void disarm() { detail::g_armed.store(false, amt::memory_order_release); }

bool armed() noexcept {
    return detail::g_armed.load(amt::memory_order_acquire);
}

void reset() {
    detail::registry_state& reg = detail::registry();
    std::lock_guard lk(reg.mu);
    reg.rings.clear();
    reg.phase_ring = nullptr;
    ++reg.generation;
    reg.epoch_set.store(false, amt::memory_order_release);
    detail::g_generation.store(reg.generation, amt::memory_order_release);
}

void set_ring_capacity(std::size_t events) {
    detail::registry_state& reg = detail::registry();
    std::lock_guard lk(reg.mu);
    reg.capacity = events > 0 ? events : 1;
}

void set_thread_name(const std::string& name) {
    detail::tls_state& tls = detail::g_tls;
    tls.pending_name = name;
    if (tls.r != nullptr &&
        tls.generation ==
            detail::g_generation.load(amt::memory_order_acquire)) {
        detail::registry_state& reg = detail::registry();
        std::lock_guard lk(reg.mu);
        tls.r->name = name;
    }
}

std::uint64_t dropped_total() noexcept {
    detail::registry_state& reg = detail::registry();
    std::lock_guard lk(reg.mu);
    std::uint64_t total = 0;
    for (const auto& r : reg.rings) total += r->dropped.load();
    return total;
}

void emit_phase(const char* name, std::int64_t ts_ns, std::int64_t dur_ns,
                std::int32_t arg) noexcept {
    if (!enabled()) return;
    detail::registry_state& reg = detail::registry();
    std::lock_guard lk(reg.mu);
    if (reg.phase_ring == nullptr) {
        auto owned = std::make_unique<detail::ring>(reg.capacity);
        owned->name = "phases";
        reg.phase_ring = owned.get();
        reg.rings.push_back(std::move(owned));
    }
    event e;
    e.ts_ns = ts_ns;
    e.dur_ns = dur_ns < 0 ? 0 : dur_ns;
    e.name = name;
    e.arg = arg;
    e.kind = event_kind::phase_span;
    reg.phase_ring->push(e);
}

trace_snapshot drain() {
    trace_snapshot snap;
    detail::registry_state& reg = detail::registry();
    std::lock_guard lk(reg.mu);
    snap.threads.reserve(reg.rings.size());
    for (const auto& r : reg.rings) {
        thread_events te;
        te.name = r->name;
        const std::size_t n = r->count.load(amt::memory_order_acquire);
        te.events.assign(r->slots.begin(),
                         r->slots.begin() + static_cast<std::ptrdiff_t>(n));
        te.dropped = r->dropped.load();
        snap.dropped += te.dropped;
        snap.threads.push_back(std::move(te));
    }
    // Deterministic timeline order: main first, then workers by index,
    // other threads, and the phases pseudo-thread last.
    auto rank = [](const thread_events& t) -> long {
        if (t.name == "main") return -1;
        if (t.name.rfind("worker", 0) == 0) {
            return std::atol(t.name.c_str() + 6);
        }
        if (t.name == "phases") return 1L << 30;
        return 1L << 20;
    };
    std::stable_sort(snap.threads.begin(), snap.threads.end(),
                     [&](const thread_events& a, const thread_events& b) {
                         const long ra = rank(a), rb = rank(b);
                         return ra != rb ? ra < rb : a.name < b.name;
                     });
    return snap;
}

#else  // AMT_TRACE_DISABLE

namespace detail {
amt::atomic<bool> g_armed{false};
void annotate_slow(const char*, std::int32_t) noexcept {}
task_label take_label_slow() noexcept { return {}; }
void emit(event_kind, const char*, std::int64_t, std::int64_t,
          std::int32_t) noexcept {}
std::int64_t now_ns_slow() noexcept { return 0; }
}  // namespace detail

void arm() {}
void disarm() {}
bool armed() noexcept { return false; }
void reset() {}
void set_ring_capacity(std::size_t) {}
void set_thread_name(const std::string&) {}
std::uint64_t dropped_total() noexcept { return 0; }
void emit_phase(const char*, std::int64_t, std::int64_t, std::int32_t) noexcept {
}
trace_snapshot drain() { return {}; }

#endif  // AMT_TRACE_DISABLE

// ---- writers (compiled in both modes: they only format snapshots) -------

namespace {

const char* category_name(event_kind k) {
    switch (k) {
        case event_kind::task_span:
            return "task";
        case event_kind::halo_span:
            return "halo";
        case event_kind::barrier_span:
            return "barrier";
        case event_kind::search_span:
        case event_kind::idle_span:
        case event_kind::steal:
        case event_kind::continuation_ready:
            return "sched";
        case event_kind::phase_span:
            return "phase";
        case event_kind::checkpoint_span:
            return "checkpoint";
        case event_kind::mark:
            return "mark";
    }
    return "mark";
}

/// Microseconds with nanosecond precision, as Chrome's ts/dur expect.
std::string us_fixed(std::int64_t ns) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(3)
       << static_cast<double>(ns) / 1000.0;
    return os.str();
}

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out.push_back(c);
        }
    }
    return out;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const trace_snapshot& snap) {
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    auto sep = [&] {
        if (!first) os << ",\n";
        first = false;
    };
    sep();
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\"lulesh-amt\"}}";
    for (std::size_t tid = 0; tid < snap.threads.size(); ++tid) {
        sep();
        os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
           << json_escape(snap.threads[tid].name) << "\"}}";
    }
    for (std::size_t tid = 0; tid < snap.threads.size(); ++tid) {
        std::uint64_t seq = 0;
        for (const event& e : snap.threads[tid].events) {
            sep();
            os << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << tid << ",\"ts\":"
               << us_fixed(e.ts_ns) << ",\"dur\":" << us_fixed(e.dur_ns)
               << ",\"name\":\""
               << json_escape(e.name != nullptr ? e.name : "?")
               << "\",\"cat\":\"" << category_name(e.kind)
               << "\",\"args\":{\"seq\":" << seq++ << ",\"arg\":" << e.arg
               << "}}";
        }
    }
    os << "\n]}\n";
}

bool write_chrome_trace_file(const std::string& path,
                             const trace_snapshot& snap) {
    std::ofstream os(path);
    if (!os) return false;
    write_chrome_trace(os, snap);
    return static_cast<bool>(os);
}

namespace {

struct window {
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::size_t phase = 0;
};

double seconds(std::int64_t ns) {
    return static_cast<double>(ns) / 1e9;
}

std::int64_t overlap(std::int64_t b0, std::int64_t e0, std::int64_t b1,
                     std::int64_t e1) {
    const std::int64_t b = std::max(b0, b1);
    const std::int64_t e = std::min(e0, e1);
    return e > b ? e - b : 0;
}

}  // namespace

utilization_report build_utilization(const trace_snapshot& snap) {
    utilization_report rep;
    rep.dropped = snap.dropped;

    // Trace extent over every thread, for span_s and the no-phase fallback.
    std::int64_t lo = 0, hi = 0;
    bool any = false;
    for (const auto& t : snap.threads) {
        for (const event& e : t.events) {
            if (!any) {
                lo = e.ts_ns;
                hi = e.ts_ns + e.dur_ns;
                any = true;
            } else {
                lo = std::min(lo, e.ts_ns);
                hi = std::max(hi, e.ts_ns + e.dur_ns);
            }
        }
    }
    if (!any) return rep;
    rep.span_s = seconds(hi - lo);

    // Phase windows from the phase spans; whole-trace window when absent.
    std::vector<window> windows;
    std::map<std::string, std::size_t> phase_index;
    auto phase_for = [&](const std::string& name) {
        auto it = phase_index.find(name);
        if (it != phase_index.end()) return it->second;
        const std::size_t idx = rep.phases.size();
        phase_index.emplace(name, idx);
        phase_utilization p;
        p.name = name;
        rep.phases.push_back(std::move(p));
        return idx;
    };
    for (const auto& t : snap.threads) {
        for (const event& e : t.events) {
            if (e.kind != event_kind::phase_span) continue;
            windows.push_back(window{
                e.ts_ns, e.ts_ns + e.dur_ns,
                phase_for(e.name != nullptr ? e.name : "?")});
        }
    }
    if (windows.empty()) {
        windows.push_back(window{lo, hi, phase_for("run")});
    }
    std::sort(windows.begin(), windows.end(),
              [](const window& a, const window& b) {
                  return a.begin != b.begin ? a.begin < b.begin
                                            : a.end < b.end;
              });
    // Tile the holes between consecutive phase windows (the driver's serial
    // work between iterations: constraint reduction, dt update) with a
    // synthetic "(serial)" phase, so the budget wall_s * workers is fully
    // covered by windows and the four categories can account for all of it.
    {
        std::vector<window> filled;
        filled.reserve(windows.size() * 2);
        std::int64_t cursor = windows.front().begin;
        for (const window& w : windows) {
            if (w.begin > cursor) {
                filled.push_back(window{cursor, w.begin,
                                        phase_for("(serial)")});
            }
            filled.push_back(w);
            cursor = std::max(cursor, w.end);
        }
        windows = std::move(filled);
    }
    for (const window& w : windows) {
        rep.phases[w.phase].window_s += seconds(w.end - w.begin);
    }
    rep.wall_s = seconds(windows.back().end - windows.front().begin);

    auto window_containing = [&](std::int64_t ts) -> const window* {
        // Windows are sorted and non-overlapping (each iteration's phases
        // partition the iteration, iterations are sequential).
        auto it = std::upper_bound(
            windows.begin(), windows.end(), ts,
            [](std::int64_t v, const window& w) { return v < w.begin; });
        if (it == windows.begin()) return nullptr;
        --it;
        return ts < it->end ? &*it : nullptr;
    };

    for (const auto& t : snap.threads) {
        if (t.name.rfind("worker", 0) != 0) continue;
        ++rep.workers;
        for (const event& e : t.events) {
            const std::int64_t eb = e.ts_ns;
            const std::int64_t ee = e.ts_ns + e.dur_ns;
            switch (e.kind) {
                case event_kind::task_span: {
                    for (const window& w : windows) {
                        if (w.begin >= ee) break;
                        const std::int64_t ov =
                            overlap(eb, ee, w.begin, w.end);
                        if (ov > 0) {
                            rep.phases[w.phase].productive_s += seconds(ov);
                        }
                    }
                    if (const window* w = window_containing(eb)) {
                        ++rep.phases[w->phase].tasks;
                    }
                    ++rep.tasks;
                    break;
                }
                case event_kind::search_span:
                case event_kind::idle_span: {
                    for (const window& w : windows) {
                        if (w.begin >= ee) break;
                        const std::int64_t ov =
                            overlap(eb, ee, w.begin, w.end);
                        if (ov <= 0) continue;
                        phase_utilization& p = rep.phases[w.phase];
                        // A gap running into (or past) the window's closing
                        // barrier is the tail wait for stragglers.
                        if (ee >= w.end) {
                            p.barrier_s += seconds(ov);
                        } else if (e.kind == event_kind::search_span) {
                            p.steal_s += seconds(ov);
                        } else {
                            p.idle_s += seconds(ov);
                        }
                    }
                    break;
                }
                case event_kind::checkpoint_span: {
                    // Nested inside a pack task's task_span: attributed as
                    // a visible *subset* of productive time, not a fifth
                    // coverage category.
                    for (const window& w : windows) {
                        if (w.begin >= ee) break;
                        const std::int64_t ov =
                            overlap(eb, ee, w.begin, w.end);
                        if (ov > 0) {
                            rep.phases[w.phase].checkpoint_s += seconds(ov);
                        }
                    }
                    break;
                }
                case event_kind::steal: {
                    if (const window* w = window_containing(eb)) {
                        ++rep.phases[w->phase].steals;
                    }
                    ++rep.steals;
                    break;
                }
                default:
                    break;
            }
        }
    }

    for (const phase_utilization& p : rep.phases) {
        rep.productive_s += p.productive_s;
        rep.steal_s += p.steal_s;
        rep.idle_s += p.idle_s;
        rep.barrier_s += p.barrier_s;
        rep.checkpoint_s += p.checkpoint_s;
    }
    const double budget = rep.wall_s * static_cast<double>(rep.workers);
    rep.unattributed_s = std::max(0.0, budget - rep.accounted_s());
    return rep;
}

void write_utilization_text(std::ostream& os, const utilization_report& r) {
    os << "Per-phase utilization (worker-seconds; " << r.workers
       << " workers, wall " << std::fixed << std::setprecision(4) << r.wall_s
       << " s, trace span " << r.span_s << " s)\n";
    os << std::left << std::setw(14) << "phase" << std::right << std::setw(10)
       << "window_s" << std::setw(12) << "productive" << std::setw(10)
       << "steal" << std::setw(10) << "idle" << std::setw(10) << "barrier"
       << std::setw(8) << "tasks" << std::setw(8) << "steals" << std::setw(8)
       << "util" << std::setw(10) << "ckpt" << "\n";
    for (const phase_utilization& p : r.phases) {
        os << std::left << std::setw(14) << p.name << std::right
           << std::setprecision(4) << std::setw(10) << p.window_s
           << std::setw(12) << p.productive_s << std::setw(10) << p.steal_s
           << std::setw(10) << p.idle_s << std::setw(10) << p.barrier_s
           << std::setw(8) << p.tasks << std::setw(8) << p.steals
           << std::setprecision(3) << std::setw(8) << p.utilization()
           << std::setprecision(4) << std::setw(10) << p.checkpoint_s << "\n";
    }
    os << "total: productive " << std::setprecision(4) << r.productive_s
       << " steal " << r.steal_s << " idle " << r.idle_s << " barrier "
       << r.barrier_s << " unattributed " << r.unattributed_s
       << " (coverage " << std::setprecision(3) << r.coverage()
       << ", utilization " << r.utilization() << ", dropped " << r.dropped
       << "; checkpoint packing " << std::setprecision(4) << r.checkpoint_s
       << " s inside productive)\n";
    // The ckpt column rides at the end so consumers indexing the original
    // columns (scripts/generate_tables.py) keep working.
    for (const phase_utilization& p : r.phases) {
        os << "CSV,util_phase," << p.name << "," << r.workers << ","
           << std::setprecision(6) << p.window_s << "," << p.productive_s
           << "," << p.steal_s << "," << p.idle_s << "," << p.barrier_s
           << "," << p.tasks << "," << p.steals << "," << std::setprecision(4)
           << p.utilization() << "," << std::setprecision(6)
           << p.checkpoint_s << "\n";
    }
}

void write_utilization_json(std::ostream& os, const utilization_report& r) {
    os << std::fixed << std::setprecision(6);
    os << "{\n  \"workers\": " << r.workers << ",\n  \"wall_s\": " << r.wall_s
       << ",\n  \"span_s\": " << r.span_s
       << ",\n  \"productive_s\": " << r.productive_s
       << ",\n  \"steal_s\": " << r.steal_s
       << ",\n  \"idle_s\": " << r.idle_s
       << ",\n  \"barrier_s\": " << r.barrier_s
       << ",\n  \"checkpoint_s\": " << r.checkpoint_s
       << ",\n  \"unattributed_s\": " << r.unattributed_s
       << ",\n  \"coverage\": " << r.coverage()
       << ",\n  \"utilization\": " << r.utilization()
       << ",\n  \"tasks\": " << r.tasks << ",\n  \"steals\": " << r.steals
       << ",\n  \"dropped\": " << r.dropped << ",\n  \"phases\": [\n";
    for (std::size_t i = 0; i < r.phases.size(); ++i) {
        const phase_utilization& p = r.phases[i];
        os << "    {\"name\": \"" << json_escape(p.name)
           << "\", \"window_s\": " << p.window_s
           << ", \"productive_s\": " << p.productive_s
           << ", \"steal_s\": " << p.steal_s
           << ", \"idle_s\": " << p.idle_s
           << ", \"barrier_s\": " << p.barrier_s
           << ", \"checkpoint_s\": " << p.checkpoint_s
           << ", \"tasks\": " << p.tasks
           << ", \"steals\": " << p.steals
           << ", \"utilization\": " << p.utilization() << "}"
           << (i + 1 < r.phases.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

bool write_utilization_file(const std::string& path,
                            const utilization_report& r) {
    std::ofstream os(path);
    if (!os) return false;
    if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
        write_utilization_json(os, r);
    } else {
        write_utilization_text(os, r);
    }
    return static_cast<bool>(os);
}

}  // namespace amt::trace
