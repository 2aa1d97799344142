// amt/hazard.cpp — shadow-epoch stamping and violation bookkeeping.
//
// Token protocol: each arena field has an array of 32-bit atomic stamps,
// one per index, 0 = unclaimed.  A live scope owns a *token* =
// (serial << 1) | write-bit, with serial drawn from a global counter (the
// "epoch" of the scope).  Stamping:
//
//   write:  prev = stamp.exchange(token)      — a foreign non-zero prev is
//           an in-flight conflict (WW if prev had the write bit, RW
//           otherwise).  The writer's token always lands.
//   read:   cur = stamp.load(); a foreign write-bit cur is an RW conflict.
//           Then CAS(0 -> token), best effort: losing the CAS to another
//           reader is benign (shared reads), though it leaves that reader
//           invisible to later writers — see the header's best-effort note.
//
// Unstamping at scope exit is CAS(token -> 0) per declared index: only the
// exact owner clears, so a conflicting writer that overstamped a reader's
// token is not accidentally erased by the reader's exit.

#include "amt/hazard.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace amt::hazard {

namespace detail {
namespace {

bool env_armed() {
    const char* v = std::getenv("AMT_HAZARD_TRACK");
    return v != nullptr && v[0] != '\0' &&
           !(v[0] == '0' && v[1] == '\0');
}

}  // namespace

amt::atomic<bool> g_armed{env_armed()};

}  // namespace detail

namespace {

using token_t = std::uint32_t;
constexpr token_t write_bit = 1u;

struct arena {
    std::vector<std::unique_ptr<amt::atomic<token_t>[]>> stamps;
    std::vector<std::size_t> extents;
};

struct scope_info {
    const char* site = "?";
    std::int64_t partition = -1;
};

struct registry {
    std::mutex mu;
    std::map<const void*, arena> arenas;
    // Live scopes by serial, so a conflicting stamp can be attributed.
    std::unordered_map<token_t, scope_info> live;
    std::vector<violation> violations;
    amt::atomic<token_t> next_serial{1};
};

registry& reg() {
    static registry r;
    return r;
}

void record(violation v) {
    auto& r = reg();
    std::lock_guard lk(r.mu);
    // Coalesce runs: extend the previous record when this offense continues
    // the same (kind, field, scopes) range, so a whole overlapping interval
    // produces one violation, not one per index.
    if (!r.violations.empty()) {
        violation& last = r.violations.back();
        if (last.k == v.k && last.field == v.field && last.site == v.site &&
            last.other_site == v.other_site &&
            last.partition == v.partition &&
            last.other_partition == v.other_partition && v.lo <= last.hi &&
            v.hi >= last.lo) {
            last.lo = std::min(last.lo, v.lo);
            last.hi = std::max(last.hi, v.hi);
            return;
        }
    }
    r.violations.push_back(v);
}

scope_info lookup_live(token_t serial) {
    auto& r = reg();
    std::lock_guard lk(r.mu);
    auto it = r.live.find(serial);
    return it != r.live.end() ? it->second : scope_info{};
}

}  // namespace

std::string violation::describe() const {
    std::ostringstream os;
    switch (k) {
        case kind::conflict_ww:
            os << "write-write conflict";
            break;
        case kind::conflict_rw:
            os << "read-write conflict";
            break;
    }
    os << ": field " << field << " [" << lo << ", " << hi << ") at " << site
       << "[" << partition << "] vs in-flight " << other_site << "["
       << other_partition << "]";
    return os.str();
}

void access_set::add(int field, bool write, std::int64_t lo, std::int64_t hi) {
    if (lo < hi) intervals.push_back({field, write, lo, hi});
}

void access_set::normalize() {
    std::sort(intervals.begin(), intervals.end(),
              [](const interval& a, const interval& b) {
                  if (a.field != b.field) return a.field < b.field;
                  if (a.write != b.write) return a.write < b.write;
                  return a.lo < b.lo;
              });
    std::vector<interval> merged;
    for (const interval& iv : intervals) {
        if (!merged.empty()) {
            interval& last = merged.back();
            if (last.field == iv.field && last.write == iv.write &&
                iv.lo <= last.hi) {
                last.hi = std::max(last.hi, iv.hi);
                continue;
            }
        }
        merged.push_back(iv);
    }
    intervals = std::move(merged);
}

void bind_arena(const void* key, const std::vector<std::size_t>& extents) {
    auto& r = reg();
    std::lock_guard lk(r.mu);
    arena a;
    a.extents = extents;
    a.stamps.reserve(extents.size());
    for (std::size_t n : extents) {
        auto p = std::make_unique<amt::atomic<token_t>[]>(n);
        for (std::size_t i = 0; i < n; ++i) {
            p[i].store(0, amt::memory_order_relaxed);
        }
        a.stamps.push_back(std::move(p));
    }
    r.arenas[key] = std::move(a);
}

void release_arena(const void* key) {
    auto& r = reg();
    std::lock_guard lk(r.mu);
    r.arenas.erase(key);
}

struct task_scope::impl {
    arena* a = nullptr;
    const access_set* decl = nullptr;
    token_t serial = 0;
};

task_scope::task_scope(const void* arena_key, const char* site,
                       std::int64_t partition, const access_set* decl) {
    if (!armed() || decl == nullptr) return;

    auto& r = reg();
    arena* a = nullptr;
    {
        std::lock_guard lk(r.mu);
        auto it = r.arenas.find(arena_key);
        if (it == r.arenas.end()) return;  // unknown domain: stay inert
        a = &it->second;
    }

    impl_ = new impl{a, decl,
                     r.next_serial.fetch_add(1, amt::memory_order_relaxed)};
    {
        std::lock_guard lk(r.mu);
        r.live[impl_->serial] = {site, partition};
    }

    const token_t rtok = impl_->serial << 1;
    const token_t wtok = rtok | write_bit;
    for (const auto& iv : decl->intervals) {
        const auto f = static_cast<std::size_t>(iv.field);
        if (f >= a->stamps.size()) continue;
        amt::atomic<token_t>* stamps = a->stamps[f].get();
        const auto ext = static_cast<std::int64_t>(a->extents[f]);
        const std::int64_t lo = std::max<std::int64_t>(iv.lo, 0);
        const std::int64_t hi = std::min(iv.hi, ext);
        for (std::int64_t i = lo; i < hi; ++i) {
            if (iv.write) {
                const token_t prev =
                    stamps[i].exchange(wtok, amt::memory_order_acq_rel);
                if (prev != 0 && (prev >> 1) != impl_->serial) {
                    const scope_info other = lookup_live(prev >> 1);
                    record({(prev & write_bit) != 0
                                ? violation::kind::conflict_ww
                                : violation::kind::conflict_rw,
                            iv.field, i, i + 1, site, partition, other.site,
                            other.partition});
                }
            } else {
                const token_t cur = stamps[i].load(amt::memory_order_acquire);
                if ((cur & write_bit) != 0 && (cur >> 1) != impl_->serial) {
                    const scope_info other = lookup_live(cur >> 1);
                    record({violation::kind::conflict_rw, iv.field, i, i + 1,
                            site, partition, other.site, other.partition});
                } else if (cur == 0) {
                    token_t expected = 0;
                    stamps[i].compare_exchange_strong(
                        expected, rtok, amt::memory_order_acq_rel,
                        amt::memory_order_relaxed);
                    // Losing to another reader is benign sharing.
                }
            }
        }
    }
}

task_scope::~task_scope() {
    if (impl_ == nullptr) return;

    const token_t rtok = impl_->serial << 1;
    const token_t wtok = rtok | write_bit;
    arena* a = impl_->a;
    for (const auto& iv : impl_->decl->intervals) {
        const auto f = static_cast<std::size_t>(iv.field);
        if (f >= a->stamps.size()) continue;
        amt::atomic<token_t>* stamps = a->stamps[f].get();
        const auto ext = static_cast<std::int64_t>(a->extents[f]);
        const std::int64_t lo = std::max<std::int64_t>(iv.lo, 0);
        const std::int64_t hi = std::min(iv.hi, ext);
        const token_t mine = iv.write ? wtok : rtok;
        for (std::int64_t i = lo; i < hi; ++i) {
            token_t expected = mine;
            stamps[i].compare_exchange_strong(expected, 0,
                                              amt::memory_order_acq_rel,
                                              amt::memory_order_relaxed);
        }
    }

    auto& r = reg();
    {
        std::lock_guard lk(r.mu);
        r.live.erase(impl_->serial);
    }
    delete impl_;
}

std::vector<violation> take_violations() {
    auto& r = reg();
    std::lock_guard lk(r.mu);
    std::vector<violation> out = std::move(r.violations);
    r.violations.clear();
    return out;
}

std::size_t violation_count() {
    auto& r = reg();
    std::lock_guard lk(r.mu);
    return r.violations.size();
}

void clear_violations() {
    auto& r = reg();
    std::lock_guard lk(r.mu);
    r.violations.clear();
}

void arm() { detail::g_armed.store(true, amt::memory_order_release); }

void disarm() { detail::g_armed.store(false, amt::memory_order_release); }

}  // namespace amt::hazard
