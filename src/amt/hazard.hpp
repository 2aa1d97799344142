// amt/hazard.hpp
//
// Dynamic shadow-epoch race tracker — the runtime half of the task-graph
// hazard auditor (the static half lives in core/graph_audit).  Tasks open a
// `task_scope` declaring the index sets they will read and write over a set
// of application-defined *fields*; the tracker stamps each declared index
// into a per-field shadow array of atomic tokens while the task is in
// flight and clears them at scope exit.  Two failure classes are caught:
//
//   * **in-flight conflict** — a scope stamps an index already stamped by
//     another live scope with at least one writer.  In a continuation-
//     -chained task graph two *ordered* tasks never overlap in time, so
//     temporally overlapping conflicting stamps are exactly the unordered
//     overlaps the static auditor proves absent — this layer catches the
//     ones a wrong declaration hid from the proof.
//
//   * **undeclared access** — instrumented task bodies call
//     touch()/touch_range(); an access outside the ambient scope's declared
//     set is recorded.  This validates the declarations themselves, closing
//     the loop: the static proof is only as good as the access sets, and
//     the access sets are checked against what the kernels actually do.
//
// The tracker is deliberately application-agnostic: fields are small
// integers, index spaces are flat ranges, and the expansion of mesh
// connectivity into concrete index intervals happens in the layer that
// knows the mesh (core/access).  Sites are `const char*` labels with static
// storage duration, like fault-probe sites.
//
// Cost model (the amt/fault.hpp discipline): when not armed, every probe —
// touch(), task_scope construction — is a single relaxed atomic load and a
// predictable branch; bench/hazard_overhead asserts <1% of a task-graph
// iteration.  Arming (explicitly or via the AMT_HAZARD_TRACK environment
// variable) switches to the slow path: scopes stamp and clear their whole
// declared set, which is proportional to the data touched — debug-run
// pricing.
//
// Detection is *best effort* on reads: a reader's token can be displaced by
// a concurrent reader (reader/reader sharing is not a hazard), after which
// one of the readers is invisible to a later writer.  Writer stamps are
// never silently lost, so every WW overlap and the common RW interleavings
// are caught; tests force the deterministic cases.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "amt/atomic.hpp"

namespace amt::hazard {

/// One recorded hazard.  `site_*` are the scope labels (static strings);
/// `other_*` fields are meaningful for in-flight conflicts only.
struct violation {
    enum class kind {
        conflict_ww,       ///< two live scopes both declared a write
        conflict_rw,       ///< a live writer overlaps a live reader
        undeclared_access  ///< touch() outside the ambient declared set
    };

    kind k = kind::undeclared_access;
    int field = 0;
    std::int64_t lo = 0;  ///< offending index range [lo, hi)
    std::int64_t hi = 0;
    const char* site = "?";        ///< scope that detected the violation
    std::int64_t partition = -1;
    const char* other_site = "?";  ///< the conflicting live scope ("?" if gone)
    std::int64_t other_partition = -1;

    [[nodiscard]] std::string describe() const;
};

/// A declared access set, fully expanded: per-field sorted, disjoint,
/// merged index intervals.  Built once per task (by core/access for the
/// LULESH waves) and shared by stamping and touch validation.
struct access_set {
    struct interval {
        int field;
        bool write;
        std::int64_t lo;
        std::int64_t hi;  ///< half-open
    };

    /// Must be sorted by (field, write, lo) with intervals of equal
    /// (field, write) disjoint and non-adjacent-merged; normalize() does it.
    std::vector<interval> intervals;

    void add(int field, bool write, std::int64_t lo, std::int64_t hi);
    /// Sorts and merges; call once after the last add().
    void normalize();

    /// True when [lo, hi) is fully covered by the declared intervals for
    /// `field` (write access requires write intervals; reads accept both —
    /// a declared writer may re-read its own output).
    [[nodiscard]] bool covers(int field, bool write, std::int64_t lo,
                              std::int64_t hi) const;
};

/// Registers a shadow arena for a data domain (e.g. one mesh): one stamp
/// array per field, sized to that field's index-space extent.  `key` is an
/// opaque identity (the domain's address); re-binding the same key replaces
/// the arena.  Arenas are only allocated while the tracker is armed.
void bind_arena(const void* key, const std::vector<std::size_t>& extents);

/// Drops the arena for `key` (e.g. when the domain dies).  No-op if absent.
void release_arena(const void* key);

namespace detail {
extern amt::atomic<bool> g_armed;
void touch_slow(int field, bool write, std::int64_t lo, std::int64_t hi);
}  // namespace detail

/// RAII scope of one in-flight task: stamps the declared set on entry,
/// clears it on exit, and installs itself as the calling thread's ambient
/// scope for touch() validation.  The declared set and site label must
/// outlive the scope.  When the tracker is disarmed (or `decl` is null)
/// construction is a single load-and-branch and the scope is inert.
class task_scope {
public:
    task_scope(const void* arena_key, const char* site, std::int64_t partition,
               const access_set* decl);
    ~task_scope();

    task_scope(const task_scope&) = delete;
    task_scope& operator=(const task_scope&) = delete;

private:
    friend void detail::touch_slow(int, bool, std::int64_t, std::int64_t);
    struct impl;
    impl* impl_ = nullptr;  ///< null when inert
    task_scope* prev_ = nullptr;
};

/// Collected violations since the last take; take clears the log.
[[nodiscard]] std::vector<violation> take_violations();
[[nodiscard]] std::size_t violation_count();
void clear_violations();

/// Arms/disarms the tracker.  Like fault::arm, must not race in-flight
/// scopes — quiesce the graph first.  The AMT_HAZARD_TRACK environment
/// variable (non-empty, not "0") arms it at process start.
void arm();
void disarm();

[[nodiscard]] inline bool armed() noexcept {
    return detail::g_armed.load(amt::memory_order_acquire);
}

/// Instrumentation point for kernels: validates the access [lo, hi) of
/// `field` against the calling thread's ambient scope.  One relaxed load +
/// branch when disarmed; no-op when no scope is ambient (e.g. the serial
/// driver runs the same kernels without scopes).
inline void touch(int field, bool write, std::int64_t lo, std::int64_t hi) {
    if (detail::g_armed.load(amt::memory_order_acquire)) {
        detail::touch_slow(field, write, lo, hi);
    }
}

}  // namespace amt::hazard
