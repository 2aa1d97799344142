// amt/hazard.hpp
//
// Dynamic shadow-epoch race tracker — the runtime half of the task-graph
// hazard auditor (the static half lives in core/graph_audit).  Tasks open a
// `task_scope` declaring the index sets they will read and write over a set
// of application-defined *fields*; the tracker stamps each declared index
// into a per-field shadow array of atomic tokens while the task is in
// flight and clears them at scope exit.  It catches one failure class, the
// **in-flight conflict**: a scope stamps an index already stamped by
// another live scope with at least one writer.  In a continuation-chained
// task graph two *ordered* tasks never overlap in time, so temporally
// overlapping conflicting stamps are exactly the unordered overlaps the
// static auditor proves absent — this layer catches the ones a wrong
// ordering hid from the proof.  Whether the declared sets match what the
// task bodies access is checked statically, against the source, by
// tools/amtlint (rule AMT003).
//
// The tracker is deliberately application-agnostic: fields are small
// integers, index spaces are flat ranges, and the expansion of mesh
// connectivity into concrete index intervals happens in the layer that
// knows the mesh (core/access).  Sites are `const char*` labels with static
// storage duration, like fault-probe sites.
//
// Cost model: a task_scope is opened only by callers that chose to
// instrument (the compiled graph opens none unless it was built tracked),
// and while the tracker is disarmed its construction is a single relaxed
// atomic load and a predictable branch.  Arming (explicitly or via the
// AMT_HAZARD_TRACK environment variable) switches to the slow path: scopes
// stamp and clear their whole declared set, which is proportional to the
// data accessed — debug-run pricing.
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

/// One recorded in-flight conflict.  `site`/`other_site` are the scope
/// labels (static strings).
struct violation {
    enum class kind {
        conflict_ww,  ///< two live scopes both declared a write
        conflict_rw   ///< a live writer overlaps a live reader
    };

    kind k = kind::conflict_ww;
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
/// LULESH waves) and stamped by every scope of that task.
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
}  // namespace detail

/// RAII scope of one in-flight task: stamps the declared set on entry and
/// clears it on exit.  The declared set and site label must outlive the
/// scope.  When the tracker is disarmed (or `decl` is null) construction is
/// a single load-and-branch and the scope is inert.
class task_scope {
public:
    task_scope(const void* arena_key, const char* site, std::int64_t partition,
               const access_set* decl);
    ~task_scope();

    task_scope(const task_scope&) = delete;
    task_scope& operator=(const task_scope&) = delete;

private:
    struct impl;
    impl* impl_ = nullptr;  ///< null when inert
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

}  // namespace amt::hazard
