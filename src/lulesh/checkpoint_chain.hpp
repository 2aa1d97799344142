// lulesh/checkpoint_chain.hpp
//
// Crash-consistent checkpoint records (format v3), the two-record ring the
// resilient loop keeps them in, and the one rule that restores a set of
// rings.  A chain file is a byte sequence of records, oldest first:
//
//   [record][record]...
//
// Every record is a whole state, self-delimiting and individually
// verifiable:
//
//   record_header   magic, version, kind (0: a whole state), region count,
//                   a CRC-32C over the header itself, the problem shape,
//                   and the scalar time/cycle controls
//   region × N      {slot, payload CRC-32C, lo, hi} + payload doubles
//   commit trailer  magic + header-CRC echo + CRC-32C over region entries
//
// The trailer is written last, so a record is *committed* only once its
// final byte is on disk.  A chain file is always written whole and
// atomically (temp file, fsync, rename): a crash at any byte leaves the
// previous file or the new one, and bytes after the last committed record
// (a torn tail) are ignored on read.  A standalone checkpoint
// (lulesh/checkpoint.hpp) is a chain of one record.
//
// One LULESH iteration writes every checkpointed field in full, so every
// record covers every field and a restore applies exactly one per domain.
// The resilient loop (lulesh/resilient_run.hpp) keeps the newest two per
// domain in a record_ring and recycles the third buffer into the next
// capture.  restore_common_cycle is the one restore rule, for the loop's
// rings and for the files of a restart, of one domain or of a cluster:
// every domain restores the newest cycle every ring holds a valid record
// of.  The delta records (kind 1) an earlier version of the format wrote
// fail validation like any corrupt record.
//
// Packing a record is decomposed into independent per-region copies
// (state_capture) so the task-graph driver can run them as ordinary graph
// tasks overlapped with the next iteration's compute — see
// docs/resilience.md for the non-interference argument and the recovery
// matrix.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "amt/atomic.hpp"
#include "lulesh/checkpoint.hpp"
#include "lulesh/domain.hpp"
#include "lulesh/fields.hpp"

namespace lulesh {

/// The 11 fields that carry state across iterations, in slot order:
/// x, y, z, xd, yd, zd (node), then e, p, q, v, ss (elem).
inline constexpr std::size_t num_checkpoint_fields = 11;

/// Field for a checkpoint slot in [0, num_checkpoint_fields).
field checkpoint_field_at(std::size_t slot) noexcept;

/// Slot for a field, or -1 if the field is not part of the checkpoint.
int checkpoint_slot(field f) noexcept;

inline bool is_checkpointed_field(field f) noexcept {
    return checkpoint_slot(f) >= 0;
}

/// A half-open dirty interval [lo, hi) of one checkpointed field.
struct dirty_region {
    field f = field::x;
    index_t lo = 0;
    index_t hi = 0;
};

/// Full coverage of every checkpointed field — the region set of every
/// record, and of everything one iteration dirties (driver::record_dirty).
std::vector<dirty_region> full_coverage(const domain& d);

/// Packs every checkpointed field of `d` into one committed record on the
/// calling thread.
std::string pack_full_record(const domain& d);

/// Accumulates the (field × index-range) write-sets the drivers report
/// after each advance().  Marks on non-checkpointed fields are ignored;
/// take() clamps to the domain's extents and coalesces overlapping or
/// adjacent intervals per field.  Not thread-safe.  No resilient loop
/// feeds it; perfbench's checkpoint probe does (perfbench/layers.cpp).
class dirty_tracker {
public:
    void mark(field f, index_t lo, index_t hi);
    [[nodiscard]] bool empty() const noexcept;
    void clear() noexcept;

    /// Returns the coalesced dirty regions (in checkpoint slot order) and
    /// clears the tracker.
    std::vector<dirty_region> take(const domain& d);

private:
    std::vector<std::pair<index_t, index_t>> marks_[num_checkpoint_fields];
};

/// One in-flight checkpoint record: the scalars are captured and the record
/// buffer laid out at construction time (cheap), then each region's payload
/// is copied + checksummed by pack_region() — either synchronously via
/// pack_remaining() or as overlapped graph tasks that claim regions with a
/// CAS.  take_record() finalizes the commit trailer after wait_packed().
///
/// The capture holds a pointer to the source domain; the caller must keep
/// the domain's state unchanged (for the captured regions) until packing
/// completes — the task-graph driver guarantees this by joining region
/// packs into the barrier *before* the wave that first writes that field.
class state_capture {
public:
    /// Captures every checkpointed field of `d` (full_coverage).
    /// `recycled` (optional) donates its heap allocation as the record
    /// buffer — the resilient loop feeds in the buffer its record_ring
    /// retired, so steady-state checkpointing allocates and faults in no
    /// fresh pages.  Every byte of the buffer is overwritten before
    /// take_record() returns it, so stale contents are harmless.
    explicit state_capture(const domain& d, std::string recycled = {});

    /// perfbench's form (perfbench/layers.cpp, perfbench/ledger.cpp), which
    /// passes full_coverage(d) as `regions`.  `base` is unused: every
    /// record is a whole state.
    state_capture(const domain& d, std::vector<dirty_region> regions,
                  bool base, std::string recycled = {});

    [[nodiscard]] const domain* source() const noexcept { return d_; }
    [[nodiscard]] std::size_t num_regions() const noexcept {
        return regions_.size();
    }
    [[nodiscard]] const dirty_region& region(std::size_t i) const {
        return regions_[i];
    }
    [[nodiscard]] int cycle() const noexcept { return cycle_; }

    /// Claims and packs region i; returns false if another packer already
    /// claimed it.  Safe to call concurrently for distinct or identical i.
    bool pack_region(std::size_t i) noexcept;

    /// Synchronously packs every unclaimed region (the no-overlap path and
    /// the finalization path for regions the driver never got to).
    void pack_remaining() noexcept;

    /// Marks the capture unusable (a pack task faulted); wait_packed()
    /// returns and take_record() must not be called.
    void mark_failed() noexcept;
    // relaxed: failed_ is a pure flag — no data is published under it, the
    // record buffer is only read after wait_packed()'s acquire on packed_.
    [[nodiscard]] bool failed() const noexcept {
        return failed_.load(amt::memory_order_relaxed);
    }

    /// Blocks until every claimed region finished packing (call
    /// pack_remaining() first to claim leftovers, or this can wait on
    /// regions nobody owns).
    void wait_packed();

    /// Moves the finished record out (trailer is computed here).  Only
    /// valid after wait_packed() on a non-failed capture.
    [[nodiscard]] std::string take_record();

private:
    state_capture(const domain& d, std::vector<dirty_region> regions,
                  std::string recycled);

    const domain* d_;
    std::vector<dirty_region> regions_;
    std::vector<std::size_t> payload_offset_;  // payload byte offset in buf_
    std::string buf_;
    int cycle_ = 0;
    std::unique_ptr<amt::atomic<int>[]> claims_;  // 0 free, 1 packing, 2 done
    amt::atomic<std::size_t> packed_{0};
    amt::atomic<bool> failed_{false};
    std::mutex mu_;
    std::condition_variable cv_;
};

/// The last two committed records of one domain, each with its cycle: the
/// newest and one fallback.  The cycles are kept apart from the bytes, so
/// a record corrupted after capture (a test hook, bit rot) cannot
/// misdirect a rollback.  Committing a third retires the oldest, whose
/// buffer take_spare() hands to the next state_capture as `recycled` — a
/// loop checkpointing every cycle cycles through three record buffers.
/// Every record is a whole state, so a rollback applies exactly one.
class record_ring {
public:
    record_ring() = default;

    /// A ring holding a chain file's records (read_chain_records), oldest
    /// first, each with the cycle its header records.
    explicit record_ring(std::vector<std::string> records);

    /// Makes `record`, captured at `cycle`, the newest record.
    void commit(int cycle, std::string record);

    /// The buffer the last commit or drop retired (empty if none).
    [[nodiscard]] std::string take_spare() noexcept {
        return std::move(spare_);
    }

    /// The records held, oldest first — the order of a chain file.
    [[nodiscard]] const std::vector<std::string>& records() const noexcept {
        return records_;
    }
    /// Their cycles, in the same order.
    [[nodiscard]] const std::vector<int>& cycles() const noexcept {
        return cycles_;
    }

    /// Validates the record of `cycle` and applies it to `d`, then drops
    /// the records past it — they belong to a future the rollback
    /// abandons.  Throws checkpoint_error, leaving `d` untouched, if there
    /// is no such record or it fails validation; a record that fails is
    /// dropped (with any newer one) so no later rollback trips on it.
    void restore(domain& d, int cycle, const std::string& context);

private:
    void drop_from(std::size_t k) noexcept;

    std::vector<std::string> records_;  // oldest first, at most two
    std::vector<int> cycles_;
    std::string spare_;
};

/// Fully validates `record` (header CRC, whole-state kind, commit
/// trailer, per-region payload CRCs, shape) and only then applies it to
/// `d`.  Throws checkpoint_error — with `context`, the record's cycle, and
/// expected-vs-actual CRCs where applicable — without having modified `d`.
void apply_chain_record(domain& d, std::string_view record,
                        const std::string& context);

/// The one restore rule.  Restores `domains[i]` from `rings[i]`, every
/// domain to the same cycle: the newest cycle every ring holds.  A record
/// that fails validation is dropped and the target lowers for every
/// domain; if it was its ring's last record, its own checkpoint_error
/// (context, cycle, both CRCs) is rethrown.  A ring holding only records
/// newer than the target throws checkpoint_error naming `contexts[i]` and
/// the cycle.  On return every ring's newest record is of the restored
/// cycle, which is returned.  Every ring must hold a record on entry.
int restore_common_cycle(std::span<domain* const> domains,
                         std::span<record_ring> rings,
                         std::span<const std::string> contexts);

/// Restores `d` from the committed records of `in` by the one restore rule
/// (restore_common_cycle): the newest valid record; torn tails are
/// ignored.  Throws checkpoint_error if no record is committed or none is
/// valid.  The one restore path of load_checkpoint and
/// load_checkpoint_file.
void restore_chain_stream(domain& d, std::istream& in,
                          const std::string& context);

/// Splits the longest validly *framed* prefix of `in` into individual
/// record byte strings without applying them (payload CRCs are validated
/// later, by apply_chain_record).  Torn or invalid framing ends the list;
/// a committed leading record for a different mesh shape throws
/// checkpoint_error.  restore_chain_stream and load_cluster_chains read
/// their files through this into record_rings.
std::vector<std::string> read_chain_records(const domain& d, std::istream& in,
                                            const std::string& context);

/// The cycle recorded in `record`'s header, or -1 if the header is torn or
/// fails its CRC.  Cheap (header-only); does not validate payloads.
int chain_record_cycle(std::string_view record) noexcept;

/// Writes a whole chain atomically: temp file, fsync, rename — a crash
/// leaves the previous file intact.
void write_chain_file(const std::string& path,
                      const std::vector<std::string>& records);

/// Test seam for the crash-consistency torture harness: after `n` more
/// bytes of chain-file writes, the process _exit()s mid-write.  Negative
/// disables (the default).  Only meaningful in a forked child.
void set_chain_crash_after_bytes(long long n) noexcept;

}  // namespace lulesh
