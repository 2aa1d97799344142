// lulesh/checkpoint_chain.cpp — v3 checkpoint records and the record ring.

#include "lulesh/checkpoint_chain.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <utility>

#include "amt/metrics.hpp"
#include "lulesh/crc32c.hpp"
#include "lulesh/driver.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define LULESH_CHECKPOINT_HAVE_FSYNC 1
#endif

namespace lulesh {

namespace {

constexpr std::uint64_t record_magic = 0x4C554C4553485F33ULL;   // "LULESH_3"
constexpr std::uint64_t commit_magic = 0x434F4D4D49545F33ULL;   // "COMMIT_3"
constexpr std::uint32_t chain_version = 3;
constexpr std::uint32_t kind_base = 0;
constexpr std::uint32_t kind_delta = 1;

struct record_header {
    std::uint64_t magic = record_magic;
    std::uint32_t version = chain_version;
    std::uint32_t kind = kind_base;
    std::uint32_t num_regions = 0;
    std::uint32_t header_crc = 0;  // CRC over this header with the field zeroed
    std::int32_t size = 0;
    std::int32_t plane_begin = 0;
    std::int32_t plane_end = 0;
    std::int32_t num_elem = 0;
    std::int32_t num_node = 0;
    std::int32_t cycle = 0;
    double time = 0;
    double deltatime = 0;
    double dtcourant = 0;
    double dthydro = 0;
};
static_assert(sizeof(record_header) == 80, "record header must be packed");

struct region_entry {
    std::uint32_t slot = 0;         // checkpoint slot, not the raw field enum
    std::uint32_t payload_crc = 0;  // CRC-32C over this region's doubles
    std::int64_t lo = 0;
    std::int64_t hi = 0;
};
static_assert(sizeof(region_entry) == 24, "region entry must be packed");

// Written last: a record without (or with a corrupt) trailer was never
// committed and the restore path ignores it.
struct commit_trailer {
    std::uint64_t magic = commit_magic;
    std::uint32_t header_crc = 0;   // must echo the record header's CRC
    std::uint32_t regions_crc = 0;  // CRC-32C over the region entry blocks
};
static_assert(sizeof(commit_trailer) == 16, "commit trailer must be packed");

constexpr field checkpoint_fields[num_checkpoint_fields] = {
    field::x, field::y,  field::z, field::xd, field::yd, field::zd,
    field::e, field::p,  field::q, field::v,  field::ss,
};

const std::vector<real_t>* field_vector(const domain& d, field f) {
    switch (f) {
        case field::x: return &d.x;
        case field::y: return &d.y;
        case field::z: return &d.z;
        case field::xd: return &d.xd;
        case field::yd: return &d.yd;
        case field::zd: return &d.zd;
        case field::e: return &d.e;
        case field::p: return &d.p;
        case field::q: return &d.q;
        case field::v: return &d.v;
        case field::ss: return &d.ss;
        default: return nullptr;
    }
}

std::vector<real_t>* field_vector(domain& d, field f) {
    return const_cast<std::vector<real_t>*>(
        field_vector(static_cast<const domain&>(d), f));
}

index_t field_extent(const domain& d, field f) {
    return field_space(f) == space::node ? d.numNode() : d.numElem();
}

std::uint32_t crc_of(const void* p, std::size_t n) {
    crc32c c;
    c.update(p, n);
    return c.value();
}

std::uint32_t header_crc_of(record_header h) {
    h.header_crc = 0;
    return crc_of(&h, sizeof(h));
}

std::string hex32(std::uint32_t v) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%08X", v);
    return buf;
}

[[noreturn]] void record_fail(const std::string& context,
                              const std::string& why) {
    throw checkpoint_error("lulesh: chain record invalid in " + context +
                           ": " + why);
}

// --- crash-injection seam for the torture test ---------------------------
//
// Every chain-file byte goes through chain_write(); when the budget is
// armed (in a forked child only) the write stops partway and the process
// exits, simulating a crash at an arbitrary byte offset.

amt::atomic<long long> g_crash_after{-1};

void chain_write(std::ofstream& out, const char* p, std::size_t n) {
    const long long budget = g_crash_after.load(amt::memory_order_relaxed);
    if (budget >= 0) {
        if (static_cast<long long>(n) >= budget) {
            out.write(p, static_cast<std::streamsize>(budget));
            out.flush();
#if LULESH_CHECKPOINT_HAVE_FSYNC
            ::_exit(42);
#endif
        }
        g_crash_after.store(budget - static_cast<long long>(n),
                            amt::memory_order_relaxed);
    }
    out.write(p, static_cast<std::streamsize>(n));
    if (!out) throw checkpoint_error("lulesh: chain write failed");
}

void fsync_path(const std::string& path) {
#if LULESH_CHECKPOINT_HAVE_FSYNC
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
#else
    (void)path;
#endif
}

}  // namespace

void set_chain_crash_after_bytes(long long n) noexcept {
    g_crash_after.store(n, amt::memory_order_relaxed);
}

field checkpoint_field_at(std::size_t slot) noexcept {
    return checkpoint_fields[slot];
}

int checkpoint_slot(field f) noexcept {
    for (std::size_t s = 0; s < num_checkpoint_fields; ++s) {
        if (checkpoint_fields[s] == f) return static_cast<int>(s);
    }
    return -1;
}

std::vector<dirty_region> full_coverage(const domain& d) {
    std::vector<dirty_region> out;
    out.reserve(num_checkpoint_fields);
    for (field f : checkpoint_fields) out.push_back({f, 0, field_extent(d, f)});
    return out;
}

// --- dirty_tracker -------------------------------------------------------

void dirty_tracker::mark(field f, index_t lo, index_t hi) {
    const int slot = checkpoint_slot(f);
    if (slot < 0 || lo >= hi) return;
    marks_[slot].emplace_back(lo, hi);
}

bool dirty_tracker::empty() const noexcept {
    for (const auto& m : marks_) {
        if (!m.empty()) return false;
    }
    return true;
}

void dirty_tracker::clear() noexcept {
    for (auto& m : marks_) m.clear();
}

std::vector<dirty_region> dirty_tracker::take(const domain& d) {
    std::vector<dirty_region> out;
    for (std::size_t s = 0; s < num_checkpoint_fields; ++s) {
        auto& m = marks_[s];
        if (m.empty()) continue;
        const field f = checkpoint_fields[s];
        const index_t extent = field_extent(d, f);
        std::sort(m.begin(), m.end());
        index_t lo = -1;
        index_t hi = -1;
        for (auto [a, b] : m) {
            a = std::max<index_t>(a, 0);
            b = std::min(b, extent);
            if (a >= b) continue;
            if (lo < 0) {
                lo = a;
                hi = b;
            } else if (a <= hi) {  // overlapping or adjacent: extend
                hi = std::max(hi, b);
            } else {
                out.push_back({f, lo, hi});
                lo = a;
                hi = b;
            }
        }
        if (lo >= 0) out.push_back({f, lo, hi});
        m.clear();
    }
    return out;
}

// --- state_capture -------------------------------------------------------

state_capture::state_capture(const domain& d, std::vector<dirty_region> regions,
                             bool base, std::string recycled)
    : d_(&d), regions_(std::move(regions)), buf_(std::move(recycled)),
      cycle_(d.cycle) {
    record_header h;
    h.kind = base ? kind_base : kind_delta;
    h.num_regions = static_cast<std::uint32_t>(regions_.size());
    h.size = d.size_per_edge();
    h.plane_begin = d.slab().plane_begin;
    h.plane_end = d.slab().plane_end;
    h.num_elem = d.numElem();
    h.num_node = d.numNode();
    h.cycle = d.cycle;
    h.time = d.time_;
    h.deltatime = d.deltatime;
    h.dtcourant = d.dtcourant;
    h.dthydro = d.dthydro;
    h.header_crc = header_crc_of(h);

    std::size_t total = sizeof(record_header) + sizeof(commit_trailer);
    for (const auto& r : regions_) {
        total += sizeof(region_entry) +
                 static_cast<std::size_t>(r.hi - r.lo) * sizeof(real_t);
    }
    buf_.resize(total);
    std::memcpy(buf_.data(), &h, sizeof(h));

    payload_offset_.reserve(regions_.size());
    std::size_t off = sizeof(record_header);
    for (const auto& r : regions_) {
        region_entry e;
        e.slot = static_cast<std::uint32_t>(checkpoint_slot(r.f));
        e.lo = r.lo;
        e.hi = r.hi;
        std::memcpy(buf_.data() + off, &e, sizeof(e));
        off += sizeof(e);
        payload_offset_.push_back(off);
        off += static_cast<std::size_t>(r.hi - r.lo) * sizeof(real_t);
    }

    claims_ = std::make_unique<amt::atomic<int>[]>(regions_.size());
    // relaxed: single-threaded setup — pack tasks are spawned after this
    // constructor returns, and the spawn itself publishes the array.
    for (std::size_t i = 0; i < regions_.size(); ++i)
        claims_[i].store(0, amt::memory_order_relaxed);
}

bool state_capture::pack_region(std::size_t i) noexcept {
    int expected = 0;
    // relaxed: the claim token only arbitrates WHICH packer runs; the field
    // data it packs was written before the pack tasks were spawned, so
    // visibility comes from the spawn edge, not from this CAS.
    if (!claims_[i].compare_exchange_strong(expected, 1,
                                            amt::memory_order_relaxed)) {
        return false;
    }
    static auto& pack_hist = amt::metrics::get_histogram(
        "lulesh_checkpoint_pack_ns",
        "per-region fused copy+CRC32C checkpoint packing time");
    amt::metrics::scoped_timer pack_timer(pack_hist);
    const dirty_region& r = regions_[i];
    const std::vector<real_t>* src = field_vector(*d_, r.f);
    const std::size_t bytes =
        static_cast<std::size_t>(r.hi - r.lo) * sizeof(real_t);
    hazard_touch(r.f, /*write=*/false, r.lo, r.hi);
    // One pass over the source: fused copy + checksum, streaming the
    // payload past the cache (the record is only read back on restore).
    const std::uint32_t crc =
        crc32c_copy(buf_.data() + payload_offset_[i], src->data() + r.lo,
                    bytes);
    // The payload CRC lives at offset 4 of this region's entry.
    std::memcpy(buf_.data() + payload_offset_[i] - sizeof(region_entry) +
                    offsetof(region_entry, payload_crc),
                &crc, sizeof(crc));
    // release: marks this region's payload+CRC bytes in buf_ complete for
    // anyone who observes state 2 (restore-side validation reads them).
    claims_[i].store(2, amt::memory_order_release);
    // acq_rel: the final packer's increment must carry every earlier
    // packer's buf_ writes to the wait_packed() acquire load below.
    if (packed_.fetch_add(1, amt::memory_order_acq_rel) + 1 ==
        regions_.size()) {
        std::lock_guard<std::mutex> lk(mu_);
        cv_.notify_all();
    }
    return true;
}

void state_capture::pack_remaining() noexcept {
    for (std::size_t i = 0; i < regions_.size(); ++i) pack_region(i);
}

void state_capture::mark_failed() noexcept {
    // relaxed: pure flag, no payload handoff (see failed() accessor).
    failed_.store(true, amt::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(mu_);
    cv_.notify_all();
}

void state_capture::wait_packed() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] {
        // acquire on packed_ pairs with the packers' acq_rel increments so
        // take_record() may read buf_ afterwards; failed_ stays relaxed
        // (flag only).
        return failed_.load(amt::memory_order_relaxed) ||
               packed_.load(amt::memory_order_acquire) == regions_.size();
    });
}

std::string state_capture::take_record() {
    crc32c regions_crc;
    std::size_t off = sizeof(record_header);
    for (const auto& r : regions_) {
        regions_crc.update(buf_.data() + off, sizeof(region_entry));
        off += sizeof(region_entry) +
               static_cast<std::size_t>(r.hi - r.lo) * sizeof(real_t);
    }
    commit_trailer t;
    std::memcpy(&t.header_crc, buf_.data() + offsetof(record_header, header_crc),
                sizeof(t.header_crc));
    t.regions_crc = regions_crc.value();
    std::memcpy(buf_.data() + buf_.size() - sizeof(t), &t, sizeof(t));
    return std::move(buf_);
}

std::string pack_full_record(const domain& d, bool base) {
    state_capture cap(d, full_coverage(d), base);
    cap.pack_remaining();
    cap.wait_packed();
    return cap.take_record();
}

// --- record validation + apply -------------------------------------------

void apply_chain_record(domain& d, std::string_view record,
                        const std::string& context) {
    const char* p = record.data();
    const std::size_t n = record.size();
    if (n < sizeof(record_header) + sizeof(commit_trailer)) {
        record_fail(context, "record truncated");
    }
    record_header h;
    std::memcpy(&h, p, sizeof(h));
    if (h.magic != record_magic) record_fail(context, "bad record magic");
    if (h.version != chain_version) {
        record_fail(context, "unsupported chain version");
    }
    if (header_crc_of(h) != h.header_crc) {
        record_fail(context, "header checksum mismatch (expected " +
                                 hex32(header_crc_of(h)) + ", actual " +
                                 hex32(h.header_crc) + ")");
    }
    if (h.size != d.size_per_edge() || h.plane_begin != d.slab().plane_begin ||
        h.plane_end != d.slab().plane_end || h.num_elem != d.numElem() ||
        h.num_node != d.numNode()) {
        throw checkpoint_error("lulesh: chain record in " + context +
                               " does not match this domain's shape");
    }
    const std::string cycle_ctx = " (cycle " + std::to_string(h.cycle) + ")";

    // Walk the region entries: bounds-check everything before trusting any
    // size, and accumulate the entry CRC the trailer must echo.
    std::vector<region_entry> entries(h.num_regions);
    std::vector<std::size_t> payload_off(h.num_regions);
    crc32c regions_crc;
    std::size_t off = sizeof(record_header);
    const std::size_t payload_end = n - sizeof(commit_trailer);
    for (std::uint32_t i = 0; i < h.num_regions; ++i) {
        if (off + sizeof(region_entry) > payload_end) {
            record_fail(context, "region table truncated" + cycle_ctx);
        }
        region_entry e;
        std::memcpy(&e, p + off, sizeof(e));
        regions_crc.update(p + off, sizeof(e));
        off += sizeof(e);
        if (e.slot >= num_checkpoint_fields) {
            record_fail(context, "unknown field slot" + cycle_ctx);
        }
        const field f = checkpoint_fields[e.slot];
        const auto extent = static_cast<std::int64_t>(field_extent(d, f));
        if (e.lo < 0 || e.lo > e.hi || e.hi > extent) {
            record_fail(context, "region range out of bounds for field " +
                                     std::string(field_name(f)) + cycle_ctx);
        }
        const std::size_t bytes =
            static_cast<std::size_t>(e.hi - e.lo) * sizeof(real_t);
        if (off + bytes > payload_end) {
            record_fail(context, "region payload truncated" + cycle_ctx);
        }
        entries[i] = e;
        payload_off[i] = off;
        off += bytes;
    }
    if (off != payload_end) {
        record_fail(context, "trailing bytes after last region" + cycle_ctx);
    }
    commit_trailer t;
    std::memcpy(&t, p + off, sizeof(t));
    if (t.magic != commit_magic || t.header_crc != h.header_crc) {
        record_fail(context, "commit trailer missing or torn" + cycle_ctx);
    }
    if (t.regions_crc != regions_crc.value()) {
        record_fail(context, "region table checksum mismatch" + cycle_ctx +
                                 " (expected " + hex32(regions_crc.value()) +
                                 ", actual " + hex32(t.regions_crc) + ")");
    }
    for (std::uint32_t i = 0; i < h.num_regions; ++i) {
        const std::size_t bytes =
            static_cast<std::size_t>(entries[i].hi - entries[i].lo) *
            sizeof(real_t);
        const std::uint32_t actual = crc_of(p + payload_off[i], bytes);
        if (actual != entries[i].payload_crc) {
            throw checkpoint_error(
                "lulesh: checkpoint payload checksum mismatch in " + context +
                cycle_ctx + " for field " +
                field_name(checkpoint_fields[entries[i].slot]) +
                " (expected " + hex32(entries[i].payload_crc) + ", actual " +
                hex32(actual) + ")");
        }
    }

    // Everything verified — only now touch the domain.
    for (std::uint32_t i = 0; i < h.num_regions; ++i) {
        const region_entry& e = entries[i];
        std::vector<real_t>* dst =
            field_vector(d, checkpoint_fields[e.slot]);
        std::memcpy(dst->data() + e.lo, p + payload_off[i],
                    static_cast<std::size_t>(e.hi - e.lo) * sizeof(real_t));
    }
    d.cycle = h.cycle;
    d.time_ = h.time;
    d.deltatime = h.deltatime;
    d.dtcourant = h.dtcourant;
    d.dthydro = h.dthydro;
}

// --- record_ring ---------------------------------------------------------

void record_ring::commit(int cycle, std::string record) {
    if (records_.size() == 2) {
        spare_ = std::move(records_.front());
        records_.erase(records_.begin());
        cycles_.erase(cycles_.begin());
    }
    records_.push_back(std::move(record));
    cycles_.push_back(cycle);
}

void record_ring::restore(domain& d, int cycle, const std::string& context) {
    const auto k = static_cast<std::size_t>(
        std::find(cycles_.begin(), cycles_.end(), cycle) - cycles_.begin());
    if (k == cycles_.size()) {
        throw checkpoint_error("lulesh: " + context +
                               " holds no record of cycle " +
                               std::to_string(cycle));
    }
    try {
        apply_chain_record(d, records_[k], context);
    } catch (const checkpoint_error&) {
        drop_from(k);
        throw;
    }
    drop_from(k + 1);
}

void record_ring::drop_from(std::size_t k) noexcept {
    while (records_.size() > k) {
        spare_ = std::move(records_.back());
        records_.pop_back();
        cycles_.pop_back();
    }
}

// --- stream/file restore -------------------------------------------------

namespace {

/// Reads one record's bytes from the stream, using the (CRC-protected)
/// header to find its end.  Returns false on clean EOF or any torn/invalid
/// framing — the caller treats that as the end of the committed chain.
bool extract_record(std::istream& in, const domain& d, std::string& out) {
    record_header h;
    in.read(reinterpret_cast<char*>(&h), sizeof(h));
    if (in.gcount() != static_cast<std::streamsize>(sizeof(h))) return false;
    if (h.magic != record_magic || h.version != chain_version ||
        header_crc_of(h) != h.header_crc) {
        return false;
    }
    // Bound each region by the domain's extents before trusting its size;
    // a corrupt entry fails here or at trailer validation, never causes an
    // unbounded read.
    std::size_t total = sizeof(record_header) + sizeof(commit_trailer);
    std::vector<char> entry_buf(static_cast<std::size_t>(h.num_regions) *
                                sizeof(region_entry));
    out.assign(reinterpret_cast<const char*>(&h), sizeof(h));
    for (std::uint32_t i = 0; i < h.num_regions; ++i) {
        region_entry e;
        in.read(reinterpret_cast<char*>(&e), sizeof(e));
        if (in.gcount() != static_cast<std::streamsize>(sizeof(e))) {
            return false;
        }
        out.append(reinterpret_cast<const char*>(&e), sizeof(e));
        if (e.slot >= num_checkpoint_fields || e.lo < 0 || e.lo > e.hi) {
            return false;
        }
        const auto extent = static_cast<std::int64_t>(
            field_extent(d, checkpoint_fields[e.slot]));
        if (e.hi > extent) return false;
        const std::size_t bytes =
            static_cast<std::size_t>(e.hi - e.lo) * sizeof(real_t);
        const std::size_t old = out.size();
        out.resize(old + bytes);
        in.read(out.data() + old, static_cast<std::streamsize>(bytes));
        if (in.gcount() != static_cast<std::streamsize>(bytes)) return false;
        total += sizeof(region_entry) + bytes;
    }
    commit_trailer t;
    in.read(reinterpret_cast<char*>(&t), sizeof(t));
    if (in.gcount() != static_cast<std::streamsize>(sizeof(t))) return false;
    out.append(reinterpret_cast<const char*>(&t), sizeof(t));
    (void)total;
    return true;
}

}  // namespace

std::vector<std::string> read_chain_records(const domain& d, std::istream& in,
                                            const std::string& context) {
    // A committed chain for a *different mesh* must say so.  Without this
    // peek it would be misreported: extract_record bounds every region by
    // this domain's extents, so a shape-mismatched record looks torn and
    // the chain would read as holding no committed record.
    {
        const auto start = in.tellg();
        record_header h;
        in.read(reinterpret_cast<char*>(&h), sizeof(h));
        if (in.gcount() == static_cast<std::streamsize>(sizeof(h)) &&
            h.magic == record_magic && h.version == chain_version &&
            header_crc_of(h) == h.header_crc &&
            (h.size != d.size_per_edge() ||
             h.plane_begin != d.slab().plane_begin ||
             h.plane_end != d.slab().plane_end ||
             h.num_elem != d.numElem() || h.num_node != d.numNode())) {
            throw checkpoint_error("lulesh: chain record in " + context +
                                   " does not match this domain's shape");
        }
        in.clear();
        in.seekg(start);
    }
    std::vector<std::string> records;
    std::string record;
    while (extract_record(in, d, record)) {
        records.push_back(record);
    }
    return records;
}

void restore_chain_stream(domain& d, std::istream& in,
                          const std::string& context) {
    const std::vector<std::string> records =
        read_chain_records(d, in, context);
    if (records.empty()) {
        record_fail(context, "no committed base record found");
    }
    if (!chain_record_is_base(records.front())) {
        record_fail(context, "chain does not start with a base record");
    }
    // Start from the newest base record and apply the deltas after it up
    // to the first that fails validation.  Only a base that fails sends the
    // restore back to the next older base, whose deltas then run up to the
    // failed one.
    std::size_t end = records.size();
    for (std::size_t b = end; b-- > 0;) {
        if (!chain_record_is_base(records[b])) continue;
        try {
            apply_chain_record(d, records[b], context);
        } catch (const checkpoint_error&) {
            if (b == 0) throw;
            end = b;
            continue;
        }
        for (std::size_t j = b + 1; j < end; ++j) {
            try {
                apply_chain_record(d, records[j], context);
            } catch (const checkpoint_error&) {
                break;  // corrupt tail: keep the longest valid prefix
            }
        }
        return;
    }
}

int chain_record_cycle(std::string_view record) noexcept {
    record_header h;
    if (record.size() < sizeof(h)) return -1;
    std::memcpy(&h, record.data(), sizeof(h));
    if (h.magic != record_magic || h.version != chain_version ||
        header_crc_of(h) != h.header_crc) {
        return -1;
    }
    return h.cycle;
}

bool chain_record_is_base(std::string_view record) noexcept {
    record_header h;
    if (record.size() < sizeof(h)) return false;
    std::memcpy(&h, record.data(), sizeof(h));
    if (h.magic != record_magic || h.version != chain_version ||
        header_crc_of(h) != h.header_crc) {
        return false;
    }
    return h.kind == kind_base;
}

void write_chain_file(const std::string& path,
                      const std::vector<std::string>& records) {
    // Atomic protocol: temp file, fsync, rename.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            throw checkpoint_error("lulesh: cannot open '" + tmp +
                                   "' for writing");
        }
        try {
            for (const auto& r : records) chain_write(out, r.data(), r.size());
            out.flush();
            if (!out) throw checkpoint_error("lulesh: chain write failed");
        } catch (...) {
            out.close();
            std::remove(tmp.c_str());
            throw;
        }
    }
    fsync_path(tmp);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw checkpoint_error("lulesh: cannot rename '" + tmp + "' to '" +
                               path + "'");
    }
}

void append_chain_record_file(const std::string& path,
                              std::string_view record) {
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        if (!out) {
            throw checkpoint_error("lulesh: cannot open '" + path +
                                   "' for appending");
        }
        chain_write(out, record.data(), record.size());
        out.flush();
        if (!out) throw checkpoint_error("lulesh: chain append failed");
    }
    fsync_path(path);
}

// --- driver defaults -----------------------------------------------------
//
// Defined here (not in driver.hpp) so the driver interface only needs the
// forward declarations: an iteration dirties every checkpointed field in
// full, and a driver that cannot overlap packing declines the capture so
// the resilient loop packs synchronously.

void driver::record_dirty(dirty_tracker& t, const domain& d) const {
    for (std::size_t s = 0; s < num_checkpoint_fields; ++s) {
        const field f = checkpoint_field_at(s);
        t.mark(f, 0, field_extent(d, f));
    }
}

bool driver::submit_overlapped_capture(std::shared_ptr<state_capture>) {
    return false;
}

}  // namespace lulesh
