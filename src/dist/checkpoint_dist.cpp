// dist/checkpoint_dist.cpp — per-slab v3 checkpoint chains.

#include "dist/checkpoint_dist.hpp"

#include <algorithm>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "lulesh/checkpoint.hpp"
#include "lulesh/checkpoint_chain.hpp"

namespace lulesh::dist {

std::string slab_chain_path(const std::string& path, index_t i) {
    return path + ".slab" + std::to_string(i);
}

// Whole-cluster chain files are saved and appended between runs, with no
// next cycle to overlap with, so their records are packed synchronously;
// dist::run_resilient overlaps its per-cycle records with the next cycle
// (dist_driver::submit_overlapped_capture).
void save_cluster_chains(cluster& c, const std::string& path) {
    for (index_t i = 0; i < c.num_slabs(); ++i) {
        write_chain_file(slab_chain_path(path, i),
                         {pack_full_record(c.slab(i), /*base=*/true)});
    }
}

void append_cluster_deltas(cluster& c, const std::string& path) {
    for (index_t i = 0; i < c.num_slabs(); ++i) {
        append_chain_record_file(slab_chain_path(path, i),
                                 pack_full_record(c.slab(i), /*base=*/false));
    }
}

void load_cluster_chains(cluster& c, const std::string& path) {
    const auto n = static_cast<std::size_t>(c.num_slabs());
    std::vector<std::vector<std::string>> records(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::string file = slab_chain_path(path, static_cast<index_t>(i));
        std::ifstream in(file, std::ios::binary);
        if (!in) {
            throw checkpoint_error("cannot open checkpoint chain: " + file);
        }
        records[i] = read_chain_records(c.slab(static_cast<index_t>(i)), in,
                                        file);
        if (records[i].empty() || !chain_record_is_base(records[i][0])) {
            throw checkpoint_error("checkpoint chain has no committed base "
                                   "record: " + file);
        }
    }

    // Consistent-cycle restore: the target is the newest cycle every slab
    // has (min of the chain heads — the chains are written in lockstep, so
    // that cycle exists in every chain).  Each slab applies its newest base
    // record at or before the target, then the deltas after it up to the
    // target.  A record that fails full validation truncates its slab's
    // chain there and lowers the target; the restore starts over, which is
    // idempotent because apply_chain_record never partially mutates and a
    // base record fully overwrites the restored state.
    for (;;) {
        int target = chain_record_cycle(records[0].back());
        for (std::size_t i = 1; i < n; ++i) {
            target = std::min(target, chain_record_cycle(records[i].back()));
        }
        bool truncated = false;
        for (std::size_t i = 0; i < n && !truncated; ++i) {
            const std::string file =
                slab_chain_path(path, static_cast<index_t>(i));
            std::vector<std::string>& recs = records[i];
            std::size_t end = 0;  // one past the last record <= target
            while (end < recs.size() &&
                   chain_record_cycle(recs[end]) <= target) {
                ++end;
            }
            std::size_t base = end;
            while (base > 0 && !chain_record_is_base(recs[base - 1])) --base;
            if (base == 0) {
                throw checkpoint_error("checkpoint chain has no base record at "
                                       "or before cycle " +
                                       std::to_string(target) + ": " + file);
            }
            for (std::size_t j = base - 1; j < end; ++j) {
                try {
                    apply_chain_record(c.slab(static_cast<index_t>(i)),
                                       recs[j], file);
                } catch (const checkpoint_error&) {
                    if (j == 0) throw;  // the oldest base itself is corrupt
                    recs.resize(j);
                    truncated = true;
                    break;
                }
            }
        }
        if (!truncated) return;
    }
}

}  // namespace lulesh::dist
