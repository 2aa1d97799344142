// dist/checkpoint_dist.cpp — per-slab v3 checkpoint chains.

#include "dist/checkpoint_dist.hpp"

#include <fstream>
#include <string>
#include <vector>

#include "lulesh/checkpoint.hpp"
#include "lulesh/checkpoint_chain.hpp"

namespace lulesh::dist {

std::string slab_chain_path(const std::string& path, index_t i) {
    return path + ".slab" + std::to_string(i);
}

// Whole-cluster chain files are saved between runs, with no next cycle to
// overlap with, so their records are packed synchronously; the resilient
// loop overlaps its per-cycle records with the next cycle
// (taskgraph_driver::submit_overlapped_capture).
void save_cluster_chains(cluster& c, const std::string& path) {
    for (index_t i = 0; i < c.num_slabs(); ++i) {
        write_chain_file(slab_chain_path(path, i),
                         {pack_full_record(c.slab(i))});
    }
}

void load_cluster_chains(cluster& c, const std::string& path) {
    const auto n = static_cast<std::size_t>(c.num_slabs());
    std::vector<domain*> slabs(n);
    std::vector<record_ring> rings(n);
    std::vector<std::string> files(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto s = static_cast<index_t>(i);
        slabs[i] = &c.slab(s);
        files[i] = slab_chain_path(path, s);
        std::ifstream in(files[i], std::ios::binary);
        if (!in) {
            throw checkpoint_error("cannot open checkpoint chain: " + files[i]);
        }
        rings[i] = record_ring(read_chain_records(*slabs[i], in, files[i]));
        if (rings[i].records().empty()) {
            throw checkpoint_error("checkpoint chain has no committed base "
                                   "record: " + files[i]);
        }
    }
    restore_common_cycle(slabs, rings, files);
}

}  // namespace lulesh::dist
