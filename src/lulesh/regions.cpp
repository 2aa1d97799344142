// lulesh/regions.cpp — element → material-region assignment.
//
// Reproduces the reference's CreateRegionIndexSets: elements are assigned in
// random-length runs to randomly chosen regions, where the probability of a
// region is proportional to (region_index + 1)^balance and consecutive runs
// never pick the same region.  The reference uses libc rand(); we use a
// fixed 64-bit LCG so that region maps are identical across platforms (the
// substitution only changes *which* deterministic map is produced, not its
// statistics).

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "lulesh/domain.hpp"

namespace lulesh {

namespace {

/// Deterministic stand-in for the reference's srand/rand pair.
class lcg {
public:
    explicit lcg(std::uint64_t seed) : state_(seed * 2862933555777941757ULL + 3037000493ULL) {}

    /// Uniform value in [0, bound); bound must be > 0.
    std::uint64_t next(std::uint64_t bound) {
        state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
        // Upper bits have the best statistical quality for an LCG.
        return (state_ >> 33) % bound;
    }

private:
    std::uint64_t state_;
};

/// Selection weight of region i, (i+1)^balance, computed as the reference
/// does.
double region_weight(index_t i, int balance) {
    return std::pow(static_cast<double>(i + 1), static_cast<double>(balance));
}

}  // namespace

// A negative balance truncates every weight but region 0's to 0, so the
// never-the-same-region-twice draw below could never end; a weight or sum
// past 2^64 has no defined integer value.  lcg::next draws
// (state >> 33) % sum, so its draws span only R = min(sum, 2^31) values; a
// region whose bins cover all but fewer than R / 2^20 of them needs more
// than 2^20 draws on average to be left, every time the map enters it.
// Rejecting those caps the expected redraws per run at 2^20.
void check_region_balance(index_t num_regions, int balance) {
    if (balance < 0) {
        throw std::invalid_argument("lulesh: region balance (-b) must be >= 0");
    }
    constexpr double two_to_64 = 18446744073709551616.0;
    std::uint64_t sum = 0;
    for (index_t i = 0; i < num_regions; ++i) {
        const double w = region_weight(i, balance);
        if (w >= two_to_64 ||
            static_cast<std::uint64_t>(w) >
                std::numeric_limits<std::uint64_t>::max() - sum) {
            throw std::invalid_argument(
                "lulesh: region balance (-b) " + std::to_string(balance) +
                " gives " + std::to_string(num_regions) +
                " regions weights past 2^64");
        }
        sum += static_cast<std::uint64_t>(w);
    }
    if (num_regions == 1) return;  // one region draws nothing
    const std::uint64_t drawn = std::min<std::uint64_t>(sum, 1ULL << 31);
    std::uint64_t lo = 0;
    for (index_t i = 0; i < num_regions; ++i) {
        const std::uint64_t hi =
            lo + static_cast<std::uint64_t>(region_weight(i, balance));
        const std::uint64_t others =
            drawn - (std::min(hi, drawn) - std::min(lo, drawn));
        if (others << 20 < drawn) {
            throw std::invalid_argument(
                "lulesh: region balance (-b) " + std::to_string(balance) +
                " leaves region " + std::to_string(i) + " of " +
                std::to_string(num_regions) +
                " too rarely to finish the region map");
        }
        lo = hi;
    }
}

void build_regions(domain& d, const options& opts) {
    check_region_balance(opts.num_regions, opts.balance);
    const index_t num_reg = opts.num_regions;
    const index_t num_elem = d.num_elem_;
    // The assignment is always generated for the *global* problem and then
    // sliced, so that slab decompositions see exactly the global region map.
    const index_t global_elems =
        d.slab().total_planes * d.elems_per_plane();
    const index_t offset = d.elem_offset();
    d.reg_num_list_.assign(static_cast<std::size_t>(num_elem), 0);
    d.reg_elem_list_.assign(static_cast<std::size_t>(num_reg), {});

    if (num_reg == 1) {
        auto& all = d.reg_elem_list_[0];
        all.resize(static_cast<std::size_t>(num_elem));
        for (index_t i = 0; i < num_elem; ++i) all[static_cast<std::size_t>(i)] = i;
        return;
    }

    lcg rng(opts.region_seed + 1);

    // Region weights: probability of region i proportional to (i+1)^balance.
    std::vector<std::uint64_t> bin_end(static_cast<std::size_t>(num_reg));
    std::uint64_t cost_denominator = 0;
    for (index_t i = 0; i < num_reg; ++i) {
        cost_denominator +=
            static_cast<std::uint64_t>(region_weight(i, opts.balance));
        bin_end[static_cast<std::size_t>(i)] = cost_denominator;
    }

    std::vector<index_t> global_reg(static_cast<std::size_t>(global_elems), 0);
    index_t next_index = 0;
    index_t last_reg = -1;
    while (next_index < global_elems) {
        // Pick a region (biased by weight, never the same twice in a row).
        index_t region_num = -1;
        do {
            const std::uint64_t region_var = rng.next(cost_denominator);
            index_t i = 0;
            while (region_var >= bin_end[static_cast<std::size_t>(i)]) ++i;
            region_num = i;
        } while (region_num == last_reg);

        // Pick the run length from the reference's long-tailed distribution.
        const std::uint64_t bin_size = rng.next(1000);
        index_t elements;
        if (bin_size < 773) {
            elements = static_cast<index_t>(rng.next(15)) + 1;
        } else if (bin_size < 937) {
            elements = static_cast<index_t>(rng.next(16)) + 16;
        } else if (bin_size < 970) {
            elements = static_cast<index_t>(rng.next(32)) + 32;
        } else if (bin_size < 974) {
            elements = static_cast<index_t>(rng.next(64)) + 64;
        } else if (bin_size < 978) {
            elements = static_cast<index_t>(rng.next(128)) + 128;
        } else if (bin_size < 981) {
            elements = static_cast<index_t>(rng.next(256)) + 256;
        } else {
            elements = static_cast<index_t>(rng.next(1537)) + 512;
        }

        const index_t runto =
            std::min<index_t>(next_index + elements, global_elems);
        for (; next_index < runto; ++next_index) {
            global_reg[static_cast<std::size_t>(next_index)] = region_num;
        }
        last_reg = region_num;
    }

    for (index_t i = 0; i < num_elem; ++i) {
        const index_t r = global_reg[static_cast<std::size_t>(offset + i)];
        d.reg_num_list_[static_cast<std::size_t>(i)] = r;
        d.reg_elem_list_[static_cast<std::size_t>(r)].push_back(i);
    }
}

}  // namespace lulesh
