// core/driver_foreach.cpp — naive for_each-style driver (ablation baseline).

#include "core/driver_foreach.hpp"

#include "lulesh/fork_join_step.hpp"

namespace lulesh {

namespace {

/// amt backend of the fork-join step: every loop is one bulk_async wave of
/// chunk tasks followed by a blocking wait — the for_each pattern.
class wave_loops {
public:
    wave_loops(amt::runtime& rt, std::vector<kernels::dt_constraints>& partials)
        : rt_(rt), partials_(partials) {}

    /// Labels the tasks of the following loops with the section (static
    /// storage, like the wave sites).
    void section(step_section s) {
        constexpr const char* labels[] = {"foreach:nodal", "foreach:elem",
                                          "foreach:eos", "foreach:constraints"};
        site_ = labels[static_cast<int>(s)];
    }

    template <class F>
    void loop(index_t n, F&& body) {
        const index_t chunk = chunk_for(n);
        const char* site = site_;
        auto wave = amt::bulk_async(
            rt_, 0, n, chunk,
            [body, site, chunk](amt::index_t lo, amt::index_t hi) mutable {
                amt::annotate_task(
                    site, static_cast<std::int32_t>(
                              static_cast<std::int64_t>(lo) /
                              static_cast<std::int64_t>(chunk)));
                body(static_cast<index_t>(lo), static_cast<index_t>(hi));
            });
        amt::wait_all(wave);
        for (auto& f : wave) f.get();
    }

    /// for_each has no nowait form: one wave, and one barrier, per loop.
    template <class... Loops>
    void nowait_loops(const Loops&... loops) {
        (loop(loops.n, loops.body), ...);
    }

    /// Each chunk task writes its own partial; they are combined in chunk
    /// order after the wave.
    template <class F>
    kernels::dt_constraints reduce_min(index_t n, F&& body) {
        const index_t chunk = chunk_for(n);
        partials_.assign(static_cast<std::size_t>((n + chunk - 1) / chunk),
                         kernels::dt_constraints{});
        kernels::dt_constraints* out = partials_.data();
        loop(n, [&body, out, chunk](index_t lo, index_t hi) {
            out[lo / chunk] = body(lo, hi);
        });
        kernels::dt_constraints combined;
        for (const auto& partial : partials_) {
            combined = kernels::min_constraints(combined, partial);
        }
        return combined;
    }

private:
    /// Chunking comparable to a parallel-algorithm default: a handful of
    /// chunks per worker so the scheduler can balance, without the caller
    /// tuning anything.
    [[nodiscard]] index_t chunk_for(index_t n) const {
        const auto workers = static_cast<index_t>(rt_.num_workers());
        return std::max<index_t>(1, n / (workers * 8));
    }

    amt::runtime& rt_;
    std::vector<kernels::dt_constraints>& partials_;
    const char* site_ = "foreach";
};

}  // namespace

void foreach_driver::advance(domain& d) {
    wave_loops loops(rt_, partials_);
    fork_join_step(d, loops, scratch_);
}

}  // namespace lulesh
