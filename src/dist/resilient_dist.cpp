// dist/resilient_dist.cpp — the cluster as a resilient_system, and the
// two run loops over it.

#include "dist/resilient_dist.hpp"

#include <memory>
#include <string>
#include <utility>

#include "amt/amt.hpp"
#include "dist/checkpoint_dist.hpp"

namespace lulesh::dist {

namespace {

class cluster_system final : public resilient_system {
public:
    cluster_system(cluster& c, dist_driver& drv) : c_(c), drv_(drv) {}

    [[nodiscard]] index_t num_slabs() const override {
        return c_.num_slabs();
    }
    domain& slab(index_t i) override { return c_.slab(i); }
    void advance() override { drv_.advance(c_); }
    bool submit_capture(index_t i,
                        std::shared_ptr<state_capture> cap) override {
        return drv_.submit_overlapped_capture(i, std::move(cap));
    }

    // Degrades to exactly the status (and process exit code) the fail-stop
    // path maps this failure to: stalled peers, injected faults and physics
    // errors all keep their established codes.
    [[nodiscard]] failure_diagnosis diagnose(
        const std::exception& e) const override {
        failure_diagnosis f = resilient_system::diagnose(e);
        const bool cascade =
            dynamic_cast<const amt::channel_closed*>(&e) != nullptr;
        const slab_failure& named = drv_.last_failure();
        f.retryable = f.retryable || cascade;
        f.transient = f.transient || named.transient;
        f.slab = named.slab;
        if (named.code != status::ok) {
            f.code = named.transient ? status::task_fault : named.code;
        } else if (cascade) {
            f.code = status::stalled;
        }
        return f;
    }

    void before_rollback(const failure_diagnosis& f) override {
        if (f.slab >= 0) {
            c_.rebuild_slab(f.slab);
            amt::trace::mark("dist:slab_rebuild",
                             static_cast<std::int32_t>(f.slab));
        }
        c_.reopen_channels();
    }

    [[nodiscard]] std::string mirror_path(const std::string& path,
                                          index_t i) const override {
        return slab_chain_path(path, i);
    }

private:
    cluster& c_;
    dist_driver& drv_;
};

}  // namespace

resilient_result run_resilient(cluster& c, dist_driver& drv,
                               const resilience_options& opt,
                               int max_cycles) {
    cluster_system sys(c, drv);
    return lulesh::run_resilient(sys, opt, max_cycles);
}

run_result run_simulation(cluster& c, dist_driver& drv, int max_cycles) {
    cluster_system sys(c, drv);
    return lulesh::run_simulation(sys, max_cycles);
}

}  // namespace lulesh::dist
