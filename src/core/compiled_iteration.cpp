// core/compiled_iteration.cpp — compiles slab tables into one replayable
// static graph, the task wrapper every wave-body node runs through, and
// the replay every graph driver runs it by.

#include "core/compiled_iteration.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "lulesh/checkpoint_chain.hpp"
#include "lulesh/driver.hpp"

namespace lulesh::graph {

namespace k = kernels;

compiled_iteration::compiled_iteration(amt::runtime& rt,
                                       std::span<domain* const> slabs,
                                       const config& cfg, fabric fab)
    : rt_(rt),
      cfg_(cfg),
      fabric_(std::move(fab)),
      instrumented_(cfg.track_hazards || cfg.scan_nan),
      slabs_(slabs.size()) {
    for (std::size_t s = 0; s < slabs.size(); ++s) {
        const domain& d = *slabs[s];
        table_shape& shape = slabs_[s].shape;
        shape.elems = d.numElem();
        shape.nodes = d.numNode();
        shape.plane = d.elems_per_plane();
        shape.lower = d.has_lower_neighbor();
        shape.upper = d.has_upper_neighbor();
        for (index_t r = 0; r < d.numReg(); ++r) {
            shape.region_sizes.push_back(
                static_cast<index_t>(d.regElemList(r).size()));
        }
        slabs_[s].table = build_iteration_table(d, cfg.parts);
        slabs_[s].env.dom = slabs[s];
    }
    compile();
    graph_.seal();
    if (fabric_.on_failure) {
        graph_.set_error_hook(
            [this](node_id id, const std::exception_ptr& e) {
                fabric_.on_failure(meta_[id].slab, e);
            });
    }
}

bool compiled_iteration::fits(std::span<domain* const> slabs,
                              const config& cfg) const noexcept {
    if (cfg_.parts.nodal != cfg.parts.nodal ||
        cfg_.parts.elems != cfg.parts.elems ||
        cfg_.track_hazards != cfg.track_hazards ||
        cfg_.scan_nan != cfg.scan_nan || slabs_.size() != slabs.size()) {
        return false;
    }
    for (std::size_t i = 0; i < slabs.size(); ++i) {
        const table_shape& s = slabs_[i].shape;
        const domain& d = *slabs[i];
        if (s.elems != d.numElem() || s.nodes != d.numNode() ||
            s.plane != d.elems_per_plane() ||
            s.lower != d.has_lower_neighbor() ||
            s.upper != d.has_upper_neighbor() ||
            s.region_sizes.size() != static_cast<std::size_t>(d.numReg())) {
            return false;
        }
        for (index_t r = 0; r < d.numReg(); ++r) {
            if (s.region_sizes[static_cast<std::size_t>(r)] !=
                static_cast<index_t>(d.regElemList(r).size())) {
                return false;
            }
        }
    }
    return true;
}

void compiled_iteration::add_capture(std::size_t slab,
                                     std::shared_ptr<state_capture> cap) {
    slabs_[slab].capture = std::move(cap);
}

void compiled_iteration::arm(std::span<domain* const> slabs) {
    // A pack gates the barrier closing its last stage: node fields B1, v
    // B2, the other element fields B3.
    const auto pack_stage = [](const state_capture& cap, std::size_t i) {
        return checkpoint_pack_last_stage(cap.region(i).f);
    };
    ext_ = receives_;
    pack_count_ = 0;
    volume_ok_.store(true, amt::memory_order_relaxed);
    qstop_ok_.store(true, amt::memory_order_relaxed);
    nan_field_.store(nullptr, amt::memory_order_relaxed);
    nan_wave_.store(nullptr, amt::memory_order_relaxed);
    for (std::size_t s = 0; s < slabs_.size(); ++s) {
        slab_state& sl = slabs_[s];
        sl.env.dom = slabs[s];
        sl.env.dt = slabs.front()->deltatime;
        std::fill(sl.partials.begin(), sl.partials.end(),
                  k::dt_constraints{});
        if (instrumented_) build_access_sets(sl);
        if (sl.capture != nullptr) {
            pack_count_ += sl.capture->num_regions();
            for (std::size_t i = 0; i < sl.capture->num_regions(); ++i) {
                ++ext_[set_of(s)][pack_stage(*sl.capture, i)];
            }
        }
    }
    for (auto& st : stamps_) st.fill(amt::clock::time_point{});
    for (std::size_t b = 0; b < barrier_.size(); ++b) {
        for (std::size_t i = 0; i < num_barriers; ++i) {
            if (ext_[b][i] != 0) {
                graph_.set_external_deps(barrier_[b][i], ext_[b][i]);
            }
        }
    }
    graph_.arm(rt_);

    // The overlapped pack tasks: plain posted tasks running the shared
    // pack_region_task body.  Each task's LAST action on every path
    // satisfies one external dependency; the graph cannot finish the gated
    // barrier — and the driver cannot destroy or recompile this object —
    // before every pack task got there.
    for (std::size_t s = 0; s < slabs_.size(); ++s) {
        std::shared_ptr<state_capture> cap = std::move(slabs_[s].capture);
        if (cap == nullptr) continue;
        for (std::size_t i = 0; i < cap->num_regions(); ++i) {
            const node_id gate = barrier_[set_of(s)][pack_stage(*cap, i)];
            rt_.post_fn([this, cap, i, gate] {
                pack_region_task(*cap, i);
                graph_.satisfy_external(gate);
            });
        }
    }
}

void compiled_iteration::reduce_constraints() {
    k::dt_constraints combined;
    for (const slab_state& sl : slabs_) {
        for (const k::dt_constraints& p : sl.partials) {
            combined = k::min_constraints(combined, p);
        }
    }
    for (slab_state& sl : slabs_) {
        sl.env.dom->dtcourant = combined.dtcourant;
        sl.env.dom->dthydro = combined.dthydro;
    }
}

void compiled_iteration::check() const {
    if (!volume_ok_.load(amt::memory_order_relaxed)) {
        throw simulation_error(status::volume_error,
                               "non-positive volume detected");
    }
    if (!qstop_ok_.load(amt::memory_order_relaxed)) {
        throw simulation_error(status::qstop_error,
                               "artificial viscosity exceeded qstop");
    }
    if (const char* fname = nan_field_.load(amt::memory_order_relaxed)) {
        throw simulation_error(
            status::data_corruption,
            std::string("non-finite field value detected in ") + fname +
                " at wave " + nan_wave_.load(amt::memory_order_relaxed));
    }
    if (cfg_.track_hazards && amt::hazard::violation_count() > 0) {
        const auto violations = amt::hazard::take_violations();
        throw simulation_error(status::hazard,
                               "shadow tracker: " +
                                   violations.front().describe());
    }
}

// Access sets point into the bound domain's region lists and expand
// against its connectivity, so they are built once per binding: again only
// when a different domain, or a domain re-emplaced with new region-list
// storage, is bound.  The domain's hazard arena is bound with them, so no
// tracked slab can lack one (a scope over an unbound arena stays inert).
void compiled_iteration::build_access_sets(slab_state& sl) {
    const domain& d = *sl.env.dom;
    std::vector<const void*> key{&d};
    for (index_t r = 0; r < d.numReg(); ++r) {
        key.push_back(d.regElemList(r).data());
    }
    if (key == sl.ctxs_key) return;
    if (cfg_.track_hazards) {
        amt::hazard::bind_arena(&d, arena_extents(d, sl.table.num_slots));
    }
    for (std::size_t i = 0; i < sl.ctxs.size(); ++i) {
        const task_decl& t = sl.table.tasks[i];
        if (!is_wave_body(t.kind)) continue;
        sl.ctxs[i].accs = accesses_of(t, d);
        if (cfg_.track_hazards) {
            sl.ctxs[i].decl = expand_to_hazard_set(sl.ctxs[i].accs, d);
        }
    }
    sl.ctxs_key = std::move(key);
}

// The one task wrapper.  What the graph engine and the runtime already
// provide is left to them: the task's label (node::execute annotates from
// the node label), its clock and progress counts (runtime::execute),
// skipping bodies once the graph's stop flag is set, and the stop request
// on throw.  Everything else — the fault probe at the wave site, the
// optional hazard scope and NaN scan — happens here.
void compiled_iteration::run_task(std::uint32_t slab, std::uint32_t task) {
    const slab_state& sl = slabs_[slab];
    const task_decl& t = sl.table.tasks[task];
    const char* site = wave_site_of(t.kind);
    const task_ctx* ctx = instrumented_ ? &sl.ctxs[task] : nullptr;
    amt::fault::probe(site);
    {
        std::optional<amt::hazard::task_scope> scope;
        if (ctx != nullptr && cfg_.track_hazards) {
            scope.emplace(static_cast<const void*>(sl.env.dom), site,
                          t.partition, &ctx->decl);
        }
        run_body(t, sl.env);
    }
    if (ctx != nullptr && cfg_.scan_nan) {
        const field bad = scan_written_for_nonfinite(ctx->accs, *sl.env.dom);
        if (bad != field::count) {
            nan_wave_.store(site, amt::memory_order_relaxed);
            nan_field_.store(field_name(bad), amt::memory_order_relaxed);
        }
    }
}

compiled_iteration::node_id compiled_iteration::add_node(
    amt::unique_function<void()> body, const char* label, index_t arg,
    int stage, std::size_t slab, std::uint32_t home) {
    const node_id id = graph_.add_node(std::move(body), label,
                                       static_cast<std::int32_t>(arg), home);
    meta_.push_back({static_cast<std::int8_t>(stage),
                     static_cast<std::uint32_t>(slab)});
    return id;
}

// The worker whose cache a wave body's chunk lives in: the runtime's
// workers split the slab's element (or node) range into equal contiguous
// parts, and a chunk goes to the part holding its first element (node); a
// region chunk uses its first list element.  Successive waves over the
// same part of the mesh therefore share a home.
std::uint32_t compiled_iteration::home_of(const task_decl& t,
                                          const domain& d) const {
    const index_t extent =
        t.kind == body_kind::node ? d.numNode() : d.numElem();
    const index_t pos =
        t.region >= 0
            ? d.regElemList(t.region)[static_cast<std::size_t>(t.lo)]
            : t.lo;
    if (extent <= 0) return 0;
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(pos) *
                                      rt_.num_workers() /
                                      static_cast<std::uint64_t>(extent));
}

void compiled_iteration::compile() {
    const std::size_t sets = fabric_.shared_barriers ? 1 : slabs_.size();
    barrier_.resize(sets);
    stamps_.resize(sets);
    receives_.assign(sets, {});
    for (std::size_t b = 0; b < sets; ++b) {
        for (std::size_t i = 0; i < num_barriers; ++i) {
            amt::clock::time_point* out = &stamps_[b][i];
            barrier_[b][i] = add_node([out] { *out = amt::clock::now(); },
                                      "graph:barrier",
                                      static_cast<index_t>(i), -1, b);
            if (i > 0) graph_.add_edge(barrier_[b][i - 1], barrier_[b][i]);
        }
    }

    for (std::size_t s = 0; s < slabs_.size(); ++s) {
        slab_state& sl = slabs_[s];
        const std::vector<task_decl>& tasks = sl.table.tasks;
        const auto& bar = barrier_[set_of(s)];
        sl.env.volume_ok = &volume_ok_;
        sl.env.qstop_ok = &qstop_ok_;
        sl.partials.assign(sl.table.num_slots, k::dt_constraints{});
        sl.env.partials = sl.partials.data();
        sl.ids.assign(tasks.size(), no_node);
        if (instrumented_) sl.ctxs.resize(tasks.size());

        // Nodes: wave bodies run through run_task, sends and the liveness
        // task through the driver's handler; receives are external.
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            const task_decl& t = tasks[i];
            if (t.kind == body_kind::unpack_corner ||
                t.kind == body_kind::unpack_delv) {
                const auto stage = static_cast<std::size_t>(t.stage);
                ++receives_[set_of(s)][stage];
                externals_.push_back({s, &t, bar[stage]});
            } else if (is_wave_body(t.kind)) {
                const auto slab = static_cast<std::uint32_t>(s);
                const auto task = static_cast<std::uint32_t>(i);
                sl.ids[i] = add_node(
                    [this, slab, task] { run_task(slab, task); },
                    wave_site_of(t.kind), t.partition, t.stage, s,
                    home_of(t, *sl.env.dom));
                ++task_count_;
            } else {
                const task_decl* tp = &t;
                sl.ids[i] = add_node([this, s, tp] { fabric_.halo(s, *tp); },
                                     t.site, t.partition, -1, s);
            }
        }

        // Edges: the table's own, the previous barrier for a task with no
        // in-stage predecessor, and the task's stage barrier.
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            const task_decl& t = tasks[i];
            const node_id id = sl.ids[i];
            if (id == no_node) continue;
            const auto stage = static_cast<std::size_t>(t.stage);
            for (int dep : t.deps) {
                graph_.add_edge(sl.ids[static_cast<std::size_t>(dep)], id);
            }
            if (t.deps.empty() && stage > 0) {
                graph_.add_edge(bar[stage - 1], id);
            }
            graph_.add_edge(id, bar[stage]);
        }
    }
}

bool replay::submit_capture(std::size_t slab,
                            std::shared_ptr<state_capture> cap) {
    // Overlap pays only when a worker can pack while another computes; on
    // one worker the pack tasks would just interleave with compute, at a
    // worse cache footprint than a synchronous pack of still-warm fields.
    if (rt_.num_workers() <= 1) return false;
    if (captures_.size() <= slab) captures_.resize(slab + 1);
    captures_[slab] = cap;
    return true;
}

compiled_iteration& replay::arm(std::span<domain* const> slabs,
                                const compiled_iteration::config& cfg,
                                const compiled_iteration::fabric& fab) {
    if (compiled_ == nullptr || !compiled_->fits(slabs, cfg)) {
        compiled_.reset();
        compiled_ = std::make_unique<compiled_iteration>(rt_, slabs, cfg, fab);
    }
    for (std::size_t s = 0; s < captures_.size(); ++s) {
        const std::shared_ptr<state_capture> cap =
            std::exchange(captures_[s], {}).lock();
        if (cap == nullptr) continue;
        if (s < slabs.size() && cap->source() == slabs[s]) {
            compiled_->add_capture(s, cap);
        } else {
            cap->pack_remaining();  // another domain's: pack on the spot
        }
    }
    compiled_->arm(slabs);
    return *compiled_;
}

}  // namespace lulesh::graph
