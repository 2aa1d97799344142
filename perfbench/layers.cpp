// perfbench/layers.cpp — the traced run: one measurement per layer on the
// workload's own problem, each timed from outside around public calls or
// read from the counters and profiles the libraries already expose.
//
// Layers carry the module names: lulesh (wave bodies, checkpoint records),
// amt (runtime counters, tracing), core (taskgraph driver, critical path),
// dist (slabs, halo exchange, resilient loop) and ompsim (the fork-join
// baseline).  Every probe that advances the physics runs one solve length
// from the cycle-0 state and is checked against the serial reference like
// a timed solve.

#include <algorithm>
#include <array>
#include <cstdio>
#include <iostream>
#include <numeric>

#include "core/access.hpp"
#include "core/critical_path.hpp"
#include "core/graph_waves.hpp"
#include "ledger.hpp"
#include "lulesh/checkpoint_chain.hpp"
#include "lulesh/driver_parallel_for.hpp"
#include "lulesh/kernels.hpp"
#include "ompsim/ompsim.hpp"

namespace perfbench {

namespace {

namespace k = lulesh::kernels;
namespace g = lulesh::graph;
namespace wb = lulesh::graph::wave_body;
using lulesh::real_t;

double mean(const std::vector<double>& v) {
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

void report_failure(const char* probe, const std::exception& e) {
    std::cerr << "perfbench: " << probe << " failed: " << e.what() << "\n";
}

// --- lulesh: the wave bodies on one thread ----------------------------------

enum body : std::size_t {
    force_stress,
    force_hourglass,
    node_gather,
    node_velpos,
    elem_fused,
    region_monoq,
    region_eos,
    volume_update,
    constraints,
    num_bodies
};
constexpr std::array<const char*, num_bodies> body_name = {
    "force_stress", "force_hourglass", "node_gather",
    "node_velpos",  "elem_fused",      "region_monoq",
    "region_eos",   "volume_update",   "constraints"};

constexpr bool per_node(std::size_t b) {
    return b == node_gather || b == node_velpos;
}

template <class F>
void for_chunks(index_t n, index_t p, F&& f) {
    for (index_t lo = 0; lo < n; lo += p) f(lo, std::min(lo + p, n));
}

template <class F>
void for_region_chunks(const lulesh::domain& d, index_t p, F&& f) {
    for (index_t r = 0; r < d.numReg(); ++r) {
        const auto& list = d.regElemList(r);
        for_chunks(static_cast<index_t>(list.size()), p,
                   [&](index_t lo, index_t hi) { f(r, list.data(), lo, hi); });
    }
}

/// One leapfrog iteration from the taskgraph's wave bodies in the
/// workload's chunk sizes, run wave by wave on the calling thread.  Inside
/// a wave the graph orders nothing the bodies share, so any order is the
/// replay's arithmetic and ends bitwise equal to every driver.
///
/// With `ns` null the chains run the way one worker runs the replay: each
/// chunk's stress then hourglass, gather then velpos, monoq then EOS, so a
/// chunk's data is reused while it is in cache.  With `ns` given each body
/// sweeps all its chunks in one go, timed, and its wall time is added to
/// (*ns)[body]; timing every chunk instead would cost as much as the
/// runtime overhead the probe is there to expose.
void bodies_cycle(lulesh::domain& d, lulesh::partition_sizes parts,
                  k::eos_scratch& scratch,
                  std::vector<k::dt_constraints>& partials,
                  std::array<double, num_bodies>* ns) {
    amt::atomic<bool> vol_ok{true};
    amt::atomic<bool> q_ok{true};
    const index_t ne = d.numElem();
    const index_t nn = d.numNode();
    const real_t dt = d.deltatime;
    const auto timed = [ns](body b, auto&& sweep) {
        if (ns == nullptr) {
            sweep();
            return;
        }
        const auto t0 = steady::now();
        sweep();
        (*ns)[b] += seconds_between(t0, steady::now()) * 1e9;
    };
    const auto chain = [&](auto&& walk, body a, auto&& fa, body b,
                           auto&& fb) {
        if (ns == nullptr) {
            walk([&](auto... chunk) {
                fa(chunk...);
                fb(chunk...);
            });
        } else {
            timed(a, [&] { walk(fa); });
            timed(b, [&] { walk(fb); });
        }
    };
    const auto force_chunks = [&](auto&& f) { for_chunks(ne, parts.nodal, f); };
    const auto node_chunks = [&](auto&& f) { for_chunks(nn, parts.nodal, f); };
    const auto elem_chunks = [&](auto&& f) { for_chunks(ne, parts.elems, f); };
    const auto region_chunks = [&](auto&& f) {
        for_region_chunks(d, parts.elems, f);
    };

    chain(
        force_chunks, force_stress,
        [&](index_t lo, index_t hi) { wb::force_stress(d, lo, hi, vol_ok); },
        force_hourglass,
        [&](index_t lo, index_t hi) { wb::force_hourglass(d, lo, hi, vol_ok); });
    chain(
        node_chunks, node_gather,
        [&](index_t lo, index_t hi) { wb::node_gather(d, lo, hi); },
        node_velpos,
        [&](index_t lo, index_t hi) { wb::node_velpos(d, lo, hi, dt); });
    timed(elem_fused, [&] {
        elem_chunks([&](index_t lo, index_t hi) {
            wb::elem_fused(d, lo, hi, dt, vol_ok, q_ok);
        });
    });
    chain(
        region_chunks, region_monoq,
        [&](index_t, const index_t* list, index_t lo, index_t hi) {
            wb::region_monoq(d, list, lo, hi);
        },
        region_eos,
        [&](index_t r, const index_t* list, index_t lo, index_t hi) {
            wb::region_eos(d, list, lo, hi, k::eos_rep_for_region(d, r),
                           scratch);
        });
    timed(volume_update, [&] {
        elem_chunks([&](index_t lo, index_t hi) { wb::volume_update(d, lo, hi); });
    });
    partials.clear();
    timed(constraints, [&] {
        region_chunks([&](index_t, const index_t* list, index_t lo, index_t hi) {
            wb::constraints(d, list, lo, hi, partials.emplace_back());
        });
    });

    k::dt_constraints combined;
    for (const auto& p : partials) combined = k::min_constraints(combined, p);
    d.dtcourant = combined.dtcourant;
    d.dthydro = combined.dthydro;
    if (!vol_ok.load(amt::memory_order_relaxed) ||
        !q_ok.load(amt::memory_order_relaxed)) {
        throw lulesh::simulation_error(lulesh::status::volume_error,
                                       "wave bodies reported a volume or "
                                       "qstop violation");
    }
}

struct body_probe {
    std::array<double, num_bodies> ns_per_item{};  ///< per element or node
    double serial_cycle_ms = 0.0;
};

/// One solve of bodies_cycle, alternating chained cycles (their median is
/// the plain single-threaded baseline) with swept ones (per body, the
/// median over cycles).  The swept bodies add up to more than a chained
/// cycle by the cache reuse the chains give.
body_probe probe_bodies(const workload& w, const reference& ref, tally& t) {
    lulesh::domain d(w.problem);
    k::eos_scratch scratch;
    std::vector<k::dt_constraints> partials;
    partials.reserve(g::constraint_slot_count(d, w.parts.elems));
    std::array<std::vector<double>, num_bodies> ns_cycle;
    std::vector<double> cycle_ms;
    try {
        while (d.cycle < w.solve_cycles) {
            if (d.cycle % 2 == 0) {
                const auto t0 = steady::now();
                k::time_increment(d);
                bodies_cycle(d, w.parts, scratch, partials, nullptr);
                cycle_ms.push_back(seconds_between(t0, steady::now()) * 1e3);
            } else {
                std::array<double, num_bodies> ns{};
                k::time_increment(d);
                bodies_cycle(d, w.parts, scratch, partials, &ns);
                for (std::size_t b = 0; b < num_bodies; ++b) {
                    ns_cycle[b].push_back(ns[b]);
                }
            }
        }
        t.record(state_digest(d) == ref.whole);
    } catch (const std::exception& e) {
        report_failure("wave-body probe", e);
        t.record(false);
    }
    body_probe bp;
    for (std::size_t b = 0; b < num_bodies; ++b) {
        bp.ns_per_item[b] =
            median(ns_cycle[b]) /
            static_cast<double>(per_node(b) ? d.numNode() : d.numElem());
    }
    bp.serial_cycle_ms = median(cycle_ms);
    return bp;
}

/// Bytes one iteration touches according to the declared access sets of
/// core/access: every index an access expands to (closures included, so a
/// gathered value counts once per use), times the field's element size.
/// Computed, not measured; cache reuse is ignored.
double computed_bytes_per_cycle(const lulesh::domain& d,
                                lulesh::partition_sizes parts) {
    const g::graph_model m = g::build_iteration_model(d, parts);
    double bytes = 0.0;
    for (const g::task_decl& task : m.tasks) {
        for (const g::access& a : task.accesses) {
            double n = 0.0;
            g::expand_access(a, d, [&n](index_t) { n += 1.0; });
            double size = sizeof(real_t);
            if (a.f == lulesh::field::symm_mask) size = 1.0;
            if (a.f == lulesh::field::elem_bc) size = sizeof(int);
            if (a.f == lulesh::field::dt_partial) {
                size = sizeof(k::dt_constraints);
            }
            bytes += n * size;
        }
    }
    return bytes;
}

// --- single-domain probes ---------------------------------------------------

/// Advances a fresh domain one solve length with `drv`, timing every
/// advance, and checks the result.
std::vector<double> advance_series(lulesh::driver& drv, const workload& w,
                                   const reference& ref, tally& t) {
    lulesh::domain d(w.problem);
    std::vector<double> ms;
    try {
        while (d.cycle < w.solve_cycles) {
            k::time_increment(d);
            const auto t0 = steady::now();
            drv.advance(d);
            ms.push_back(seconds_between(t0, steady::now()) * 1e3);
        }
        t.record(state_digest(d) == ref.whole);
    } catch (const std::exception& e) {
        report_failure(drv.name().c_str(), e);
        t.record(false);
    }
    return ms;
}

template <class F>
void traced(F&& run) {
    amt::trace::reset();
    amt::trace::arm();
    run();
    amt::trace::disarm();
    amt::trace::reset();
}

/// Solves with the tracer armed and node profiling on, then the critical
/// path of the profiled graph.
lulesh::critical_path_report traced_taskgraph(taskgraph_session& s,
                                              const workload& w,
                                              const reference& ref,
                                              double budget_s, int min_solves,
                                              tally& t, solve_stats& st) {
    s.drv.enable_node_profiling(true);
    // Switching profiling on recompiles the graph at the next advance; that
    // advance is not part of a timed solve.
    lulesh::apply_chain_record(s.dom, s.entry, "perfbench entry state");
    k::time_increment(s.dom);
    s.drv.advance(s.dom);
    traced([&] { run_solves(&s, nullptr, w, ref, budget_s, min_solves, t, st); });
    lulesh::critical_path_report report =
        lulesh::analyze_critical_path(*s.drv.compiled(), s.rt.num_workers());
    s.drv.enable_node_profiling(false);
    return report;
}

struct checkpoint_probe {
    double capture_mbps = 0.0;
    double restore_mbps = 0.0;
    double record_bytes = 0.0;
};

/// The records the workload's checkpoint path writes every cycle: one
/// full-coverage delta per slab for a cluster (what run_resilient packs),
/// the taskgraph driver's declared write-set for a single domain.  Capture
/// is state_capture packing plus take_record; restore is
/// apply_chain_record of the same record.
checkpoint_probe probe_checkpoint(const workload& w, taskgraph_session& tg) {
    std::unique_ptr<lulesh::dist::cluster> c;
    std::vector<lulesh::domain*> doms;
    std::vector<std::vector<lulesh::dirty_region>> regions;
    if (w.distributed()) {
        c = std::make_unique<lulesh::dist::cluster>(w.problem, w.slabs);
        for (index_t s = 0; s < c->num_slabs(); ++s) {
            doms.push_back(&c->slab(s));
            regions.push_back(lulesh::full_coverage(c->slab(s)));
        }
    } else {
        lulesh::dirty_tracker dirty;
        tg.drv.record_dirty(dirty, tg.dom);
        doms.push_back(&tg.dom);
        regions.push_back(dirty.take(tg.dom));
    }

    constexpr int rounds = 21;
    std::vector<double> capture_s;
    std::vector<double> restore_s;
    double bytes = 0.0;
    for (int r = 0; r < rounds; ++r) {
        double cap = 0.0;
        double rest = 0.0;
        bytes = 0.0;
        for (std::size_t i = 0; i < doms.size(); ++i) {
            const auto t0 = steady::now();
            lulesh::state_capture sc(*doms[i], regions[i], /*base=*/false);
            sc.pack_remaining();
            sc.wait_packed();
            const std::string record = sc.take_record();
            const auto t1 = steady::now();
            lulesh::apply_chain_record(*doms[i], record,
                                       "perfbench checkpoint probe");
            const auto t2 = steady::now();
            cap += seconds_between(t0, t1);
            rest += seconds_between(t1, t2);
            bytes += static_cast<double>(record.size());
        }
        capture_s.push_back(cap);
        restore_s.push_back(rest);
    }
    return {ratio(bytes, median(capture_s)) / 1e6,
            ratio(bytes, median(restore_s)) / 1e6, bytes};
}

// --- dist probes ------------------------------------------------------------

/// The plain distributed loop (time_increment on every slab, then
/// dist_driver::advance) for one solve length, timing every cycle.
std::vector<double> dist_plain_series(const workload& w, index_t slabs,
                                      const reference& ref, tally& t) {
    workload ws = w;
    ws.slabs = slabs;
    dist_session s(ws, w.workers);
    lulesh::dist::cluster c(w.problem, slabs);
    std::vector<double> ms;
    try {
        while (c.cycle() < w.solve_cycles) {
            const auto t0 = steady::now();
            for (index_t i = 0; i < c.num_slabs(); ++i) {
                k::time_increment(c.slab(i));
            }
            s.drv.advance(c);
            ms.push_back(seconds_between(t0, steady::now()) * 1e3);
        }
        t.record(cluster_matches(c, ref));
    } catch (const std::exception& e) {
        report_failure("dist loop", e);
        t.record(false);
    }
    return ms;
}

/// Messages and bytes per cycle of the dist_slabs decomposition, from the
/// sizes of real packed planes: every interior boundary carries a corner
/// and a delv_zeta message in each direction.
std::pair<double, double> halo_per_cycle(const workload& w) {
    const lulesh::dist::cluster c(w.problem, dist_slabs);
    const lulesh::domain& s0 = c.slab(0);
    const auto corner = static_cast<double>(
        lulesh::dist::pack_corner_plane(s0, s0.top_plane_elem_base()).size());
    const auto delv = static_cast<double>(
        lulesh::dist::pack_delv_plane(s0, s0.top_plane_elem_base()).size());
    const auto boundaries = static_cast<double>(c.num_slabs() - 1);
    return {4.0 * boundaries,
            2.0 * boundaries * (corner + delv) * sizeof(real_t)};
}

}  // namespace

void run_traced(const workload& w, const reference& ref, double seconds,
                metric_list& out, tally& t) {
    const double budget = 0.3 * seconds;
    const double workers = static_cast<double>(w.workers);
    workload single = w;
    single.slabs = 1;

    // The workload's own solves, untraced then traced.  The taskgraph
    // session is the workload itself for sedov30/fine16 and the core-layer
    // probe on the same problem for dist30.
    std::unique_ptr<taskgraph_session> tg = open_taskgraph(single, w.workers);
    solve_stats work_plain;
    solve_stats work_traced;
    solve_stats tg_plain;
    solve_stats tg_traced;
    solve_stats resilient;  // run_resilient on dist_slabs slabs
    lulesh::critical_path_report cp;
    lulesh::phase_profile phases;
    if (w.distributed()) {
        const std::unique_ptr<dist_session> ds = open_dist(w, w.workers);
        run_solves(nullptr, ds.get(), w, ref, budget, 2, t, work_plain);
        traced([&] {
            run_solves(nullptr, ds.get(), w, ref, budget, 2, t, work_traced);
        });
        resilient = work_plain;
        tg->drv.reset_profile();
        run_solves(tg.get(), nullptr, single, ref, 0.0, 1, t, tg_plain);
        phases = tg->drv.profile();
        cp = traced_taskgraph(*tg, single, ref, 0.0, 1, t, tg_traced);
    } else {
        tg->drv.reset_profile();
        run_solves(tg.get(), nullptr, w, ref, budget, 2, t, tg_plain);
        phases = tg->drv.profile();
        cp = traced_taskgraph(*tg, w, ref, budget, 2, t, tg_traced);
        work_plain = tg_plain;
        work_traced = tg_traced;
        workload wd = w;
        wd.slabs = dist_slabs;
        dist_session ds(wd, w.workers);
        run_solves(nullptr, &ds, wd, ref, 0.0, 1, t, resilient);
    }

    const body_probe bodies = probe_bodies(single, ref, t);
    double tg1_ms = 0.0;
    double tg1_tasks = 0.0;
    {
        amt::runtime rt1(1);
        lulesh::taskgraph_driver drv1(rt1, w.parts);
        tg1_ms = median(advance_series(drv1, w, ref, t));
        tg1_tasks = static_cast<double>(drv1.tasks_last_iteration());
    }
    double omp_ms = 0.0;
    double omp_productive = 0.0;
    {
        ompsim::team team(w.workers);
        lulesh::parallel_for_driver pf(team);
        team.reset_timing();
        omp_ms = median(advance_series(pf, w, ref, t));
        omp_productive = team.snapshot_timing().productive_ratio();
    }
    const std::vector<double> plain4 =
        dist_plain_series(w, dist_slabs, ref, t);
    const std::vector<double> plain1 = dist_plain_series(w, 1, ref, t);
    const auto [halo_msgs, halo_bytes] = halo_per_cycle(w);
    const checkpoint_probe ckpt = probe_checkpoint(w, *tg);
    const double bytes = computed_bytes_per_cycle(tg->dom, w.parts);

    // --- derived numbers ----------------------------------------------------
    const auto runtime_numbers = [](const solve_stats& st) {
        const amt::counters_snapshot& c = st.counters;
        const double cycles = std::max(1.0, static_cast<double>(st.cycles));
        const double worker_ns =
            static_cast<double>(c.wall_ns) * static_cast<double>(c.num_workers);
        const auto productive = static_cast<double>(c.productive_ns);
        return std::array<double, 5>{
            static_cast<double>(c.tasks_executed) / cycles,
            ratio(productive, worker_ns),
            (worker_ns - productive) / cycles / 1e6,
            static_cast<double>(c.steals) / cycles,
            ratio(static_cast<double>(c.steals),
                  static_cast<double>(c.steal_attempts))};
    };
    const std::array<double, 5> rt_work = runtime_numbers(work_plain);
    const std::array<double, 5> rt_tg = runtime_numbers(tg_plain);
    const double serial_ms = bodies.serial_cycle_ms;
    const double overhead_ns =
        ratio((tg1_ms - serial_ms) * 1e6, tg1_tasks);
    const double fom_plain = steady_fom(w, work_plain);
    const double fom_traced = steady_fom(w, work_traced);

    const double adv_p50 = median(tg_plain.advance_ms);
    const double adv_p95 = quantile(tg_plain.advance_ms, 0.95);
    const double cp_ms = cp.critical_path_ns / 1e6;
    const double tasks = static_cast<double>(tg->drv.tasks_last_iteration());
    const double work_bound_ms = (serial_ms + tasks * overhead_ns / 1e6) / workers;
    const double unexplained =
        1.0 - ratio(std::max(cp_ms, work_bound_ms), adv_p50);

    const double plain4_p50 = median(plain4);
    const double resilient_ms =
        median(resilient.solve_s) * 1e3 / w.solve_cycles;
    const double resilient_cycles =
        std::max(1.0, static_cast<double>(resilient.cycles));

    // --- metrics ------------------------------------------------------------
    const auto add = [&out](std::string name, double v, const char* unit) {
        out.push_back({std::move(name), v, unit});
    };
    for (const std::size_t b :
         {force_stress, force_hourglass, elem_fused, region_monoq, region_eos,
          volume_update, constraints, node_gather, node_velpos}) {
        add(std::string("lulesh.") + body_name[b] +
                (per_node(b) ? "_ns_per_node" : "_ns_per_elem"),
            bodies.ns_per_item[b], "ns");
    }
    add("lulesh.serial_cycle_ms", serial_ms, "ms");
    add("lulesh.bytes_per_cycle_computed", bytes, "bytes");
    add("lulesh.ckpt_capture_mbps", ckpt.capture_mbps, "MB/s");
    add("lulesh.ckpt_restore_mbps", ckpt.restore_mbps, "MB/s");
    add("lulesh.ckpt_delta_bytes", ckpt.record_bytes, "bytes");

    add("amt.tasks_per_cycle", rt_work[0], "count");
    add("amt.productive_ratio", rt_work[1], "ratio");
    add("amt.nonproductive_ms_per_cycle", rt_work[2], "ms");
    add("amt.steals_per_cycle", rt_work[3], "count");
    add("amt.steal_success_ratio", rt_work[4], "ratio");
    add("amt.overhead_ns_per_task", overhead_ns, "ns");
    add("amt.untraced_fom_zps", fom_plain, "zone-cycles/s");
    add("amt.traced_fom_zps", fom_traced, "zone-cycles/s");
    add("amt.trace_overhead_frac", 1.0 - ratio(fom_traced, fom_plain),
        "ratio");

    add("core.advance_ms_p50", adv_p50, "ms");
    add("core.advance_ms_p95", adv_p95, "ms");
    add("core.compile_ms", tg->first_advance_s * 1e3 - adv_p50, "ms");
    for (std::size_t p = 0; p < lulesh::phase_profile::num_phases; ++p) {
        add(std::string("core.phase_share.") + lulesh::phase_profile::name(p),
            phases.share(static_cast<lulesh::phase_profile::phase>(p)),
            "ratio");
    }
    add("core.critical_path_ms", cp_ms, "ms");
    add("core.cp_ideal_speedup", cp.ideal_speedup, "x");
    add("core.achieved_speedup", ratio(serial_ms, adv_p50), "x");
    add("core.unexplained_frac", unexplained, "ratio");
    add("core.speedup_vs_fork_join", ratio(omp_ms, adv_p50), "x");

    add("dist.cycle_ms_p50", plain4_p50, "ms");
    add("dist.slab_overhead_frac", ratio(plain4_p50, median(plain1)) - 1.0,
        "ratio");
    add("dist.halo_msgs_per_cycle", halo_msgs, "count");
    add("dist.halo_bytes_per_cycle", halo_bytes, "bytes");
    add("dist.resends_per_cycle",
        static_cast<double>(resilient.halo_resends) / resilient_cycles,
        "count");
    add("dist.retries_per_cycle",
        static_cast<double>(resilient.halo_retries) / resilient_cycles,
        "count");
    add("dist.resilience_overhead_frac",
        ratio(resilient_ms, mean(plain4)) - 1.0, "ratio");

    add("ompsim.cycle_ms_p50", omp_ms, "ms");
    add("ompsim.productive_ratio", omp_productive, "ratio");

    // --- reconciliation -----------------------------------------------------
    const auto row = [](const char* what, double ms, const std::string& note) {
        std::printf("#   %-40s %10.4f  %s\n", what, ms, note.c_str());
    };
    char note[128];
    std::printf("# reconciliation: %s, ms per cycle, taskgraph at %zu "
                "workers on the workload's problem\n",
                w.name.c_str(), w.workers);
    row("advance p50 (measured)", adv_p50, "");
    std::snprintf(note, sizeof note, "serial cycle %.4f ms", serial_ms);
    row("serial kernels / workers", serial_ms / workers, note);
    std::snprintf(note, sizeof note, "%.0f tasks x %.1f ns", tasks,
                  overhead_ns);
    row("runtime overhead / workers", tasks * overhead_ns / 1e6 / workers,
        note);
    std::snprintf(note, sizeof note, "productive ratio %.4f", rt_tg[1]);
    row("idle per worker", (1.0 - rt_tg[1]) * adv_p50, note);
    std::snprintf(note, sizeof note, "ideal speedup %.2f", cp.ideal_speedup);
    row("critical path", cp_ms, note);
    row("halo (dist loop, 4 slabs - 1 slab)", plain4_p50 - median(plain1),
        "");
    row("checkpoint (resilient - plain dist loop)",
        resilient_ms - mean(plain4), "");
    std::snprintf(note, sizeof note,
                  "1 - max(critical path, (serial + overhead)/workers) / "
                  "advance");
    row("core.unexplained_frac", unexplained, note);
    if (w.distributed()) {
        std::snprintf(note, sizeof note, "plain dist loop mean %.4f ms",
                      mean(plain4));
        row("dist30 resilient cycle (measured)", resilient_ms, note);
    }
}

}  // namespace perfbench
