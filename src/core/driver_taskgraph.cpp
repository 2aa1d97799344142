// core/driver_taskgraph.cpp — the many-task leapfrog iteration of a slab
// set: every slab's iteration table compiled once into one static graph
// and replayed through graph::replay every advance(), with the halo
// exchange between neighbouring slabs.

#include "core/driver_taskgraph.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "amt/hazard.hpp"
#include "amt/metrics.hpp"
#include "core/access.hpp"

namespace lulesh {

using dist::boundary_channels;
using dist::halo_stream;
using dist::plane_buffer;

namespace {

bool env_enabled(const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

/// Progress deadline used when the retry layer is on but no explicit
/// halo_timeout was given: exhausted resends must escalate, never hang.
constexpr std::chrono::milliseconds default_retry_deadline{2000};

/// Flips one mantissa bit of the first payload value — *after* the CRC was
/// computed — modeling in-transit corruption for the halo_corrupt site.
void flip_payload_bit(plane_buffer& buf) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, buf.data(), sizeof(bits));
    bits ^= 1ULL;
    std::memcpy(buf.data(), &bits, sizeof(bits));
}

/// The stream a boundary message travels on: towards the upper slab
/// ("up") or the lower one.
halo_stream stream_of(bool corner, bool up) {
    return corner ? (up ? halo_stream::corner_up : halo_stream::corner_down)
                  : (up ? halo_stream::delv_up : halo_stream::delv_down);
}

}  // namespace

taskgraph_driver::taskgraph_driver(amt::runtime& rt, partition_sizes parts,
                                   exchange_mode mode,
                                   std::chrono::milliseconds halo_timeout,
                                   dist::retry_policy retry)
    : rt_(rt),
      cfg_{parts},
      mode_(mode),
      halo_timeout_(halo_timeout),
      retry_(retry) {
    fabric_.shared_barriers = mode == exchange_mode::bulk_synchronous;
    fabric_.halo = [this](std::size_t s, const graph::task_decl& t) {
        halo_step(s, t);
    };
    // Failed-slab propagation: every failure is filed under its slab, and
    // the first one closes *all* channels, so every peer's pending receive
    // resolves with channel_closed and satisfies its gate — the replay can
    // never hang on a dead neighbor.
    fabric_.on_failure = [this](std::size_t s, const std::exception_ptr& e) {
        {
            std::lock_guard lk(errors_mu_);
            if (errors_[s] == nullptr) errors_[s] = e;
        }
        for (boundary_channels* b : bounds_) b->close();
    };
}

std::string taskgraph_driver::name() const {
    return mode_ == exchange_mode::futurized ? "taskgraph" : "taskgraph_bsp";
}

void taskgraph_driver::enable_instrumentation(bool track_hazards,
                                              bool scan_nan) {
    instrumentation_checked_ = true;
    cfg_.track_hazards = track_hazards;
    cfg_.scan_nan = scan_nan;
}

void taskgraph_driver::prepare_instrumentation() {
    if (!instrumentation_checked_) {
        // Environment opt-in, resolved once: AMT_HAZARD_TRACK also arms the
        // generic tracker at process start (amt/hazard.cpp), so armed()
        // reflects it here.
        enable_instrumentation(amt::hazard::armed(),
                               env_enabled("LULESH_NAN_SCAN"));
    }
}

void taskgraph_driver::advance(domain& d) {
    slabs_.assign(1, &d);
    bounds_.clear();
    advance_slabs();
}

void taskgraph_driver::advance(dist::cluster& c) {
    slabs_.clear();
    bounds_.clear();
    for (index_t s = 0; s < c.num_slabs(); ++s) {
        slabs_.push_back(&c.slab(s));
        if (s > 0) bounds_.push_back(&c.boundary(s - 1));
    }
    advance_slabs();
}

void taskgraph_driver::ensure_fabric() {
    if (labels_.size() != bounds_.size()) {
        labels_.clear();
        labels_.resize(bounds_.size());
        for (std::size_t b = 0; b < bounds_.size(); ++b) {
            for (int w = 0; w < dist::num_halo_streams; ++w) {
                const std::string suffix =
                    std::string(halo_stream_name(static_cast<halo_stream>(w))) +
                    ":" + std::to_string(b);
                labels_[b].drop[w] = "halo_drop:" + suffix;
                labels_[b].corrupt[w] = "halo_corrupt:" + suffix;
            }
        }
    }
    if (kill_labels_.size() != slabs_.size()) {
        kill_labels_.clear();
        for (std::size_t s = 0; s < slabs_.size(); ++s) {
            kill_labels_.push_back("slab_kill:" + std::to_string(s));
        }
    }
    const auto num_slabs = static_cast<index_t>(slabs_.size());
    const bool want_detector = halo_timeout_.count() > 0 || retry_.enabled();
    if (want_detector &&
        (detector_ == nullptr || detector_->num_slabs() != num_slabs)) {
        detector_ = std::make_shared<dist::failure_detector>(num_slabs);
    }
}

void taskgraph_driver::advance_slabs() {
    prepare_instrumentation();
    last_failure_ = dist::slab_failure{};
    ensure_fabric();
    if (detector_) detector_->begin_iteration();
    {
        std::lock_guard lk(errors_mu_);
        errors_.assign(slabs_.size(), nullptr);
    }

    // The replay compiles the graph unless it fits the slabs, binds every
    // slab, and lets a capture handed over by the resilient loop (a slab's
    // previous state) be packed by tasks running concurrently with this
    // iteration's compute, gating the slab's B1 (node fields), B2 (v) and
    // B3 (the other element fields) — the placement
    // add_checkpoint_pack_tasks models, so the graph audit is the proof the
    // overlap cannot race.
    amt::trace::mark("cycle", slabs_.front()->cycle);
    graph::compiled_iteration& ci = replay_.arm(slabs_, cfg_, fabric_);
    for (const auto& e : ci.externals()) receive_halo(e);
    const auto t0 = amt::clock::now();
    tasks_last_iteration_ = ci.task_count() + ci.pack_count();
    ci.start();

    // The iteration's one blocking wait: every slab's graph plus the halo
    // messages feeding it.
    const bool tracing = amt::trace::enabled();
    const auto wait0 = tracing ? amt::clock::now() : amt::clock::time_point{};
    index_t suspect_slab = -1;
    bool timed_out = false;
    if (halo_timeout_.count() > 0 || retry_.enabled()) {
        timed_out = wait_with_deadline(ci, suspect_slab);
    }
    try {
        ci.wait();
    } catch (...) {
        // Already filed under its slab by the error hook; the root cause
        // is picked below.
    }
    const auto resumed = amt::clock::now();
    if (tracing) {
        amt::trace::emit_span(amt::trace::event_kind::barrier_span,
                              "iteration_barrier", wait0, resumed,
                              static_cast<std::int32_t>(tasks_last_iteration_));
    }
    rethrow_root_cause(timed_out, suspect_slab);

    ci.reduce_constraints();
    book_phases(ci, t0, resumed, tracing);
    try {
        ci.check();
    } catch (const simulation_error& e) {
        last_failure_ = {-1, e.code(), false, e.what()};  // unattributable
        throw;
    }
}

bool taskgraph_driver::wait_with_deadline(graph::compiled_iteration& ci,
                                          index_t& suspect_slab) {
    // Per-iteration progress deadline: a whole deadline's worth of polls
    // with zero task completions on the runtime (its per-worker task
    // records) while the graph is pending means a halo message is not
    // coming (e.g. a dead peer).  Fail the fabric — the channel_closed
    // cascade satisfies every pending receive, so the caller's wait
    // terminates.  The poll period is finer than the deadline so the drop
    // recovery (resend_from_cache) runs on the backoff timescale.
    const auto deadline =
        halo_timeout_.count() > 0 ? halo_timeout_ : default_retry_deadline;
    auto poll = deadline / 4;
    if (retry_.enabled()) {
        poll = std::min(poll, std::max(retry_.initial_backoff,
                                       std::chrono::milliseconds(1)));
    }
    poll = std::clamp(poll, std::chrono::milliseconds(1),
                      std::chrono::milliseconds(250));
    bool timed_out = false;
    auto last_finished = rt_.snapshot_counters().tasks_executed;
    std::chrono::milliseconds stalled_for{0};
    while (!ci.wait_for(poll)) {
        if (retry_.enabled()) {
            for (std::size_t b = 0; b < bounds_.size(); ++b) {
                for (int w = 0; w < dist::num_halo_streams; ++w) {
                    resend_from_cache(*bounds_[b], static_cast<index_t>(b),
                                      static_cast<halo_stream>(w),
                                      /*force=*/false);
                }
            }
        }
        const auto now_finished = rt_.snapshot_counters().tasks_executed;
        stalled_for = now_finished == last_finished
                          ? stalled_for + poll
                          : std::chrono::milliseconds(0);
        last_finished = now_finished;
        if (!timed_out && stalled_for >= deadline) {
            timed_out = true;
            if (detector_) {
                // Heartbeats name the prime suspect: the slab whose last
                // sign of life is the most stale.
                const auto ranked = detector_->suspect();
                if (!ranked.empty()) suspect_slab = ranked.front();
                amt::resilience().slab_deaths.add(1);
                amt::trace::mark("halo:slab_death",
                                 static_cast<std::int32_t>(suspect_slab));
            }
            for (boundary_channels* b : bounds_) b->close();
            // A *simulated* stall (fault injection) parks its task inside
            // the probe; release it so the stalled slab's own nodes can
            // complete too.  A genuinely hung task body cannot be recovered
            // in-process — its stall_timeout fail-safe is the backstop.
            amt::fault::release_stalls();
        }
    }
    return timed_out;
}

void taskgraph_driver::rethrow_root_cause(bool timed_out,
                                          index_t suspect_slab) {
    std::exception_ptr cascade, root;
    index_t root_slab = -1;
    status root_code = status::ok;
    bool root_transient = false;
    for (std::size_t i = 0; i < errors_.size(); ++i) {
        const auto& e = errors_[i];
        if (e == nullptr || root != nullptr) continue;
        try {
            std::rethrow_exception(e);
        } catch (const amt::channel_closed&) {
            if (cascade == nullptr) cascade = e;
            continue;
        } catch (const simulation_error& se) {
            root_code = se.code();
        } catch (const amt::fault::injected_fault&) {
            root_code = status::task_fault;
            root_transient = true;  // replay at unchanged dt can clear it
        } catch (...) {
            root_code = status::task_fault;
        }
        root = e;
        root_slab = static_cast<index_t>(i);
    }
    if (root != nullptr) {
        try {
            std::rethrow_exception(root);
        } catch (const std::exception& ex) {
            last_failure_ = {root_slab, root_code, root_transient, ex.what()};
        } catch (...) {
            last_failure_ = {root_slab, root_code, root_transient, ""};
        }
        std::rethrow_exception(root);
    }
    if (timed_out) {
        std::string msg =
            "halo exchange timed out (no progress within the deadline)";
        if (suspect_slab >= 0) {
            msg += "; failure detector suspects slab " +
                   std::to_string(suspect_slab);
        }
        last_failure_ = {suspect_slab, status::stalled, false, msg};
        throw simulation_error(status::stalled, msg);
    }
    if (cascade != nullptr) {
        last_failure_ = {-1, status::stalled, false,
                         "halo fabric failed (cascade)"};
        std::rethrow_exception(cascade);
    }
}

void taskgraph_driver::book_phases(const graph::compiled_iteration& ci,
                                   amt::clock::time_point t0,
                                   amt::clock::time_point resumed,
                                   bool tracing) {
    // Per-phase durations from the barrier-completion stamps.  The last
    // phase (constraints) is the reduction: it starts when this thread
    // resumes from the wait, so the latency of waking it after B4 is
    // booked to no phase.  The tracer gets the same windows as retroactive
    // phase spans (on a dedicated pseudo-thread, so they cannot break
    // nesting on this thread's timeline) — the per-phase utilization report
    // attributes worker time to these windows.
    const auto& stamps = ci.stamps();
    const auto reduced = amt::clock::now();
    auto prev = t0;
    for (std::size_t ph = 0; ph < phase_profile::num_phases; ++ph) {
        const bool waves = ph < stamps.size();
        const auto begin = waves ? prev : resumed;
        const auto end = waves ? stamps[ph] : reduced;
        profile_.seconds[ph] +=
            std::chrono::duration<double>(end - begin).count();
        if (tracing) {
            const std::int64_t b = amt::trace::to_ns(begin);
            const std::int64_t e = amt::trace::to_ns(end);
            amt::trace::emit_phase(phase_profile::name(ph), b, e - b,
                                   slabs_.front()->cycle);
        }
        prev = end;
    }
    ++profile_.iterations;
}

void taskgraph_driver::halo_step(std::size_t slab, const graph::task_decl& t) {
    const auto s = static_cast<index_t>(slab);
    if (t.kind == graph::body_kind::slab_liveness) {
        if (detector_) detector_->heartbeat(s);
        amt::fault::probe(kill_labels_[slab].c_str());
        return;
    }
    send_halo(s, t.partition == 1, t.kind == graph::body_kind::pack_corner);
}

void taskgraph_driver::send_halo(index_t s, bool upper, bool corner) {
    domain& d = *slabs_[static_cast<std::size_t>(s)];
    const index_t b = upper ? s : s - 1;
    const halo_stream which = stream_of(corner, upper);
    amt::trace::scoped_span halo(amt::trace::event_kind::halo_span,
                                 corner ? "halo:pack_corner" : "halo:pack_delv",
                                 static_cast<std::int32_t>(s));
    const index_t base =
        upper ? d.top_plane_elem_base() : d.bottom_plane_elem_base();
    plane_buffer buf = corner ? dist::pack_corner_plane(d, base)
                              : dist::pack_delv_plane(d, base);
    if (detector_) detector_->heartbeat(s);

    boundary_channels& bc = *bounds_[static_cast<std::size_t>(b)];
    dist::retransmit_slot& tx = stream_slot(bc, which);
    if (retry_.enabled()) {
        // Park a pristine copy (CRC included) before anything can go wrong
        // in transit; drop/corrupt recovery re-delivers from here.
        std::lock_guard lk(tx.mu);
        tx.payload = buf;
        ++tx.packed_seq;
        tx.attempts = 0;
        tx.last_attempt = std::chrono::steady_clock::now();
    }
    const halo_labels& lab = labels_[static_cast<std::size_t>(b)];
    const int wi = static_cast<int>(which);
    if (amt::fault::decide(lab.drop[wi].c_str())) {
        // Message lost in transit.  With retry on, the wait loop's drop
        // recovery re-delivers the cached copy; without it the receiver
        // starves and the progress deadline escalates.
        amt::resilience().halo_drops.add(1);
        amt::trace::mark("halo:drop", static_cast<std::int32_t>(b));
        return;
    }
    if (amt::fault::decide(lab.corrupt[wi].c_str())) {
        flip_payload_bit(buf);
    }
    if (retry_.enabled()) {
        std::lock_guard lk(tx.mu);
        if (tx.sent_seq >= tx.packed_seq) return;  // resend loop beat us
        tx.sent_seq = tx.packed_seq;
    }
    stream_channel(bc, which).set(std::move(buf));
}

bool taskgraph_driver::resend_from_cache(boundary_channels& bc, index_t b,
                                         halo_stream which, bool force) {
    dist::retransmit_slot& tx = stream_slot(bc, which);
    const std::uint64_t salt =
        static_cast<std::uint64_t>(b) * dist::num_halo_streams +
        static_cast<std::uint64_t>(which) + 1;
    plane_buffer copy;
    std::uint64_t seq = 0;
    {
        std::lock_guard lk(tx.mu);
        if (tx.packed_seq == 0) return false;  // nothing ever cached
        if (!force) {
            if (tx.sent_seq >= tx.packed_seq) return false;     // delivered
            if (tx.attempts >= retry_.max_attempts) return false;  // exhausted
            const auto wait = retry_.backoff_for(tx.attempts, salt);
            if (std::chrono::steady_clock::now() - tx.last_attempt < wait) {
                return false;  // backoff not elapsed yet
            }
        }
        ++tx.attempts;
        tx.last_attempt = std::chrono::steady_clock::now();
        seq = tx.packed_seq;
        copy = tx.payload;
    }
    // The resend crosses the same faulty transit as the original: unbounded
    // injection plans keep hitting it, which is how the retry budget is
    // exhausted deterministically in tests.
    const halo_labels& lab = labels_[static_cast<std::size_t>(b)];
    const int wi = static_cast<int>(which);
    if (amt::fault::decide(lab.drop[wi].c_str())) {
        amt::resilience().halo_drops.add(1);
        amt::trace::mark("halo:drop", static_cast<std::int32_t>(b));
        return false;
    }
    if (amt::fault::decide(lab.corrupt[wi].c_str())) {
        flip_payload_bit(copy);
    }
    {
        // Claim the delivery before making it, as send_halo does: the
        // original send may have gone out while this copy was in transit,
        // and a second copy would stay queued and feed the next cycle's
        // receive a stale plane.  A forced resend replaces a delivery the
        // receiver found corrupt, so it always goes out.
        std::lock_guard lk(tx.mu);
        if (!force && tx.sent_seq >= seq) return false;
        tx.sent_seq = seq;
    }
    try {
        stream_channel(bc, which).set(std::move(copy));
    } catch (const amt::channel_closed&) {
        return false;  // fabric already failed; the cascade handles it
    }
    amt::resilience().halo_resends.add(1);
    amt::trace::mark("halo:resend", static_cast<std::int32_t>(b));
    return true;
}

bool taskgraph_driver::submit_overlapped_capture(
    index_t slab, std::shared_ptr<state_capture> cap) {
    return replay_.submit_capture(static_cast<std::size_t>(slab),
                                  std::move(cap));
}

namespace {

/// Shared state of one receive-with-retry chain (receive_halo).
struct recv_ctx {
    amt::channel<plane_buffer> ch;
    dist::retry_policy pol;
    std::uint64_t salt = 0;
    bool corner = true;
    domain* dom = nullptr;
    index_t ghost_slot = -1;
    dist::halo_message_info info;
    index_t slab = -1;
    std::shared_ptr<dist::failure_detector> det;
    std::function<bool()> request_resend;  // null = retry disabled
    amt::static_graph* graph = nullptr;
    amt::static_graph::node_id gate = 0;
    /// Armed-metrics stamp taken when the receive was posted; the
    /// dist_halo_rtt_ns sample closes at successful unpack, so retries and
    /// backoff count into the tail.
    std::chrono::steady_clock::time_point metrics_t0{};
};

amt::metrics::histogram& halo_rtt_hist() {
    static auto& h = amt::metrics::get_histogram(
        "dist_halo_rtt_ns",
        "halo receive round-trip: post to successful unpack, retries "
        "included");
    return h;
}

/// Chains one channel get() → unpack → satisfy the gate; on a CRC failure
/// with retry budget left, requests a resend (as its own backed-off task —
/// never blocking this continuation) and re-chains for the fresh copy.
/// Every path ends in exactly one satisfy_external, its last action.
void chain_receive(const std::shared_ptr<recv_ctx>& ctx, int attempt) {
    ctx->ch.get().then(
        amt::launch::sync, [ctx, attempt](amt::future<plane_buffer>&& m) {
            try {
                {
                    amt::trace::scoped_span halo(
                        amt::trace::event_kind::halo_span,
                        ctx->corner ? "halo:unpack_corner"
                                    : "halo:unpack_delv",
                        static_cast<std::int32_t>(ctx->slab));
                    const plane_buffer buf = m.get();
                    if (ctx->corner) {
                        dist::unpack_corner_ghosts(*ctx->dom, ctx->ghost_slot,
                                                   buf, ctx->info);
                    } else {
                        dist::unpack_delv_ghosts(*ctx->dom, ctx->ghost_slot,
                                                 buf, ctx->info);
                    }
                }
                if (ctx->metrics_t0 !=
                    std::chrono::steady_clock::time_point{}) {
                    halo_rtt_hist().record(static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() -
                            ctx->metrics_t0)
                            .count()));
                }
                if (ctx->det) ctx->det->heartbeat(ctx->slab);
            } catch (const simulation_error& e) {
                if (e.code() == status::data_corruption &&
                    ctx->request_resend != nullptr &&
                    attempt < ctx->pol.max_attempts) {
                    amt::resilience().halo_crc_failures.add(1);
                    amt::resilience().halo_retries.add(1);
                    amt::trace::mark("halo:retry",
                                     static_cast<std::int32_t>(ctx->slab));
                    const auto backoff =
                        ctx->pol.backoff_for(attempt, ctx->salt);
                    amt::post([ctx, backoff] {
                        if (backoff.count() > 0) {
                            std::this_thread::sleep_for(backoff);
                        }
                        ctx->request_resend();
                    });
                    chain_receive(ctx, attempt + 1);
                    return;
                }
                ctx->graph->fail(ctx->gate, std::current_exception());
            } catch (...) {
                ctx->graph->fail(ctx->gate, std::current_exception());
            }
            ctx->graph->satisfy_external(ctx->gate);
        });
}

}  // namespace

void taskgraph_driver::receive_halo(
    const graph::compiled_iteration::external& e) {
    const auto s = static_cast<index_t>(e.slab);
    const bool upper = e.task->partition == 1;
    const bool corner = e.task->kind == graph::body_kind::unpack_corner;
    const index_t b = upper ? s : s - 1;
    const halo_stream which = stream_of(corner, !upper);
    boundary_channels* bc = bounds_[static_cast<std::size_t>(b)];
    auto ctx = std::make_shared<recv_ctx>();
    ctx->ch = stream_channel(*bc, which);
    ctx->pol = retry_;
    ctx->salt = static_cast<std::uint64_t>(b) * dist::num_halo_streams +
                static_cast<std::uint64_t>(which) + 1;
    ctx->corner = corner;
    ctx->dom = slabs_[e.slab];
    ctx->ghost_slot =
        upper ? ctx->dom->ghost_upper_slot() : ctx->dom->ghost_lower_slot();
    ctx->info = {b, halo_stream_name(which)};
    ctx->slab = s;
    ctx->det = detector_;
    ctx->graph = &replay_.compiled()->graph();
    ctx->gate = e.gate;
    if (amt::metrics::enabled()) {
        ctx->metrics_t0 = std::chrono::steady_clock::now();
    }
    if (retry_.enabled()) {
        // The channels outlive the chain (the cluster owns them); the
        // driver's slab set may be rebound by then.
        ctx->request_resend = [this, bc, b, which] {
            return resend_from_cache(*bc, b, which, /*force=*/true);
        };
    }
    chain_receive(ctx, 0);
}

}  // namespace lulesh
