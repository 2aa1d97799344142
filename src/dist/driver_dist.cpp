// dist/driver_dist.cpp — multi-domain leapfrog with halo exchange.

#include "dist/driver_dist.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "amt/metrics.hpp"
#include "dist/halo_audit.hpp"

namespace lulesh::dist {

namespace {
namespace k = kernels;

std::string describe_failure(const char* what, int cycle, real_t dt) {
    std::ostringstream os;
    os << what << " (cycle " << cycle << ", dt " << dt << ")";
    return os.str();
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

void dist_driver::ensure_fabric(cluster& c) {
    // The label strings are stable for the cluster's topology: fault plans
    // match sites by string content, and probe()/trace take const char*
    // pointers that must outlive the tasks using them.
    const auto nb =
        static_cast<std::size_t>(std::max<index_t>(0, c.num_slabs() - 1));
    if (labels_.size() != nb) {
        labels_.clear();
        labels_.resize(nb);
        for (std::size_t b = 0; b < nb; ++b) {
            for (int w = 0; w < num_halo_streams; ++w) {
                const std::string suffix =
                    std::string(halo_stream_name(static_cast<halo_stream>(w))) +
                    ":" + std::to_string(b);
                labels_[b].drop[w] = "halo_drop:" + suffix;
                labels_[b].corrupt[w] = "halo_corrupt:" + suffix;
            }
        }
    }
    if (kill_labels_.size() != static_cast<std::size_t>(c.num_slabs())) {
        kill_labels_.clear();
        for (index_t s = 0; s < c.num_slabs(); ++s) {
            kill_labels_.push_back("slab_kill:" + std::to_string(s));
        }
    }
    const bool want_detector = halo_timeout_.count() > 0 || retry_.enabled();
    if (want_detector &&
        (detector_ == nullptr || detector_->num_slabs() != c.num_slabs())) {
        detector_ = std::make_shared<failure_detector>(c.num_slabs());
    }
}

void dist_driver::prepare_graph(cluster& c) {
    using graph::compiled_iteration;
    const auto slabs = static_cast<std::size_t>(c.num_slabs());
    compiled_iteration::config cfg;
    cfg.parts = parts_;
    bool reuse = compiled_ != nullptr && compiled_->matches(cfg, flags_, slabs);
    for (std::size_t s = 0; reuse && s < slabs; ++s) {
        reuse = compiled_->shape_matches(s, c.slab(static_cast<index_t>(s)));
    }
    if (!reuse) {
        std::vector<compiled_iteration::slab_table> tables(slabs);
        for (std::size_t s = 0; s < slabs; ++s) {
            const auto slab = static_cast<index_t>(s);
            domain& d = c.slab(slab);
            tables[s] = {build_slab_table(d, parts_, slab), &d};
        }
        const auto gating =
            mode_ == exchange_mode::eager
                ? compiled_iteration::halo_gating::plane
            : mode_ == exchange_mode::bulk_synchronous
                ? compiled_iteration::halo_gating::direct
                : compiled_iteration::halo_gating::whole_wave;
        compiled_.reset();
        compiled_ = std::make_unique<compiled_iteration>(
            rt_, std::move(tables), cfg, flags_, gating,
            [this](std::size_t s, const graph::task_decl& t) {
                halo_step(s, t);
            });
        // Failed-slab propagation: every failure is filed under its slab,
        // and the first one closes *all* channels, so every peer's pending
        // receive resolves with channel_closed and satisfies its gate —
        // the replay can never hang on a dead neighbor.
        compiled_->graph().set_error_hook(
            [this](compiled_iteration::node_id id,
                   const std::exception_ptr& e) {
                {
                    std::lock_guard lk(errors_mu_);
                    std::exception_ptr& slot = errors_[compiled_->slab_of(id)];
                    if (slot == nullptr) slot = e;
                }
                bound_->close_channels();
            });
    }
    for (std::size_t s = 0; s < slabs; ++s) {
        compiled_->bind(s, c.slab(static_cast<index_t>(s)));
    }
}

void dist_driver::halo_step(std::size_t slab, const graph::task_decl& t) {
    cluster& c = *bound_;
    const auto s = static_cast<index_t>(slab);
    const bool upper = t.partition == 1;
    const bool corner = t.kind == graph::body_kind::pack_corner ||
                        t.kind == graph::body_kind::unpack_corner;
    switch (t.kind) {
        case graph::body_kind::pack_corner:
        case graph::body_kind::pack_delv:
            send_halo(c, s, upper, corner);
            return;
        case graph::body_kind::unpack_corner:
        case graph::body_kind::unpack_delv: {
            // Bulk-synchronous direct exchange: every slab finished the
            // wave (shared barrier), so the neighbor's plane is read in
            // place — no channel, no copy held in flight.
            const index_t b = upper ? s : s - 1;
            amt::trace::scoped_span halo(
                amt::trace::event_kind::halo_span,
                corner ? "halo:exchange_corner" : "halo:exchange_delv",
                static_cast<std::int32_t>(b));
            domain& me = c.slab(s);
            const domain& nb = c.slab(upper ? s + 1 : s - 1);
            const index_t base = upper ? nb.bottom_plane_elem_base()
                                       : nb.top_plane_elem_base();
            const index_t ghost =
                upper ? me.ghost_upper_slot() : me.ghost_lower_slot();
            const halo_message_info info{
                b, halo_stream_name(stream_of(corner, !upper))};
            if (corner) {
                unpack_corner_ghosts(me, ghost, pack_corner_plane(nb, base),
                                     info);
            } else {
                unpack_delv_ghosts(me, ghost, pack_delv_plane(nb, base), info);
            }
            return;
        }
        default:
            if (detector_) detector_->heartbeat(s);
            amt::fault::probe(kill_labels_[slab].c_str());
            return;
    }
}

void dist_driver::advance(cluster& c) {
    last_failure_ = slab_failure{};
    ensure_fabric(c);
    if (detector_) detector_->begin_iteration();
    const index_t num_slabs = c.num_slabs();
    const auto slabs = static_cast<std::size_t>(num_slabs);
    {
        std::lock_guard lk(errors_mu_);
        errors_.assign(slabs, nullptr);
    }
    bound_ = &c;
    prepare_graph(c);
    flags_.reset();

    // Overlapped checkpoint packing of each slab's previous state (see
    // submit_overlapped_capture).
    pending_captures_.resize(slabs);
    for (std::size_t s = 0; s < slabs; ++s) {
        const std::shared_ptr<state_capture> cap =
            std::exchange(pending_captures_[s], {}).lock();
        if (cap == nullptr) continue;
        if (cap->source() == &c.slab(static_cast<index_t>(s))) {
            compiled_->add_capture(s, cap);
        } else {
            cap->pack_remaining();  // different domain: pack on the spot
        }
    }
    compiled_->arm(c.slab(0).deltatime);
    for (const auto& e : compiled_->externals()) receive_halo(c, e);
    compiled_->start();

    // The iteration's one blocking wait: every slab's graph plus the halo
    // messages feeding it.  The span closes (RAII) even when it throws.
    amt::trace::scoped_span halo_wait(amt::trace::event_kind::barrier_span,
                                      "halo_wait",
                                      static_cast<std::int32_t>(num_slabs));
    bool timed_out = false;
    index_t suspect_slab = -1;
    const bool armed = mode_ != exchange_mode::bulk_synchronous &&
                       (halo_timeout_.count() > 0 || retry_.enabled());
    if (armed) {
        // Per-iteration progress deadline: a whole deadline's worth of
        // polls with zero task completions on the runtime (its per-worker
        // task records) while the graph is pending
        // means a halo message is not coming (e.g. a dead peer).  Fail the
        // fabric — the channel_closed cascade satisfies every pending
        // receive, so the wait below terminates.  With retry on but no
        // explicit timeout, a default deadline guarantees exhausted retries
        // escalate instead of hanging.  The poll period is finer than the
        // deadline so the drop recovery (service_resends) runs on the
        // backoff timescale.
        const auto deadline =
            halo_timeout_.count() > 0 ? halo_timeout_ : default_retry_deadline;
        auto poll = deadline / 4;
        if (retry_.enabled()) {
            poll = std::min(poll, std::max(retry_.initial_backoff,
                                           std::chrono::milliseconds(1)));
        }
        poll = std::clamp(poll, std::chrono::milliseconds(1),
                          std::chrono::milliseconds(250));
        auto last_finished = rt_.snapshot_counters().tasks_executed;
        std::chrono::milliseconds stalled_for{0};
        while (!compiled_->wait_for(poll)) {
            if (retry_.enabled()) service_resends(c);
            const auto now_finished = rt_.snapshot_counters().tasks_executed;
            if (now_finished == last_finished) {
                stalled_for += poll;
                if (!timed_out && stalled_for >= deadline) {
                    timed_out = true;
                    if (detector_) {
                        // Heartbeats name the prime suspect: the slab whose
                        // last sign of life is the most stale.
                        const auto ranked = detector_->suspect();
                        if (!ranked.empty()) suspect_slab = ranked.front();
                        amt::resilience().slab_deaths.add(1);
                        amt::trace::mark("halo:slab_death",
                                         static_cast<std::int32_t>(
                                             suspect_slab));
                    }
                    c.close_channels();
                    // A *simulated* stall (fault injection) parks its task
                    // inside the probe; release it so the stalled slab's
                    // own nodes can complete too.  A genuinely hung task
                    // body cannot be recovered in-process — its
                    // stall_timeout fail-safe is the backstop.
                    amt::fault::release_stalls();
                }
            } else {
                stalled_for = std::chrono::milliseconds(0);
            }
            last_finished = now_finished;
        }
    }
    try {
        compiled_->wait();
    } catch (...) {
        // Already filed under its slab by the error hook; the root cause
        // is picked below.
    }

    // Surface the root cause: a slab's own failure beats the
    // channel_closed cascade it triggered in its peers.
    std::exception_ptr cascade, root;
    index_t root_slab = -1;
    status root_code = status::ok;
    bool root_transient = false;
    for (std::size_t i = 0; i < errors_.size(); ++i) {
        const auto& e = errors_[i];
        if (e == nullptr) continue;
        try {
            std::rethrow_exception(e);
        } catch (const amt::channel_closed&) {
            if (cascade == nullptr) cascade = e;
        } catch (const simulation_error& se) {
            if (root == nullptr) {
                root = e;
                root_slab = static_cast<index_t>(i);
                root_code = se.code();
                root_transient = false;
            }
        } catch (const amt::fault::injected_fault&) {
            if (root == nullptr) {
                root = e;
                root_slab = static_cast<index_t>(i);
                root_code = status::task_fault;
                root_transient = true;  // replay at unchanged dt can clear it
            }
        } catch (...) {
            if (root == nullptr) {
                root = e;
                root_slab = static_cast<index_t>(i);
                root_code = status::task_fault;
                root_transient = false;
            }
        }
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

    reduce_constraints(c);

    if (!flags_.volume_ok->load(amt::memory_order_relaxed)) {
        last_failure_ = {-1, status::volume_error, false,
                         "non-positive volume detected"};
        throw simulation_error(status::volume_error,
                               "non-positive volume detected");
    }
    if (!flags_.qstop_ok->load(amt::memory_order_relaxed)) {
        last_failure_ = {-1, status::qstop_error, false,
                         "artificial viscosity exceeded qstop"};
        throw simulation_error(status::qstop_error,
                               "artificial viscosity exceeded qstop");
    }
}


void dist_driver::send_halo(cluster& c, index_t s, bool upper, bool corner) {
    domain& d = c.slab(s);
    const index_t b = upper ? s : s - 1;
    const halo_stream which = stream_of(corner, upper);
    amt::trace::scoped_span halo(amt::trace::event_kind::halo_span,
                                 corner ? "halo:pack_corner" : "halo:pack_delv",
                                 static_cast<std::int32_t>(s));
    const index_t base =
        upper ? d.top_plane_elem_base() : d.bottom_plane_elem_base();
    plane_buffer buf =
        corner ? pack_corner_plane(d, base) : pack_delv_plane(d, base);
    if (detector_) detector_->heartbeat(s);

    boundary_channels& bc = c.boundary(b);
    retransmit_slot& tx = stream_slot(bc, which);
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

bool dist_driver::resend_from_cache(cluster& c, index_t b, halo_stream which,
                                    bool force) {
    boundary_channels& bc = c.boundary(b);
    retransmit_slot& tx = stream_slot(bc, which);
    const std::uint64_t salt =
        static_cast<std::uint64_t>(b) * num_halo_streams +
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

bool dist_driver::submit_overlapped_capture(
    index_t slab, std::shared_ptr<state_capture> cap) {
    if (mode_ == exchange_mode::bulk_synchronous || rt_.num_workers() <= 1) {
        return false;
    }
    const auto i = static_cast<std::size_t>(slab);
    if (pending_captures_.size() <= i) pending_captures_.resize(i + 1);
    pending_captures_[i] = cap;
    return true;
}

void dist_driver::service_resends(cluster& c) {
    for (index_t b = 0; b + 1 < c.num_slabs(); ++b) {
        for (int w = 0; w < num_halo_streams; ++w) {
            resend_from_cache(c, b, static_cast<halo_stream>(w),
                              /*force=*/false);
        }
    }
}

namespace {

/// Shared state of one receive-with-retry chain (receive_halo).
struct recv_ctx {
    amt::channel<plane_buffer> ch;
    retry_policy pol;
    std::uint64_t salt = 0;
    bool corner = true;
    domain* dom = nullptr;
    index_t ghost_slot = -1;
    halo_message_info info;
    index_t slab = -1;
    std::shared_ptr<failure_detector> det;
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
                        unpack_corner_ghosts(*ctx->dom, ctx->ghost_slot, buf,
                                             ctx->info);
                    } else {
                        unpack_delv_ghosts(*ctx->dom, ctx->ghost_slot, buf,
                                           ctx->info);
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

void dist_driver::receive_halo(
    cluster& c, const graph::compiled_iteration::external& e) {
    const auto s = static_cast<index_t>(e.slab);
    const bool upper = e.task->partition == 1;
    const bool corner = e.task->kind == graph::body_kind::unpack_corner;
    const index_t b = upper ? s : s - 1;
    const halo_stream which = stream_of(corner, !upper);
    auto ctx = std::make_shared<recv_ctx>();
    ctx->ch = stream_channel(c.boundary(b), which);
    ctx->pol = retry_;
    ctx->salt = static_cast<std::uint64_t>(b) * num_halo_streams +
                static_cast<std::uint64_t>(which) + 1;
    ctx->corner = corner;
    ctx->dom = &c.slab(s);
    ctx->ghost_slot =
        upper ? ctx->dom->ghost_upper_slot() : ctx->dom->ghost_lower_slot();
    ctx->info = {b, halo_stream_name(which)};
    ctx->slab = s;
    ctx->det = detector_;
    ctx->graph = &compiled_->graph();
    ctx->gate = e.gate;
    if (amt::metrics::enabled()) {
        ctx->metrics_t0 = std::chrono::steady_clock::now();
    }
    if (retry_.enabled()) {
        cluster* cp = &c;
        ctx->request_resend = [this, cp, b, which] {
            return resend_from_cache(*cp, b, which, /*force=*/true);
        };
    }
    chain_receive(ctx, 0);
}

void dist_driver::reduce_constraints(cluster& c) {
    k::dt_constraints combined;
    for (index_t s = 0; s < c.num_slabs(); ++s) {
        const auto slab = static_cast<std::size_t>(s);
        const k::dt_constraints* partials = compiled_->partials(slab);
        for (std::size_t i = 0; i < compiled_->slot_count(slab); ++i) {
            combined = k::min_constraints(combined, partials[i]);
        }
    }
    for (index_t s = 0; s < c.num_slabs(); ++s) {
        c.slab(s).dtcourant = combined.dtcourant;
        c.slab(s).dthydro = combined.dthydro;
    }
}

run_result run_simulation(cluster& c, dist_driver& drv, int max_cycles) {
    run_result result;
    const auto t0 = std::chrono::steady_clock::now();
    try {
        while (c.slab(0).time_ < c.slab(0).stoptime &&
               c.slab(0).cycle < max_cycles) {
            // TimeIncrement runs on every slab with identical inputs
            // (constraints were reduced globally), so dt and time stay in
            // lockstep across the cluster.
            for (index_t s = 0; s < c.num_slabs(); ++s) {
                kernels::time_increment(c.slab(s));
            }
            amt::fault::set_epoch(c.slab(0).cycle);
            drv.advance(c);
        }
    } catch (const simulation_error& err) {
        result.run_status = err.code();
        result.error_message = describe_failure(err.what(), c.slab(0).cycle,
                                                c.slab(0).deltatime);
    } catch (const amt::fault::injected_fault& err) {
        result.run_status = status::task_fault;
        result.error_message = describe_failure(err.what(), c.slab(0).cycle,
                                                c.slab(0).deltatime);
    } catch (const amt::channel_closed& err) {
        // A peer died and took the halo fabric down; the root cause was
        // surfaced on its own slab, this run observed the cascade.
        result.run_status = status::stalled;
        result.error_message = describe_failure(err.what(), c.slab(0).cycle,
                                                c.slab(0).deltatime);
    }
    const auto t1 = std::chrono::steady_clock::now();
    result.cycles = c.slab(0).cycle;
    result.final_time = c.slab(0).time_;
    result.final_dt = c.slab(0).deltatime;
    result.final_origin_energy = c.slab(0).e[0];
    result.elapsed_seconds = std::chrono::duration<double>(t1 - t0).count();
    return result;
}

}  // namespace lulesh::dist
