// dist/driver_dist.cpp — multi-domain leapfrog with halo exchange.

#include "dist/driver_dist.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "amt/metrics.hpp"
#include "dist/halo_audit.hpp"

namespace lulesh::dist {

namespace {

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

dist_driver::dist_driver(amt::runtime& rt, partition_sizes parts,
                         exchange_mode mode,
                         std::chrono::milliseconds halo_timeout,
                         retry_policy retry)
    : rt_(rt),
      parts_(parts),
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
        bound_->close_channels();
    };
}

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

void dist_driver::halo_step(std::size_t slab, const graph::task_decl& t) {
    const auto s = static_cast<index_t>(slab);
    if (t.kind == graph::body_kind::slab_liveness) {
        if (detector_) detector_->heartbeat(s);
        amt::fault::probe(kill_labels_[slab].c_str());
        return;
    }
    send_halo(*bound_, s, t.partition == 1,
              t.kind == graph::body_kind::pack_corner);
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
    slabs_.clear();
    for (index_t s = 0; s < num_slabs; ++s) slabs_.push_back(&c.slab(s));
    // Compiles the slab tables unless the graph fits the cluster, binds
    // every slab and lets each slab's previous state be packed by tasks of
    // this iteration (see submit_overlapped_capture).
    graph::compiled_iteration& ci = replay_.arm(
        slabs_,
        [this](const domain& d, std::size_t s) {
            return build_slab_table(d, parts_, static_cast<index_t>(s));
        },
        {parts_}, fabric_);
    for (const auto& e : ci.externals()) receive_halo(c, e);
    ci.start();

    // The iteration's one blocking wait: every slab's graph plus the halo
    // messages feeding it.  The span closes (RAII) even when it throws.
    amt::trace::scoped_span halo_wait(amt::trace::event_kind::barrier_span,
                                      "halo_wait",
                                      static_cast<std::int32_t>(num_slabs));
    bool timed_out = false;
    index_t suspect_slab = -1;
    if (halo_timeout_.count() > 0 || retry_.enabled()) {
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
        while (!ci.wait_for(poll)) {
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
        ci.wait();
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

    ci.reduce_constraints();
    try {
        ci.check();
    } catch (const simulation_error& e) {
        last_failure_ = {-1, e.code(), false, e.what()};  // unattributable
        throw;
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
    return replay_.submit_capture(static_cast<std::size_t>(slab),
                                  std::move(cap));
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
    ctx->graph = &replay_.compiled()->graph();
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

}  // namespace lulesh::dist
