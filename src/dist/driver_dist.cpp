// dist/driver_dist.cpp — multi-domain leapfrog with halo exchange.

#include "dist/driver_dist.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "amt/metrics.hpp"
#include "core/graph_waves.hpp"
#include "core/stage.hpp"

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

void dist_driver::advance(cluster& c) {
    last_failure_ = slab_failure{};
    ensure_fabric(c);
    if (detector_) detector_->begin_iteration();
    switch (mode_) {
        case exchange_mode::futurized:
            advance_futurized(c, /*eager=*/false);
            break;
        case exchange_mode::eager:
            advance_futurized(c, /*eager=*/true);
            break;
        case exchange_mode::bulk_synchronous:
            advance_bulk_synchronous(c);
            break;
    }
}

void dist_driver::send_halo(cluster& c, index_t s, bool upper, bool corner) {
    domain& d = c.slab(s);
    const index_t b = upper ? s : s - 1;
    const halo_stream which =
        corner ? (upper ? halo_stream::corner_up : halo_stream::corner_down)
               : (upper ? halo_stream::delv_up : halo_stream::delv_down);
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
    const char* span_name = "";
    index_t slab = -1;
    std::shared_ptr<failure_detector> det;
    std::function<void(const plane_buffer&)> unpack;
    std::function<bool()> request_resend;  // null = retry disabled
    amt::promise<void> done;
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

/// Chains one channel get() → unpack; on a CRC failure with retry budget
/// left, requests a resend (as its own backed-off task — never blocking
/// this continuation) and re-chains for the fresh copy.
void chain_receive(const std::shared_ptr<recv_ctx>& ctx, int attempt) {
    ctx->ch.get().then(
        amt::launch::sync, [ctx, attempt](amt::future<plane_buffer>&& m) {
            try {
                {
                    amt::trace::scoped_span halo(
                        amt::trace::event_kind::halo_span, ctx->span_name,
                        static_cast<std::int32_t>(ctx->slab));
                    ctx->unpack(m.get());
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
                ctx->done.set_value();
                return;
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
                ctx->done.set_exception(std::current_exception());
            } catch (...) {
                ctx->done.set_exception(std::current_exception());
            }
        });
}

}  // namespace

amt::future<void> dist_driver::receive_halo(
    cluster& c, index_t s, index_t b, halo_stream which, const char* span_name,
    std::function<void(const plane_buffer&)> unpack) {
    auto ctx = std::make_shared<recv_ctx>();
    ctx->ch = stream_channel(c.boundary(b), which);
    ctx->pol = retry_;
    ctx->salt = static_cast<std::uint64_t>(b) * num_halo_streams +
                static_cast<std::uint64_t>(which) + 1;
    ctx->span_name = span_name;
    ctx->slab = s;
    ctx->det = detector_;
    ctx->unpack = std::move(unpack);
    if (amt::metrics::enabled()) {
        ctx->metrics_t0 = std::chrono::steady_clock::now();
    }
    if (retry_.enabled()) {
        cluster* cp = &c;
        ctx->request_resend = [this, cp, b, which] {
            return resend_from_cache(*cp, b, which, /*force=*/true);
        };
    }
    auto fut = ctx->done.get_future();
    chain_receive(ctx, 0);
    return fut;
}

void dist_driver::reduce_constraints(cluster& c) {
    k::dt_constraints combined;
    for (const auto& slab_partials : partials_) {
        for (const auto& partial : slab_partials) {
            combined = k::min_constraints(combined, partial);
        }
    }
    for (index_t s = 0; s < c.num_slabs(); ++s) {
        c.slab(s).dtcourant = combined.dtcourant;
        c.slab(s).dthydro = combined.dthydro;
    }
}

namespace {

/// Builds one element-range wave in either monolithic or eager-split form.
/// In eager mode the bottom/top boundary-plane tasks form their own groups
/// whose completion gates the respective sends — a neighbor's ghost message
/// leaves as soon as the plane it needs is computed, while this slab's
/// interior may still be running.  Returns the whole-wave barrier plus the
/// send-completion futures.
struct staged_wave {
    amt::future<void> barrier;
    std::vector<amt::future<void>> sends;
};

template <class SpawnRange, class SendLower, class SendUpper>
staged_wave spawn_staged(domain& d, bool eager, SpawnRange&& spawn_range,
                         SendLower&& send_lower, SendUpper&& send_upper) {
    const index_t ne = d.numElem();
    const index_t ep = d.elems_per_plane();
    staged_wave out;

    if (!eager || ne <= ep) {
        // Monolithic wave: sends gate on the full barrier (single-plane
        // slabs always take this path — the plane *is* the whole wave).
        amt::shared_future<void> all(
            amt::when_all_void(std::move(spawn_range(0, ne).futures)));
        if (d.has_lower_neighbor()) {
            out.sends.push_back(all.then(
                amt::launch::sync,
                [send_lower](const amt::shared_future<void>& f) {
                    f.get();
                    send_lower();
                }));
        }
        if (d.has_upper_neighbor()) {
            out.sends.push_back(all.then(
                amt::launch::sync,
                [send_upper](const amt::shared_future<void>& f) {
                    f.get();
                    send_upper();
                }));
        }
        out.barrier = all.then(amt::launch::sync,
                               [](const amt::shared_future<void>& f) { f.get(); });
        return out;
    }

    // Eager split: [0, ep) bottom plane, [ne-ep, ne) top plane, interior.
    const index_t top_base = ne - ep;
    amt::shared_future<void> bottom(
        amt::when_all_void(std::move(spawn_range(0, ep).futures)));
    amt::shared_future<void> top(
        amt::when_all_void(std::move(spawn_range(top_base, ne).futures)));
    auto interior =
        top_base > ep
            ? amt::when_all_void(std::move(spawn_range(ep, top_base).futures))
            : amt::make_ready_future();

    if (d.has_lower_neighbor()) {
        out.sends.push_back(bottom.then(
            amt::launch::sync, [send_lower](const amt::shared_future<void>& f) {
                f.get();
                send_lower();
            }));
    }
    if (d.has_upper_neighbor()) {
        out.sends.push_back(top.then(
            amt::launch::sync, [send_upper](const amt::shared_future<void>& f) {
                f.get();
                send_upper();
            }));
    }

    std::vector<amt::future<void>> parts;
    parts.push_back(bottom.then(
        amt::launch::sync, [](const amt::shared_future<void>& f) { f.get(); }));
    parts.push_back(top.then(
        amt::launch::sync, [](const amt::shared_future<void>& f) { f.get(); }));
    parts.push_back(std::move(interior));
    out.barrier = amt::when_all_void(std::move(parts));
    return out;
}

}  // namespace

void dist_driver::advance_futurized(cluster& c, bool eager) {
    const index_t num_slabs = c.num_slabs();
    const real_t dt = c.slab(0).deltatime;
    const index_t p_nodal = parts_.nodal;
    const index_t p_elems = parts_.elems;

    graph::error_flags flags;
    partials_.resize(static_cast<std::size_t>(num_slabs));
    pending_captures_.resize(static_cast<std::size_t>(num_slabs));

    cluster* cp = &c;
    amt::runtime* rt = &rt_;

    std::vector<amt::future<void>> finals;
    finals.reserve(static_cast<std::size_t>(num_slabs));

    for (index_t s = 0; s < num_slabs; ++s) {
        domain* dp = &c.slab(s);

        // ---- wave 1: corner forces with (optionally eager) plane sends --
        auto stage1 = spawn_staged(
            *dp, eager,
            [&](index_t lo, index_t hi) {
                return graph::spawn_force_wave_range(rt_, *dp, lo, hi, p_nodal,
                                                     flags);
            },
            [this, cp, s] {
                send_halo(*cp, s, /*upper=*/false, /*corner=*/true);
            },
            [this, cp, s] {
                send_halo(*cp, s, /*upper=*/true, /*corner=*/true);
            });
        auto b1 = std::move(stage1.barrier);

        // Overlapped checkpoint packing of the slab's previous state (see
        // submit_overlapped_capture): node-field packs join halo1 below,
        // element-field packs ready3.
        std::vector<amt::future<void>> ready;
        std::vector<amt::future<void>> elem_packs;
        const std::shared_ptr<state_capture> cap =
            std::exchange(pending_captures_[static_cast<std::size_t>(s)], {})
                .lock();
        if (cap != nullptr && cap->source() == dp) {
            graph::spawn_pack_tasks(rt_, cap, flags, ready, elem_packs);
        } else if (cap != nullptr) {
            cap->pack_remaining();  // different domain: pack on the spot
        }

        // Ghost fills chain directly on the channel futures: this slab
        // proceeds as soon as its own wave and its neighbors' boundary
        // messages are ready — no global synchronization.
        ready.push_back(std::move(b1));
        for (auto& send : stage1.sends) ready.push_back(std::move(send));
        if (dp->has_lower_neighbor()) {
            ready.push_back(receive_halo(
                c, s, s - 1, halo_stream::corner_up, "halo:unpack_corner",
                [dp, s](const plane_buffer& buf) {
                    unpack_corner_ghosts(*dp, dp->ghost_lower_slot(), buf,
                                         {s - 1, "corner_up"});
                }));
        }
        if (dp->has_upper_neighbor()) {
            ready.push_back(receive_halo(
                c, s, s, halo_stream::corner_down, "halo:unpack_corner",
                [dp, s](const plane_buffer& buf) {
                    unpack_corner_ghosts(*dp, dp->ghost_upper_slot(), buf,
                                         {s, "corner_down"});
                }));
        }
        if (amt::fault::armed() || detector_) {
            // Per-slab liveness/kill-switch task: stamps the slab's
            // heartbeat and passes the slab_kill:<s> fault site, the hook a
            // fail-stop test uses to take one specific slab down.
            const char* kill_site =
                kill_labels_[static_cast<std::size_t>(s)].c_str();
            auto det = detector_;
            ready.push_back(amt::async(rt_, [kill_site, det, s] {
                if (det) det->heartbeat(s);
                amt::fault::probe(kill_site);
            }));
        }
        auto halo1 = amt::when_all_void(std::move(ready));

        // ---- wave 2 ------------------------------------------------------
        auto b2 = graph::stage_after(
            std::move(halo1),
            [rt, dp, p_nodal, dt, flags] {
                return graph::spawn_node_wave(*rt, *dp, p_nodal, dt, flags)
                    .futures;
            },
            graph::wave_site::node);

        // ---- wave 3 with the delv_zeta halo for the monotonic-Q stencil --
        // The wave is spawned by a continuation once b2 resolves; its sends
        // are eager-gated the same way as wave 1's.
        auto pr3 = std::make_shared<amt::promise<void>>();
        auto wave3_done = pr3->get_future();
        b2.then(amt::launch::sync, [this, cp, dp, s, p_elems, dt, flags, eager,
                                    pr3](amt::future<void>&& f) {
            try {
                f.get();
                auto stage3 = spawn_staged(
                    *dp, eager,
                    [this, dp, p_elems, dt, flags](index_t lo, index_t hi) {
                        return graph::spawn_elem_wave_range(rt_, *dp, lo, hi,
                                                            p_elems, dt, flags);
                    },
                    [this, cp, s] {
                        send_halo(*cp, s, /*upper=*/false, /*corner=*/false);
                    },
                    [this, cp, s] {
                        send_halo(*cp, s, /*upper=*/true, /*corner=*/false);
                    });
                std::vector<amt::future<void>> parts;
                parts.push_back(std::move(stage3.barrier));
                for (auto& send : stage3.sends) parts.push_back(std::move(send));
                amt::when_all_void(std::move(parts))
                    .then(amt::launch::sync,
                          [pr3](amt::future<void>&& g) mutable {
                              try {
                                  g.get();
                                  pr3->set_value();
                              } catch (...) {
                                  pr3->set_exception(std::current_exception());
                              }
                          });
            } catch (...) {
                pr3->set_exception(std::current_exception());
            }
        });
        std::vector<amt::future<void>> ready3 = std::move(elem_packs);
        ready3.push_back(std::move(wave3_done));
        if (dp->has_lower_neighbor()) {
            ready3.push_back(receive_halo(
                c, s, s - 1, halo_stream::delv_up, "halo:unpack_delv",
                [dp, s](const plane_buffer& buf) {
                    unpack_delv_ghosts(*dp, dp->ghost_lower_slot(), buf,
                                       {s - 1, "delv_up"});
                }));
        }
        if (dp->has_upper_neighbor()) {
            ready3.push_back(receive_halo(
                c, s, s, halo_stream::delv_down, "halo:unpack_delv",
                [dp, s](const plane_buffer& buf) {
                    unpack_delv_ghosts(*dp, dp->ghost_upper_slot(), buf,
                                       {s, "delv_down"});
                }));
        }
        auto halo3 = amt::when_all_void(std::move(ready3));

        // ---- waves 4 and 5 ------------------------------------------------
        auto b4 = graph::stage_after(
            std::move(halo3),
            [rt, dp, p_elems, flags] {
                return graph::spawn_region_wave(*rt, *dp, p_elems, flags)
                    .futures;
            },
            graph::wave_site::region_eos);

        auto& slab_partials = partials_[static_cast<std::size_t>(s)];
        slab_partials.assign(graph::constraint_slot_count(*dp, p_elems),
                             k::dt_constraints{});
        auto* partials = slab_partials.data();
        finals.push_back(graph::stage_after(
            std::move(b4),
            [rt, dp, p_elems, partials, flags] {
                return graph::spawn_constraint_wave(*rt, *dp, p_elems,
                                                    partials, flags)
                    .futures;
            },
            graph::wave_site::constraints));
    }

    // Failed-slab propagation: each slab's chain settles into one error
    // slot, and the first failure closes *all* channels, so every peer's
    // pending halo get() resolves with channel_closed and its chain settles
    // too (exceptionally) — the barrier below can never hang on a dead
    // neighbor.
    auto errors = std::make_shared<std::vector<std::exception_ptr>>(
        finals.size());
    std::vector<amt::future<void>> settled;
    settled.reserve(finals.size());
    for (std::size_t i = 0; i < finals.size(); ++i) {
        settled.push_back(finals[i].then(
            amt::launch::sync, [cp, errors, i](amt::future<void>&& f) {
                try {
                    f.get();
                } catch (...) {
                    (*errors)[i] = std::current_exception();
                    cp->close_channels();
                }
            }));
    }
    auto all = amt::when_all_void(std::move(settled));

    // The iteration's one blocking wait: every slab's chain plus the halo
    // messages feeding it.  The span closes (RAII) even when get() throws.
    amt::trace::scoped_span halo_wait(amt::trace::event_kind::barrier_span,
                                      "halo_wait",
                                      static_cast<std::int32_t>(num_slabs));
    bool timed_out = false;
    index_t suspect_slab = -1;
    const bool armed = halo_timeout_.count() > 0 || retry_.enabled();
    if (armed) {
        // Per-iteration progress deadline: a whole deadline's worth of
        // polls with zero task completions while the barrier is pending
        // means a halo message is not coming (e.g. a dead peer).  Fail the
        // fabric — the channel_closed cascade settles every chain, so the
        // wait below terminates.  With retry on but no explicit timeout, a
        // default deadline guarantees exhausted retries escalate instead of
        // hanging.  The poll period is finer than the deadline so the drop
        // recovery (service_resends) runs on the backoff timescale.
        const auto deadline =
            halo_timeout_.count() > 0 ? halo_timeout_ : default_retry_deadline;
        auto poll = deadline / 4;
        if (retry_.enabled()) {
            poll = std::min(poll, std::max(retry_.initial_backoff,
                                           std::chrono::milliseconds(1)));
        }
        poll = std::clamp(poll, std::chrono::milliseconds(1),
                          std::chrono::milliseconds(250));
        auto last_finished =
            flags.progress->finished.load(amt::memory_order_relaxed);
        std::chrono::milliseconds stalled_for{0};
        while (!all.wait_for(poll)) {
            if (retry_.enabled()) service_resends(c);
            const auto now_finished =
                flags.progress->finished.load(amt::memory_order_relaxed);
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
                    // own chain can settle too.  A genuinely hung task body
                    // cannot be recovered in-process — its stall_timeout
                    // fail-safe is the backstop.
                    amt::fault::release_stalls();
                }
            } else {
                stalled_for = std::chrono::milliseconds(0);
            }
            last_finished = now_finished;
        }
    }
    all.get();

    // Surface the root cause: a slab's own failure beats the
    // channel_closed cascade it triggered in its peers.
    std::exception_ptr cascade, root;
    index_t root_slab = -1;
    status root_code = status::ok;
    bool root_transient = false;
    for (std::size_t i = 0; i < errors->size(); ++i) {
        const auto& e = (*errors)[i];
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

    if (!flags.volume_ok->load(amt::memory_order_relaxed)) {
        last_failure_ = {-1, status::volume_error, false,
                         "non-positive volume detected"};
        throw simulation_error(status::volume_error,
                               "non-positive volume detected");
    }
    if (!flags.qstop_ok->load(amt::memory_order_relaxed)) {
        last_failure_ = {-1, status::qstop_error, false,
                         "artificial viscosity exceeded qstop"};
        throw simulation_error(status::qstop_error,
                               "artificial viscosity exceeded qstop");
    }
}

void dist_driver::advance_bulk_synchronous(cluster& c) {
    const index_t num_slabs = c.num_slabs();
    const real_t dt = c.slab(0).deltatime;
    const index_t p_nodal = parts_.nodal;
    const index_t p_elems = parts_.elems;

    graph::error_flags flags;
    partials_.resize(static_cast<std::size_t>(num_slabs));

    // One global barrier per wave: collect every slab's futures, block.
    auto global_wave = [&](auto&& spawn_for_slab) {
        std::vector<amt::future<void>> all;
        for (index_t s = 0; s < num_slabs; ++s) {
            auto futures = spawn_for_slab(c.slab(s), s);
            for (auto& f : futures) all.push_back(std::move(f));
        }
        amt::trace::scoped_span wait(amt::trace::event_kind::barrier_span,
                                     "global_wave",
                                     static_cast<std::int32_t>(all.size()));
        amt::when_all_void(std::move(all)).get();
    };

    global_wave([&](domain& d, index_t) {
        return graph::spawn_force_wave(rt_, d, p_nodal, flags).futures;
    });
    // Main-thread exchange between the global barriers (the MPI-ish step).
    for (index_t b = 0; b + 1 < num_slabs; ++b) {
        amt::trace::scoped_span halo(amt::trace::event_kind::halo_span,
                                     "halo:exchange_corner",
                                     static_cast<std::int32_t>(b));
        domain& lower = c.slab(b);
        domain& upper = c.slab(b + 1);
        unpack_corner_ghosts(upper, upper.ghost_lower_slot(),
                             pack_corner_plane(lower, lower.top_plane_elem_base()),
                             {b, "corner_up"});
        unpack_corner_ghosts(lower, lower.ghost_upper_slot(),
                             pack_corner_plane(upper, upper.bottom_plane_elem_base()),
                             {b, "corner_down"});
    }

    global_wave([&](domain& d, index_t) {
        return graph::spawn_node_wave(rt_, d, p_nodal, dt, flags).futures;
    });
    global_wave([&](domain& d, index_t) {
        return graph::spawn_elem_wave(rt_, d, p_elems, dt, flags).futures;
    });
    for (index_t b = 0; b + 1 < num_slabs; ++b) {
        amt::trace::scoped_span halo(amt::trace::event_kind::halo_span,
                                     "halo:exchange_delv",
                                     static_cast<std::int32_t>(b));
        domain& lower = c.slab(b);
        domain& upper = c.slab(b + 1);
        unpack_delv_ghosts(upper, upper.ghost_lower_slot(),
                           pack_delv_plane(lower, lower.top_plane_elem_base()),
                           {b, "delv_up"});
        unpack_delv_ghosts(lower, lower.ghost_upper_slot(),
                           pack_delv_plane(upper, upper.bottom_plane_elem_base()),
                           {b, "delv_down"});
    }
    global_wave([&](domain& d, index_t) {
        return graph::spawn_region_wave(rt_, d, p_elems, flags).futures;
    });
    global_wave([&](domain& d, index_t s) {
        auto& slab_partials = partials_[static_cast<std::size_t>(s)];
        slab_partials.assign(graph::constraint_slot_count(d, p_elems),
                             k::dt_constraints{});
        return graph::spawn_constraint_wave(rt_, d, p_elems,
                                            slab_partials.data(), flags)
            .futures;
    });

    reduce_constraints(c);

    if (!flags.volume_ok->load(amt::memory_order_relaxed)) {
        throw simulation_error(status::volume_error,
                               "non-positive volume detected");
    }
    if (!flags.qstop_ok->load(amt::memory_order_relaxed)) {
        throw simulation_error(status::qstop_error,
                               "artificial viscosity exceeded qstop");
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
