// amt/static_graph.cpp — compiled-graph replay engine (see header).

#include "amt/static_graph.hpp"

#include <algorithm>
#include <chrono>

#include "amt/trace.hpp"

namespace amt {

static_graph::~static_graph() {
    // Destroying a graph with a replay in flight would free nodes the
    // scheduler still references; wait() is the mandatory sync point.
    assert(!armed_ && "static_graph destroyed while a replay is in flight");
}

static_graph::node_id static_graph::add_node(unique_function<void()> body,
                                             const char* label,
                                             std::int32_t arg) {
    assert(!sealed_ && "add_node after seal()");
    const auto id = static_cast<node_id>(nodes_.size());
    node& n = nodes_.emplace_back();
    n.graph = this;
    n.id = id;
    n.body = std::move(body);
    n.name = label;
    n.arg = arg;
    return id;
}

void static_graph::add_edge(node_id from, node_id to) {
    assert(!sealed_ && "add_edge after seal()");
    assert(from < nodes_.size() && to < nodes_.size());
    assert(from != to && "self-edge");
    edges_.emplace_back(from, to);
}

void static_graph::seal() {
    assert(!sealed_ && "seal() called twice");
    // CSR successor table: count, prefix-sum, fill.
    for (node& n : nodes_) n.succ_count = 0;
    for (const auto& [from, to] : edges_) {
        nodes_[from].succ_count += 1;
        nodes_[to].init_deps += 1;
    }
    std::uint32_t offset = 0;
    for (node& n : nodes_) {
        n.succ_begin = offset;
        offset += n.succ_count;
    }
    succ_.assign(offset, 0);
    {
        std::vector<std::uint32_t> cursor(nodes_.size(), 0);
        for (const auto& [from, to] : edges_) {
            succ_[nodes_[from].succ_begin + cursor[from]++] = to;
        }
    }
    for (node_id id = 0; id < nodes_.size(); ++id) {
        if (nodes_[id].init_deps == 0) roots_.push_back(id);
    }
    edges_.clear();
    edges_.shrink_to_fit();
    sealed_ = true;
}

void static_graph::set_external_deps(node_id id, std::uint32_t count) {
    assert(sealed_);
    assert(!armed_ && "set_external_deps with a replay in flight");
    nodes_[id].ext_deps = count;
}

void static_graph::satisfy_external(node_id id) {
    node& n = nodes_[id];
    if (n.remaining.fetch_sub(1, amt::memory_order_acq_rel) == 1) {
        rt_->post_raw(&n);
    }
}

void static_graph::arm(runtime& rt) {
    assert(sealed_ && "arm() before seal()");
    assert(!armed_ && "arm() while the previous replay is in flight");
    rt_ = &rt;
    stop_.store(false, amt::memory_order_relaxed);
    {
        std::lock_guard lk(err_mu_);
        error_ = nullptr;
    }
    for (node& n : nodes_) {
        // External gating is per-replay opt-in: consume and clear.
        n.armed_ext = n.ext_deps;
        n.ext_deps = 0;
        n.remaining.store(n.init_deps + n.armed_ext,
                          amt::memory_order_relaxed);
    }
    // The release pairs with the acq_rel decrements in on_complete, making
    // all re-arm writes visible to whichever worker finishes the graph.
    pending_.store(nodes_.size(), amt::memory_order_release);
    {
        std::lock_guard lk(gate_mu_);
        done_ = false;
    }
    ++generation_;
    armed_ = true;
}

void static_graph::start() {
    assert(armed_ && "start() before arm()");
    if (nodes_.empty()) {
        finish_graph();
        return;
    }
    for (node_id id : roots_) {
        node& n = nodes_[id];
        // Externally-gated roots are posted by satisfy_external(); probing
        // `remaining` here instead would race with a pack task finishing
        // between our load and the post (double post).
        if (n.armed_ext == 0) rt_->post_raw(&n);
    }
}

void static_graph::wait() {
    runtime* rt = rt_;
    if (rt != nullptr && rt->on_worker_thread()) {
        // A worker must not block: keep running tasks (ours or anyone's)
        // until the graph drains.
        for (;;) {
            {
                std::lock_guard lk(gate_mu_);
                if (done_) break;
            }
            if (!rt->try_run_one()) std::this_thread::yield();
        }
    } else {
        std::unique_lock lk(gate_mu_);
        gate_cv_.wait(lk, [&] { return done_; });
    }
    armed_ = false;
    std::exception_ptr e;
    {
        std::lock_guard lk(err_mu_);
        e = error_;
    }
    if (e) std::rethrow_exception(e);
}

bool static_graph::wait_for(std::chrono::nanoseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    runtime* rt = rt_;
    if (rt != nullptr && rt->on_worker_thread()) {
        for (;;) {
            {
                std::lock_guard lk(gate_mu_);
                if (done_) return true;
            }
            if (std::chrono::steady_clock::now() >= deadline) return false;
            if (!rt->try_run_one()) std::this_thread::yield();
        }
    }
    std::unique_lock lk(gate_mu_);
    return gate_cv_.wait_until(lk, deadline, [&] { return done_; });
}

void static_graph::node::execute() noexcept {
    static_graph* g = graph;
    trace::annotate_task(name, arg);
    if (!g->stop_.load(amt::memory_order_acquire)) {
        try {
            if (g->profiling_) {
                const auto t0 = std::chrono::steady_clock::now();
                body();
                accum_ns += static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
                ++timed_runs;
            } else {
                body();
            }
            ++execs;
        } catch (...) {
            g->fail(id, std::current_exception());
        }
    }
    g->on_complete(*this);
}

void static_graph::on_complete(node& n) noexcept {
    const std::uint32_t begin = n.succ_begin;
    const std::uint32_t count = n.succ_count;
    for (std::uint32_t i = 0; i < count; ++i) {
        node& s = nodes_[succ_[begin + i]];
        if (s.remaining.fetch_sub(1, amt::memory_order_acq_rel) == 1) {
            // Worker context: lands in this worker's own deque, no lock,
            // no allocation.
            rt_->post_raw(&s);
        }
    }
    if (pending_.fetch_sub(1, amt::memory_order_acq_rel) == 1) {
        finish_graph();
    }
}

void static_graph::finish_graph() noexcept {
    std::lock_guard lk(gate_mu_);
    done_ = true;
    gate_cv_.notify_all();
}

void static_graph::fail(node_id id, std::exception_ptr e) noexcept {
    stop_.store(true, amt::memory_order_release);
    {
        std::lock_guard lk(err_mu_);
        if (!error_) error_ = e;  // first failure wins, like when_all
    }
    if (error_hook_) error_hook_(id, e);
}

std::uint64_t static_graph::executions(node_id id) const {
    return nodes_[id].execs;
}

std::uint64_t static_graph::node_time_ns(node_id id) const {
    return nodes_[id].accum_ns;
}

std::uint64_t static_graph::node_timed_runs(node_id id) const {
    return nodes_[id].timed_runs;
}

void static_graph::reset_node_times() {
    for (node& n : nodes_) {
        n.accum_ns = 0;
        n.timed_runs = 0;
    }
}

std::uint32_t static_graph::dependency_count(node_id id) const {
    return nodes_[id].init_deps;
}

std::vector<static_graph::node_id> static_graph::successors(node_id id) const {
    const node& n = nodes_[id];
    return {succ_.begin() + n.succ_begin,
            succ_.begin() + n.succ_begin + n.succ_count};
}

const char* static_graph::node_label(node_id id) const {
    return nodes_[id].name;
}

std::int32_t static_graph::node_arg(node_id id) const {
    return nodes_[id].arg;
}

bool static_graph::has_edge(node_id from, node_id to) const {
    const node& n = nodes_[from];
    const auto first = succ_.begin() + n.succ_begin;
    const auto last = first + n.succ_count;
    return std::find(first, last, to) != last;
}

}  // namespace amt
