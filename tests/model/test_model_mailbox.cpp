// Homed-posting litmuses (amt/mailbox.hpp), run on the real mailbox and
// sleeper_gate code:
//
//   * mailbox — a poster's pushes race the owner's take and a thief's
//     take: every task is taken exactly once, and whoever takes a task
//     sees the poster's qnext link and the payload written before the
//     post.  The weakened twin demotes push's release to relaxed
//     (model_weaken_push) and must be caught.
//
//   * sleeper gate — a post races a worker going to sleep: either the
//     poster sees the sleeper count, or the sleeper's last probe sees the
//     task.  Dropping either seq_cst fence (model_drop_sleeper_fence,
//     model_drop_poster_fence) opens the store-buffer window in which
//     both miss — a lost wakeup — and must be caught.

#include <gtest/gtest.h>

#include "amt/atomic.hpp"
#include "amt/mailbox.hpp"
#include "amt/model.hpp"
#include "amt/task.hpp"

namespace {

using amt::model::check;
using amt::model::model_assert;
using amt::model::options;
using amt::model::result;

struct dummy_task final : amt::task_base {
    dummy_task() : task_base(/*scheduler_owned=*/false) {}
    void execute() noexcept override {}
};

/// Sets one model seam for a scope, restoring it even when the checked
/// body aborts mid-execution.
struct seam_guard {
    explicit seam_guard(bool& seam) : seam_(seam) { seam_ = true; }
    ~seam_guard() { seam_ = false; }
    seam_guard(const seam_guard&) = delete;
    seam_guard& operator=(const seam_guard&) = delete;

private:
    bool& seam_;
};

// One poster pushes two tasks, each after writing its payload; the owner
// and a thief each take the mailbox once while the pushes are in flight,
// and whatever is left is taken after the joins.  Takers walk the chain
// the way runtime::split_chain does: read qnext, then hand the task on.
void push_vs_takes_body() {
    amt::mailbox box;
    dummy_task a;
    dummy_task b;
    amt::atomic<int> payload_a{0};
    amt::atomic<int> payload_b{0};
    int taken_a = 0;
    int taken_b = 0;
    auto consume = [&](amt::task_base* chain) {
        for (amt::task_base* t = chain; t != nullptr;) {
            amt::task_base* next = t->qnext.load(amt::memory_order_relaxed);
            if (t == &a) {
                ++taken_a;
                model_assert(payload_a.load(amt::memory_order_relaxed) == 1,
                             "mailbox: a taker missed the poster's payload");
            } else {
                model_assert(t == &b, "mailbox: a taker followed a stale link");
                ++taken_b;
                model_assert(payload_b.load(amt::memory_order_relaxed) == 1,
                             "mailbox: a taker missed the poster's payload");
            }
            t = next;
        }
    };
    amt::model::thread poster([&] {
        payload_a.store(1, amt::memory_order_relaxed);
        box.push(&a);
        payload_b.store(1, amt::memory_order_relaxed);
        box.push(&b);
    });
    amt::model::thread thief([&] { consume(box.take_all()); });
    consume(box.take_all());  // the owner
    poster.join();
    thief.join();
    consume(box.take_all());
    model_assert(taken_a == 1 && taken_b == 1,
                 "mailbox: a task was taken zero or two times");
}

TEST(ModelMailbox, PushRacingOwnerAndThiefTakesHandsOutEachTaskOnce) {
    options o;
    o.quiet = true;
    const result r = check(o, push_vs_takes_body);
    EXPECT_FALSE(r.failed) << r.reason << "\n" << r.trace;
    EXPECT_TRUE(r.complete) << "state space should be within bounds";
}

TEST(ModelMailbox, RelaxedPushIsCaught) {
    seam_guard weaken(amt::mailbox::model_weaken_push);
    options o;
    o.quiet = true;
    const result r = check(o, push_vs_takes_body);
    ASSERT_TRUE(r.failed)
        << "a relaxed push must let a taker read a stale qnext";
    EXPECT_NE(r.reason.find("mailbox"), std::string::npos) << r.reason;
    EXPECT_FALSE(r.replay.empty());

    options replay = o;
    replay.replay = r.replay.c_str();
    const result again = check(replay, push_vs_takes_body);
    EXPECT_TRUE(again.failed) << "the replay token must reproduce it";
}

// A poster publishes a task into a mailbox and asks the gate whether to
// wake anyone; concurrently a worker announces itself to the gate and
// makes its last probe before parking.  A worker whose probe finds the
// task leaves the gate; one that finds nothing parks, still counted.
void post_vs_park_body() {
    amt::mailbox box;
    amt::sleeper_gate gate;
    dummy_task t;
    bool poster_wakes = false;
    bool probe_found = false;
    amt::model::thread poster([&] {
        box.push(&t);
        poster_wakes = gate.any_after_post();
    });
    gate.enter();
    probe_found = box.take_all() != nullptr;
    if (probe_found) gate.leave();
    poster.join();
    model_assert(poster_wakes || probe_found,
                 "lost wakeup: the poster saw no sleeper and the sleeper's "
                 "last probe saw no task");
}

TEST(ModelSleeperGate, PostRacingParkNeverLosesTheWakeup) {
    options o;
    o.quiet = true;
    const result r = check(o, post_vs_park_body);
    EXPECT_FALSE(r.failed) << r.reason << "\n" << r.trace;
    EXPECT_TRUE(r.complete);
}

TEST(ModelSleeperGate, DroppedSleeperFenceIsCaught) {
    seam_guard drop(amt::sleeper_gate::model_drop_sleeper_fence);
    options o;
    o.quiet = true;
    const result r = check(o, post_vs_park_body);
    ASSERT_TRUE(r.failed) << "without the sleeper's fence both sides may miss";
    EXPECT_NE(r.reason.find("lost wakeup"), std::string::npos) << r.reason;
    EXPECT_FALSE(r.replay.empty());
}

TEST(ModelSleeperGate, DroppedPosterFenceIsCaught) {
    seam_guard drop(amt::sleeper_gate::model_drop_poster_fence);
    options o;
    o.quiet = true;
    const result r = check(o, post_vs_park_body);
    ASSERT_TRUE(r.failed) << "without the poster's fence both sides may miss";
    EXPECT_NE(r.reason.find("lost wakeup"), std::string::npos) << r.reason;
    EXPECT_FALSE(r.replay.empty());
}

}  // namespace
