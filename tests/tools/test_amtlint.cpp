// tests/tools/test_amtlint.cpp — fixture-driven tests for the amtlint
// analysis (tools/amtlint).  Each rule gets at least one positive fixture
// asserting the exact diagnostic (rule id, file, line) and at least one
// negative fixture asserting silence on the idiomatic-correct form.  The
// fixtures are inline strings, built line by line so the expected line
// numbers are visible at the assertion site.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "amtlint.hpp"

namespace {

using amtlint::diagnostic;
using amtlint::lint_source;

std::vector<diagnostic> lint(const std::string& src,
                             bool kernel_rules = true) {
    amtlint::config cfg;
    cfg.kernel_rules = kernel_rules;
    return lint_source("fix.cpp", src, cfg);
}

std::string rules_of(const std::vector<diagnostic>& ds) {
    std::string s;
    for (const auto& d : ds) {
        if (!s.empty()) s += ",";
        s += d.rule;
    }
    return s;
}

// ===================== AMT001: by-reference captures =====================

TEST(Amt001, FlagsByRefCapturePassedToAsync) {
    const std::string src =
        "void f(amt::runtime& rt) {\n"                         // 1
        "    int x = 0;\n"                                     // 2
        "    auto fut = amt::async(rt, [&x] { ++x; });\n"      // 3
        "    fut.get();\n"                                     // 4
        "}\n";
    const auto ds = lint(src);
    ASSERT_EQ(ds.size(), 1u) << rules_of(ds);
    EXPECT_EQ(ds[0].rule, "AMT001");
    EXPECT_EQ(ds[0].line, 3);
    EXPECT_EQ(ds[0].file, "fix.cpp");
    EXPECT_EQ(ds[0].format(),
              "fix.cpp:3: [AMT001] by-reference lambda capture passed to "
              "'async' — the task may outlive the captured scope; capture "
              "by value (decay-copy) or capture a pointer");
}

TEST(Amt001, FlagsDefaultRefCaptureInContinuation) {
    const std::string src =
        "void f() {\n"                                          // 1
        "    int total = 0;\n"                                  // 2
        "    auto c = amt::async([] { return 1; })\n"           // 3
        "                 .then([&](amt::future<int>&& v) {\n"  // 4
        "                     total += v.get();\n"              // 5
        "                 });\n"                                 // 6
        "    c.get();\n"                                        // 7
        "}\n";
    const auto ds = lint(src);
    ASSERT_EQ(ds.size(), 1u) << rules_of(ds);
    EXPECT_EQ(ds[0].rule, "AMT001");
    EXPECT_EQ(ds[0].line, 4);
}

TEST(Amt001, SilentOnValueAndPointerCaptures) {
    const std::string src =
        "void f(amt::runtime& rt, domain& d) {\n"
        "    domain* dp = &d;\n"
        "    auto fut = amt::async(rt, [dp] { step(*dp); });\n"
        "    fut.get();\n"
        "}\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

TEST(Amt001, SilentOnByRefLambdaInvokedSynchronously) {
    // A [&] lambda passed to a plain function (or called in place) never
    // escapes the scope — only task entry points are dangerous.
    const std::string src =
        "void f(std::vector<int>& v) {\n"
        "    int pivot = 3;\n"
        "    std::sort(v.begin(), v.end(),\n"
        "              [&](int a, int b) { return a % pivot < b % pivot; });\n"
        "}\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

// ===================== AMT002: blocking waits in task bodies ==============

TEST(Amt002, FlagsGetInsideTaskBody) {
    const std::string src =
        "void f(amt::runtime& rt) {\n"                              // 1
        "    auto t = amt::async(rt, [] {\n"                        // 2
        "        auto inner = amt::async([] { return 1; });\n"      // 3
        "        return inner.get();\n"                             // 4
        "    });\n"                                                 // 5
        "}\n";
    const auto ds = lint(src);
    ASSERT_EQ(ds.size(), 1u) << rules_of(ds);
    EXPECT_EQ(ds[0].rule, "AMT002");
    EXPECT_EQ(ds[0].line, 4);
}

TEST(Amt002, FlagsWaitInsideTaskBody) {
    const std::string src =
        "void f(amt::shared_future<void> gate) {\n"  // 1
        "    amt::post([gate] {\n"                   // 2
        "        gate.wait();\n"                     // 3
        "    });\n"                                  // 4
        "}\n";
    const auto ds = lint(src);
    ASSERT_EQ(ds.size(), 1u) << rules_of(ds);
    EXPECT_EQ(ds[0].rule, "AMT002");
    EXPECT_EQ(ds[0].line, 3);
}

TEST(Amt002, SilentOnGetOfOwnContinuationParameter) {
    // The antecedent future handed to a .then continuation is ready by
    // construction; unwrapping it does not block.
    const std::string src =
        "void f() {\n"
        "    auto c = amt::async([] { return 21; })\n"
        "                 .then([](amt::future<int>&& v) {\n"
        "                     return v.get() * 2;\n"
        "                 });\n"
        "    c.get();\n"
        "}\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

TEST(Amt002, SilentOnChannelGetThatYieldsAFuture) {
    // channel.get() returns a future (non-blocking); chaining .then on the
    // result is the dist halo-exchange idiom.
    const std::string src =
        "void f(channels* cp) {\n"
        "    amt::post([cp] {\n"
        "        cp->corner_up.get().then([](amt::future<plane>&& m) {\n"
        "            unpack(m.get());\n"
        "        });\n"
        "    });\n"
        "}\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

TEST(Amt002, FlagsBlockingRetryLoopInResendTask) {
    // The tempting-but-wrong shape of a halo retry: a task body that
    // blocks on the replacement message.  While it waits it pins a worker,
    // which is exactly how a retry storm deadlocks a small thread pool.
    const std::string src =
        "void retry(channels* cp) {\n"                               // 1
        "    amt::post([cp] {\n"                                     // 2
        "        resend_from_cache(cp);\n"                           // 3
        "        auto replacement = cp->corner_up.get();\n"          // 4
        "        unpack(replacement.get());\n"                       // 5
        "    });\n"                                                  // 6
        "}\n";
    // Both shapes are flagged: the channel get() parked in a variable
    // instead of chained with .then (line 4), and the blocking unwrap of
    // the parked future (line 5).
    const auto ds = lint(src);
    ASSERT_EQ(ds.size(), 2u) << rules_of(ds);
    EXPECT_EQ(ds[0].rule, "AMT002");
    EXPECT_EQ(ds[0].line, 4);
    EXPECT_EQ(ds[1].rule, "AMT002");
    EXPECT_EQ(ds[1].line, 5);
}

TEST(Amt002, SilentOnPostedResendWithRechainedContinuation) {
    // The correct shape (dist halo retry): the resend is posted
    // fire-and-forget and the receiver re-chains a fresh .then on the
    // channel future — no worker ever blocks waiting for the retry.
    const std::string src =
        "void retry(std::shared_ptr<recv_ctx> ctx, int attempt) {\n"
        "    amt::post([ctx] { ctx->request_resend(); });\n"
        "    ctx->ch.get().then([ctx](amt::future<plane>&& m) {\n"
        "        ctx->unpack(m.get());\n"
        "    });\n"
        "}\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

TEST(Amt002, SilentOnGetOutsideAnyTaskBody) {
    const std::string src =
        "int f() {\n"
        "    auto fut = amt::async([] { return 7; });\n"
        "    return fut.get();\n"
        "}\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

// ===================== AMT003: undeclared field accesses ==================

TEST(Amt003, FlagsWriteToUndeclaredField) {
    const std::string src =
        "void my_kernel(domain& d, index_t lo, index_t hi) {\n"  // 1
        "    hazard_touch(field::p, false, lo, hi);\n"           // 2
        "    for (index_t i = lo; i < hi; ++i) {\n"              // 3
        "        d.q[i] = d.p[i] * 2.0;\n"                       // 4
        "    }\n"                                                // 5
        "}\n";
    const auto ds = lint(src);
    ASSERT_EQ(ds.size(), 1u) << rules_of(ds);
    EXPECT_EQ(ds[0].rule, "AMT003");
    EXPECT_EQ(ds[0].line, 4);
    EXPECT_NE(ds[0].message.find("writes field 'q'"), std::string::npos)
        << ds[0].message;
}

TEST(Amt003, ReadOnlyProbeDoesNotCoverWrite) {
    const std::string src =
        "void my_kernel(domain& d, index_t lo, index_t hi) {\n"  // 1
        "    hazard_touch(field::e, false, lo, hi);\n"           // 2
        "    d.e[lo] = 1.0;\n"                                   // 3
        "}\n";
    const auto ds = lint(src);
    ASSERT_EQ(ds.size(), 1u) << rules_of(ds);
    EXPECT_EQ(ds[0].rule, "AMT003");
    EXPECT_EQ(ds[0].line, 3);
}

TEST(Amt003, SimdStoresAreWrites) {
    const std::string src =
        "void my_kernel(domain& d, index_t lo, index_t hi) {\n"   // 1
        "    hazard_touch(field::vnew, false, lo, hi);\n"         // 2
        "    hazard_covers(field::x);\n"                          // 3
        "    T x[8];\n"                                           // 4
        "    simd::gather_corners(&d.x[0], d.nodelist(lo), x);\n" // 5
        "    simd::store(&d.vnew[lo], x[0]);\n"                   // 6
        "    simd::store_corners(&d.fx_elem[lo * 8], x);\n"       // 7
        "}\n";
    const auto ds = lint(src);
    ASSERT_EQ(ds.size(), 2u) << rules_of(ds);
    EXPECT_EQ(ds[0].line, 6);
    EXPECT_NE(ds[0].message.find("writes field 'vnew'"), std::string::npos)
        << ds[0].message;
    EXPECT_EQ(ds[1].line, 7);
    EXPECT_NE(ds[1].message.find("writes field 'fx_elem'"),
              std::string::npos)
        << ds[1].message;
}

TEST(Amt003, ListScattersAreWrites) {
    const std::string src =
        "void my_kernel(domain& d, const index_t* l) {\n"      // 1
        "    hazard_covers(field::e, true);\n"                  // 2
        "    hazard_covers(field::ss);\n"                       // 3
        "    const T e = simd::gather<T>(&d.e[0], l);\n"        // 4
        "    const T ss = simd::gather<T>(&d.ss[0], l);\n"      // 5
        "    simd::scatter(&d.e[0], l, e);\n"                   // 6
        "    simd::scatter(&d.ss[0], l, ss);\n"                 // 7
        "}\n";
    const auto ds = lint(src);
    ASSERT_EQ(ds.size(), 1u) << rules_of(ds);
    EXPECT_EQ(ds[0].line, 7);
    EXPECT_NE(ds[0].message.find("writes field 'ss'"), std::string::npos)
        << ds[0].message;
}

TEST(Amt003, FollowsProbelessHelpersInSameFile) {
    // The helper is called plainly, with explicit template arguments, and
    // with a nested argument list whose `>>` closes both levels.
    const std::pair<const char*, const char*> inputs[] = {
        {"static void", "helper(d, i)"},
        {"template <class T> void", "helper<double>(d, i)"},
        {"template <class T> void", "helper<std::array<double, 2>>(d, i)"},
    };
    for (const auto& [decl, call] : inputs) {
        const std::string src =
            std::string(decl) + " helper(domain& d, index_t i) {\n"  // 1
            "    d.ss[i] = 0.0;\n"                                   // 2
            "}\n"                                                    // 3
            "void my_kernel(domain& d, index_t lo, index_t hi) {\n"  // 4
            "    hazard_touch(field::vnew, true, lo, hi);\n"         // 5
            "    for (index_t i = lo; i < hi; ++i) {\n"              // 6
            "        d.vnew[i] = 1.0;\n"                             // 7
            "        " + call + ";\n"                                // 8
            "    }\n"                                                // 9
            "}\n";
        const auto ds = lint(src);
        ASSERT_EQ(ds.size(), 1u) << call << ": " << rules_of(ds);
        EXPECT_EQ(ds[0].rule, "AMT003") << call;
        EXPECT_EQ(ds[0].line, 2) << call;  // at the helper's access site
        EXPECT_NE(ds[0].message.find("'my_kernel'"), std::string::npos)
            << call << ": " << ds[0].message;
    }
}

TEST(Amt003, HazardCoversSatisfiesIndirectAccess) {
    const std::string src =
        "void my_kernel(domain& d, index_t lo, index_t hi) {\n"
        "    hazard_touch(field::vnew, true, lo, hi);\n"
        "    hazard_covers(field::x);\n"
        "    for (index_t k = lo; k < hi; ++k) {\n"
        "        const index_t* nl = d.nodelist(k);\n"
        "        d.vnew[k] = d.x[nl[0]];\n"
        "    }\n"
        "}\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

TEST(Amt003, SilentOnProbelessFunctions) {
    // Probe-less kernels (serial-driver helpers, loop-granular forms) are
    // exempt: the rule polices declared sets, it does not mandate probes.
    const std::string src =
        "void serial_kernel(domain& d, index_t lo, index_t hi) {\n"
        "    for (index_t i = lo; i < hi; ++i) d.q[i] = 0.0;\n"
        "}\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

TEST(Amt003, SilentOnTracerProbesInProbedKernels) {
    // The task tracer's annotations (amt/trace.hpp) sit inside probed
    // kernel bodies — the compiled graph annotates every task node, and
    // the dist driver wraps pack/unpack in scoped spans.  None of that is
    // a domain field access, and the probe-bearing kernel must stay clean.
    const std::string src =
        "void my_kernel(domain& d, index_t lo, index_t hi) {\n"
        "    hazard_touch(field::vnew, true, lo, hi);\n"
        "    amt::trace::annotate_task(\"elem:vnew\", "
        "static_cast<std::int32_t>(lo));\n"
        "    amt::trace::scoped_span span(\n"
        "        amt::trace::event_kind::halo_span, \"halo:pack\", 3);\n"
        "    amt::trace::mark(\"kernel-entry\", 1);\n"
        "    for (index_t i = lo; i < hi; ++i) d.vnew[i] = 1.0;\n"
        "}\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

TEST(Amt003, SilentOnMetricsUpdatesInProbedKernels) {
    // Same deal for the metrics registry (amt/metrics.hpp): instrumented
    // kernel bodies cache a counter/histogram reference and update it
    // next to their field accesses (the scheduler does exactly this for
    // amt_task_duration_ns).  None of get_*/add/record/scoped_timer is a
    // domain field access, so a probed kernel carrying metric updates
    // must stay clean.
    const std::string src =
        "void my_kernel(domain& d, index_t lo, index_t hi) {\n"
        "    hazard_touch(field::vnew, true, lo, hi);\n"
        "    static auto& kernel_runs = amt::metrics::get_counter(\n"
        "        \"lulesh_kernel_runs\", \"probed kernel executions\");\n"
        "    static auto& kernel_ns = amt::metrics::get_histogram(\n"
        "        \"lulesh_kernel_duration_ns\");\n"
        "    kernel_runs.add(1);\n"
        "    amt::metrics::scoped_timer timer(kernel_ns);\n"
        "    for (index_t i = lo; i < hi; ++i) d.vnew[i] = 1.0;\n"
        "}\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

TEST(Amt003, SilentOnCheckpointPackStyleDynamicTouch) {
    // The overlapped checkpoint pack task (checkpoint_chain.cpp
    // pack_region) declares its read with a *runtime* field value —
    // hazard_touch(r.f, ...) — because the field is data, not code.  The
    // rule keys on literal field:: declarations, so pack-style bodies must
    // not trip it; this fixture pins that down so pack tasks can never
    // introduce new AMT003 positives.
    const std::string src =
        "void pack_region(const domain& d, field f, index_t lo, index_t hi,\n"
        "                 char* out) {\n"
        "    hazard_touch(f, /*write=*/false, lo, hi);\n"
        "    const real_t* src = field_data(d, f);\n"
        "    std::memcpy(out, src + lo,\n"
        "                static_cast<std::size_t>(hi - lo) * sizeof(real_t));\n"
        "}\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

TEST(Amt003, ReadOnlyProbeCoversMatchingReads) {
    // The literal read-only declaration a non-overlapped pack would use:
    // reads of the declared field are covered, and nothing else fires.
    const std::string src =
        "void pack_e(const domain& d, index_t lo, index_t hi, real_t* out) {\n"
        "    hazard_touch(field::e, false, lo, hi);\n"
        "    for (index_t i = lo; i < hi; ++i) out[i - lo] = d.e[i];\n"
        "}\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

TEST(Amt003, GatedOffWithKernelRulesDisabled) {
    const std::string src =
        "void my_kernel(domain& d, index_t lo, index_t hi) {\n"
        "    hazard_touch(field::p, false, lo, hi);\n"
        "    d.q[lo] = 1.0;\n"
        "}\n";
    EXPECT_TRUE(lint(src, /*kernel_rules=*/false).empty());
}

// ===================== AMT004: mutable shared state =======================

TEST(Amt004, FlagsNamespaceScopeMutableAndFunctionStatic) {
    const std::string src =
        "namespace lulesh {\n"                                   // 1
        "int call_counter = 0;\n"                                // 2
        "void bump() {\n"                                        // 3
        "    static int calls = 0;\n"                            // 4
        "    ++calls;\n"                                         // 5
        "}\n"                                                    // 6
        "}\n";
    const auto ds = lint(src);
    ASSERT_EQ(ds.size(), 2u) << rules_of(ds);
    EXPECT_EQ(ds[0].rule, "AMT004");
    EXPECT_EQ(ds[0].line, 2);
    EXPECT_NE(ds[0].message.find("'call_counter'"), std::string::npos);
    EXPECT_EQ(ds[1].rule, "AMT004");
    EXPECT_EQ(ds[1].line, 4);
    EXPECT_NE(ds[1].message.find("'calls'"), std::string::npos);
}

TEST(Amt004, SilentOnConstAtomicAndThreadLocal) {
    const std::string src =
        "namespace lulesh {\n"
        "constexpr int chunk = 64;\n"
        "const char* const banner = \"lulesh\";\n"
        "amt::atomic<int> faults_seen = 0;\n"
        "thread_local int scratch_high_water = 0;\n"
        "void bump() {\n"
        "    static amt::atomic<long> hits = 0;\n"
        "    static const int limit = 8;\n"
        "    ++hits;\n"
        "}\n"
        "static void local_linkage_fn(int x) { (void)x; }\n"
        "}\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

TEST(Amt004, SilentOnStaticReferenceHandles) {
    // A static reference can never be reseated, so it is not mutable
    // static state — the referent's own declaration is where mutability
    // is policed.  This is the interned-metric caching idiom the
    // scheduler uses (amt/metrics.hpp "registration"); plain mutable
    // statics right next to it must keep firing.
    const std::string src =
        "namespace lulesh {\n"
        "metrics::counter& tree_counter = metrics::get_counter(\"t\");\n"
        "void bump() {\n"
        "    static auto& h = metrics::get_histogram(\n"
        "        \"lulesh_kernel_duration_ns\");\n"
        "    static metrics::counter& c = metrics::get_counter(\"runs\");\n"
        "    h.record(1);\n"
        "    c.add(1);\n"
        "}\n"
        "}\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
    const std::string still_mutable =
        "void bump() {\n"
        "    static long hits = 0;\n"
        "    ++hits;\n"
        "}\n";
    const auto ds = lint(still_mutable);
    ASSERT_EQ(ds.size(), 1u) << rules_of(ds);
    EXPECT_EQ(ds[0].rule, "AMT004");
}

TEST(Amt004, SilentOnStaticMemberFunctionWithNoexcept) {
    // `noexcept` after the parameter list is part of the declarator, not an
    // identifier — a static member function must not read as mutable static
    // state named "noexcept" (the failure_detector/retry_policy shape).
    const std::string src =
        "struct failure_detector {\n"
        "    [[nodiscard]] static std::int64_t now_ns() noexcept {\n"
        "        return 0;\n"
        "    }\n"
        "    static bool quiet() noexcept(true) { return true; }\n"
        "};\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

// ===================== AMT005: discarded futures ==========================

TEST(Amt005, FlagsDiscardedAsyncResult) {
    const std::string src =
        "void f(amt::runtime& rt) {\n"                // 1
        "    amt::async(rt, [] { work(); });\n"       // 2
        "}\n";
    const auto ds = lint(src);
    ASSERT_EQ(ds.size(), 1u) << rules_of(ds);
    EXPECT_EQ(ds[0].rule, "AMT005");
    EXPECT_EQ(ds[0].line, 2);
}

TEST(Amt005, FlagsDiscardedWhenAllResult) {
    const std::string src =
        "void f(std::vector<amt::future<void>> wave) {\n"  // 1
        "    amt::when_all_void(std::move(wave));\n"       // 2
        "}\n";
    const auto ds = lint(src);
    ASSERT_EQ(ds.size(), 1u) << rules_of(ds);
    EXPECT_EQ(ds[0].rule, "AMT005");
    EXPECT_EQ(ds[0].line, 2);
}

TEST(Amt005, SilentWhenChainedOrAwaited) {
    const std::string src =
        "void f(amt::runtime& rt) {\n"
        "    amt::async(rt, [] { work(); }).then([](amt::future<void>&& v) {\n"
        "        v.get();\n"
        "        more();\n"
        "    }).get();\n"
        "    amt::when_all_void(make_wave()).get();\n"
        "    auto kept = amt::async(rt, [] { work(); });\n"
        "    kept.get();\n"
        "}\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

TEST(Amt005, SilentOnPostFireAndForget) {
    // post() returns void by design; it is the explicit detach marker.
    const std::string src =
        "void f(amt::runtime& rt) {\n"
        "    amt::post(rt, [] { work(); });\n"
        "}\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

// ===================== suppressions and mechanics =========================

TEST(Suppression, SameLineAndLineAboveCommentsSilenceOneRule) {
    const std::string src =
        "void f(amt::runtime& rt) {\n"
        "    amt::async(rt, [] { a(); });  "
        "// amtlint: allow(AMT005) detached: toy example\n"
        "    // amtlint: allow(AMT005) detached: measured fire-and-forget\n"
        "    amt::async(rt, [] { b(); });\n"
        "}\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

TEST(Suppression, WrongRuleIdDoesNotSuppress) {
    const std::string src =
        "void f(amt::runtime& rt) {\n"
        "    // amtlint: allow(AMT001) wrong rule\n"
        "    amt::async(rt, [] { a(); });\n"
        "}\n";
    const auto ds = lint(src);
    ASSERT_EQ(ds.size(), 1u) << rules_of(ds);
    EXPECT_EQ(ds[0].rule, "AMT005");
}

TEST(Mechanics, DiagnosticsSortedByLineThenRule) {
    const std::string src =
        "void f(amt::runtime& rt) {\n"                      // 1
        "    amt::async(rt, [] { b(); });\n"                // 2: AMT005
        "    int x = 0;\n"                                  // 3
        "    amt::async(rt, [&x] { ++x; });\n"              // 4: AMT001+AMT005
        "}\n";
    const auto ds = lint(src);
    ASSERT_EQ(ds.size(), 3u) << rules_of(ds);
    EXPECT_EQ(ds[0].line, 2);
    EXPECT_EQ(ds[0].rule, "AMT005");
    EXPECT_EQ(ds[1].line, 4);
    EXPECT_EQ(ds[1].rule, "AMT001");
    EXPECT_EQ(ds[2].line, 4);
    EXPECT_EQ(ds[2].rule, "AMT005");
}

TEST(Mechanics, CommentsStringsAndPreprocessorAreNotCode) {
    const std::string src =
        "// amt::async(rt, [&x] { ++x; });\n"
        "/* amt::async(rt, [&x] { ++x; }); */\n"
        "#define SPAWN amt::async(rt, [&x] { ++x; })\n"
        "const char* doc = \"amt::async(rt, [&x] { ++x; });\";\n"
        "void f() { (void)doc; }\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

// ===================== tokenizer: raw strings, separators =================

TEST(Tokenizer, RawStringContentsAreNotCode) {
    // The raw string holds an embedded quote; a classic-escape lexer would
    // close the literal there and lex the trailing `std::atomic` as code,
    // firing AMT006.  Raw-string support must swallow it wholesale.
    const std::string src =
        "const char* kDoc = R\"(say \"no\" to std::atomic here)\";\n"
        "void f() { (void)kDoc; }\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

TEST(Tokenizer, RawStringWithDelimiterAndLineNumbersAfter) {
    // d-char delimiter, an inner `)"`, and newlines inside the literal —
    // the diagnostic after it must land on the right line.
    const std::string src =
        "const char* kJson = R\"x(line one \")\" quote\n"  // 1
        "line two std::atomic<int> not code\n"             // 2
        ")x\";\n"                                          // 3
        "std::atomic<int> counter{0};\n"                   // 4: AMT006
        "void f() { (void)kJson; }\n";
    const auto ds = lint(src);
    ASSERT_EQ(ds.size(), 1u) << rules_of(ds);
    EXPECT_EQ(ds[0].rule, "AMT006");
    EXPECT_EQ(ds[0].line, 4);
}

TEST(Tokenizer, DigitSeparatorsLexAsOneNumber) {
    // 1'000'000 must lex as a single number, not a char literal that eats
    // the rest of the line; the AMT005 on the next line proves the stream
    // stayed aligned.
    const std::string src =
        "void f(amt::runtime& rt) {\n"                    // 1
        "    constexpr std::size_t kN = 1'000'000;\n"     // 2
        "    (void)kN;\n"                                 // 3
        "    amt::async(rt, [] { work(); });\n"           // 4: AMT005
        "}\n";
    const auto ds = lint(src);
    ASSERT_EQ(ds.size(), 1u) << rules_of(ds);
    EXPECT_EQ(ds[0].rule, "AMT005");
    EXPECT_EQ(ds[0].line, 4);
}

// ===================== AMT006: raw atomics outside the shim ===============

TEST(Amt006, FlagsRawAtomicDeclaration) {
    const std::string src =
        "struct counters {\n"             // 1
        "    std::atomic<int> hits{0};\n"  // 2: AMT006
        "};\n";
    const auto ds = lint(src);
    ASSERT_EQ(ds.size(), 1u) << rules_of(ds);
    EXPECT_EQ(ds[0].rule, "AMT006");
    EXPECT_EQ(ds[0].line, 2);
    EXPECT_EQ(ds[0].format(),
              "fix.cpp:2: [AMT006] raw 'std::atomic' bypasses the "
              "model-check shim — use amt::atomic from amt/atomic.hpp so "
              "amtcheck (AMT_MODEL_CHECK builds) can schedule through the "
              "operation");
}

TEST(Amt006, FlagsMemoryOrderFenceAndFlag) {
    const std::string src =
        "void f(amt::atomic<int>& a) {\n"                           // 1
        "    a.store(1, std::memory_order_release);\n"              // 2
        "    std::atomic_thread_fence(std::memory_order_seq_cst);\n"  // 3 (x2)
        "    std::atomic_flag busy;\n"                              // 4
        "    (void)busy;\n"                                         // 5
        "}\n";
    const auto ds = lint(src);
    ASSERT_EQ(ds.size(), 4u) << rules_of(ds);
    EXPECT_EQ(ds[0].line, 2);
    EXPECT_EQ(ds[1].line, 3);
    EXPECT_EQ(ds[2].line, 3);
    EXPECT_EQ(ds[3].line, 4);
    for (const auto& d : ds) EXPECT_EQ(d.rule, "AMT006");
}

TEST(Amt006, SilentOnShimAliasesAndUnrelatedStd) {
    const std::string src =
        "void f() {\n"
        "    amt::atomic<int> a{0};\n"
        "    a.store(1, amt::memory_order_relaxed);\n"
        "    amt::atomic_thread_fence(amt::memory_order_seq_cst);\n"
        "    std::vector<int> v;\n"
        "    std::mutex mu;  // mutexes are legal: shim-free sections\n"
        "    (void)v; (void)mu;\n"
        "}\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

TEST(Amt006, SuppressibleWithAllowComment) {
    const std::string src =
        "// amtlint: allow(AMT006) interop: imported third-party header\n"
        "std::atomic<int> legacy{0};\n";
    EXPECT_TRUE(lint(src).empty()) << rules_of(lint(src));
}

TEST(Amt006, AtomicsOnlyModeRunsJustAmt006) {
    // The src/amt pass: task-usage rules off, raw-atomic detection on.
    const std::string src =
        "void f(amt::runtime& rt) {\n"         // 1
        "    int x = 0;\n"                     // 2
        "    amt::async(rt, [&x] { ++x; });\n"  // 3: AMT001+AMT005 (gated off)
        "    std::atomic<int> a{0};\n"         // 4: AMT006
        "    (void)a;\n"                       // 5
        "}\n";
    amtlint::config cfg;
    cfg.atomics_only = true;
    const auto ds = lint_source("fix.cpp", src, cfg);
    ASSERT_EQ(ds.size(), 1u) << rules_of(ds);
    EXPECT_EQ(ds[0].rule, "AMT006");
    EXPECT_EQ(ds[0].line, 4);
}

}  // namespace
