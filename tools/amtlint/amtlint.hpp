// tools/amtlint/amtlint.hpp
//
// amtlint — a dependency-free source-level lint for task/future misuse in
// the AMT layers, closing the gap *below* the graph auditor: the auditor
// (core/graph_audit) proves the declared task graph race-free, but nothing
// checked the source that feeds it.  amtlint scans src/ and examples/ with
// its own tokenizer and a lightweight scope/capture analysis (no clang, no
// external dependencies) and emits deterministic
//
//     file:line: [AMTnnn] message
//
// diagnostics.  The rules target exactly the hand-translation mistakes the
// OP2/HPX compiler work and the fork-join→task porting studies report as
// dominating AMT porting bugs:
//
//   AMT001  by-reference lambda capture (default `&` or `&x`) handed to a
//           task entry point (amt::async/when_all/.then/...) — the
//           task outlives the enclosing scope, so the capture dangles.
//   AMT002  blocking future::get()/wait() inside a task body — a worker
//           parked on a future it may itself be scheduled to fulfil is the
//           classic many-task starvation deadlock.  get() on the task's own
//           continuation parameter is allowed (the antecedent is ready by
//           construction).
//   AMT003  kernel code touching a domain field it never declared: every
//           probe-bearing kernel function (one that calls hazard_touch or
//           hazard_covers from lulesh/fields.hpp) must declare *all* domain
//           fields its body — including probe-less same-file helpers —
//           reads or writes.  This cross-checks the access declarations the
//           graph audit trusts against the actual source.
//   AMT004  mutable namespace-scope or function-static state in task/kernel
//           code without atomics — breaks the task-local-scratch discipline
//           (paper trick T5); tasks of one wave run concurrently.
//   AMT005  a future-producing call discarded as a full statement without
//           .then/when_all consumption — a lost continuation breaks the
//           pre-built dependency graph (paper trick T6).
//   AMT006  raw std::atomic / std::atomic_flag / std::atomic_ref /
//           std::atomic_*_fence / std::memory_order* outside the shim —
//           every atomic in the tree must go through the amt:: aliases in
//           amt/atomic.hpp so the deterministic model checker
//           (AMT_MODEL_CHECK) can interpose a schedule point on each
//           operation.  The shim itself (src/amt/atomic.hpp) and the model
//           implementation (src/amt/model.*) are exempted by the driver's
//           --exclude list, not by the rule.
//
// Suppression: a comment `// amtlint: allow(AMTnnn) <reason>` on the same
// line or the line above suppresses that rule there; the reason is
// mandatory by convention (reviewed like any other code).  A checked-in
// baseline file (tools/amtlint/baseline.txt) additionally filters known
// legacy diagnostics so new violations fail CI while old ones stay
// visible; the tree is kept lint-clean, so the committed baseline is
// empty.

#pragma once

#include <string>
#include <vector>

namespace amtlint {

struct diagnostic {
    std::string file;  ///< path as reported (relative to --root when given)
    int line = 0;      ///< 1-based
    std::string rule;  ///< "AMT001".."AMT006"
    std::string message;

    /// The canonical "file:line: [RULE] message" form (also the baseline
    /// entry format).
    [[nodiscard]] std::string format() const;

    friend bool operator==(const diagnostic&, const diagnostic&) = default;
};

struct config {
    /// Apply AMT003/AMT004 (kernel-discipline rules) to this file.  The
    /// driver enables them for application/task code and leaves the runtime
    /// implementation layer (src/amt) out of the default scan set entirely:
    /// the runtime *implements* the future/task primitives and legitimately
    /// manipulates them below the abstraction line the rules police.
    bool kernel_rules = true;

    /// Run ONLY AMT006 (raw-atomic detection).  Used for the second scan
    /// pass over src/amt: the runtime layer is exempt from the task-usage
    /// rules (it implements the primitives) but must still route every
    /// atomic through the shim — except the shim and model themselves,
    /// which the driver excludes by path.
    bool atomics_only = false;
};

/// Lints one translation unit given its display path and full contents.
/// Pure function of its inputs; diagnostics come back sorted by
/// (line, rule).  All five rules are per-file by design — AMT003's
/// helper-footprint propagation follows calls within the same file, which
/// is where the kernels keep their helpers.
std::vector<diagnostic> lint_source(const std::string& file,
                                    const std::string& contents,
                                    const config& cfg = {});

}  // namespace amtlint
