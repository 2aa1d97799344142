// amt/amt.hpp — umbrella header for the amt runtime.
//
// amt is a from-scratch asynchronous many-task (AMT) runtime: a single-
// process analogue of the HPX programming framework covering the feature
// subset used by "Speeding-Up LULESH on HPX" (SC 2024):
//
//   runtime     — work-stealing scheduler over N OS worker threads
//   future<T>   — async result handle with .then() continuations
//   promise<T>  — producer side
//   async       — spawn a task, get a future (hpx::async)
//   when_all    — non-blocking barrier combinator (hpx::when_all)
//   wait_all    — blocking barrier (hpx::wait_all)
//   bulk_async  — one task per index chunk (the paper's Figure 5)
//   counters    — per-worker productive-time instrumentation (idle-rate)
//   fault       — deterministic fault injection for resilience testing
//   trace       — task-level tracing (Chrome trace export, utilization)
//   static_graph — compile-once, replay-N task graph (zero steady-state
//                  allocation; the T6 trick without per-iteration rebuild)

#pragma once

#include "amt/algorithms.hpp"
#include "amt/async.hpp"
#include "amt/channel.hpp"
#include "amt/config.hpp"
#include "amt/counters.hpp"
#include "amt/deque.hpp"
#include "amt/fault.hpp"
#include "amt/future.hpp"
#include "amt/metrics.hpp"
#include "amt/scheduler.hpp"
#include "amt/static_graph.hpp"
#include "amt/task.hpp"
#include "amt/trace.hpp"
#include "amt/unique_function.hpp"
#include "amt/when_all.hpp"
