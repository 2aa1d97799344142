// dist/driver_dist.hpp
//
// The name the dist layer gives the one graph driver: a cluster is the
// slab set of its z-slabs and the channel boundaries between them, and
// taskgraph_driver::advance(cluster&) runs it through the same advance as
// a lone domain (core/driver_taskgraph.hpp), halo exchange included.

#pragma once

#include <limits>

#include "core/driver_taskgraph.hpp"
#include "dist/cluster.hpp"

namespace lulesh::dist {

using dist_driver = taskgraph_driver;

/// The plain loop (lulesh::run_simulation over the cluster's
/// resilient_system, dist/resilient_dist.cpp): TimeIncrement on every slab
/// (identical inputs, so dt and time stay in lockstep), then
/// taskgraph_driver::advance, until stoptime or the cycle cap.  A
/// channel_closed cascade ends the run as stalled.  The reported final
/// origin energy comes from the slab owning the global origin element
/// (slab 0).
run_result run_simulation(cluster& c, dist_driver& drv,
                          int max_cycles = std::numeric_limits<int>::max());

}  // namespace lulesh::dist
