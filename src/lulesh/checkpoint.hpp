// lulesh/checkpoint.hpp
//
// Binary checkpoint/restart of the simulation state.  A checkpoint captures
// exactly the fields that carry state across leapfrog iterations
// (coordinates, velocities, EOS state, relative volumes, sound speed, and
// the time/cycle controls); everything else is per-iteration scratch that
// the next advance() recomputes.  Restarting from a checkpoint therefore
// continues **bitwise identically** to the uninterrupted run (covered by
// tests), for any driver.
//
// Format: a standalone checkpoint is a one-record chain — a single
// committed v3 base record (lulesh/checkpoint_chain.hpp), the format the
// resilient loops' checkpoint files use too, so every checkpoint file has
// one format and one loader.  Checkpoints are only loadable into a domain
// built with the same problem shape (size and slab extent); mismatches
// throw, and so does a payload whose bytes no longer match their stored
// CRC-32C — a bit flipped on disk is reported as checkpoint_error instead
// of silently corrupting the restarted run.

#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "lulesh/domain.hpp"

namespace lulesh {

/// Thrown on malformed checkpoints or shape mismatches.
class checkpoint_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Writes the domain's simulation state to `out` as one committed base
/// record.
void save_checkpoint(const domain& d, std::ostream& out);

/// Restores state saved by save_checkpoint — or any chain, replayed
/// base-plus-committed-deltas — into `d`, which must have been constructed
/// with the same problem shape.
void load_checkpoint(domain& d, std::istream& in);

/// File convenience wrappers; throw checkpoint_error on I/O failure.
/// save_checkpoint_file writes atomically (temp file, fsync, rename):
/// a crash leaves either the previous checkpoint or the new one intact.
/// load_checkpoint_file reads the same chain format, so it also restores
/// the resilient loop's checkpoint file mid-run.
void save_checkpoint_file(const domain& d, const std::string& path);
void load_checkpoint_file(domain& d, const std::string& path);

}  // namespace lulesh
