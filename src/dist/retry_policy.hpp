// dist/retry_policy.hpp
//
// Bounded exponential backoff with deterministic jitter for transient halo
// faults.  A dropped or CRC-corrupt boundary message is re-delivered from
// the sender's retransmit cache up to max_attempts times, waiting
// backoff_for(attempt) between deliveries, before the failure escalates to
// the detector/rollback path.  The jitter draw is a pure function of
// (seed, attempt, salt) — no wall clock, no global RNG — so a failing run
// replays exactly, matching the fault-injection determinism contract.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace lulesh::dist {

struct retry_policy {
    /// Delivery attempts beyond the original send; 0 disables the retry
    /// layer entirely (fail-stop, the pre-recovery behavior).
    int max_attempts = 3;

    /// The backoff schedule: initial_backoff, times `multiplier` per
    /// attempt, capped at max_backoff, then scaled by a deterministic
    /// factor in [1 - jitter, 1 + jitter] drawn from `seed`.
    static constexpr std::chrono::milliseconds initial_backoff{1};
    static constexpr double multiplier = 2.0;
    static constexpr std::chrono::milliseconds max_backoff{20};
    static constexpr double jitter = 0.5;
    static constexpr std::uint64_t seed = 0;

    [[nodiscard]] static retry_policy none() {
        retry_policy p;
        p.max_attempts = 0;
        return p;
    }

    [[nodiscard]] bool enabled() const noexcept { return max_attempts > 0; }

    /// Backoff before delivery attempt `attempt` (0-based).  `salt`
    /// decorrelates channels retrying concurrently so their resends don't
    /// thundering-herd on the same instant.
    [[nodiscard]] static std::chrono::milliseconds backoff_for(
        int attempt, std::uint64_t salt = 0) {
        double ms = static_cast<double>(initial_backoff.count());
        for (int i = 0; i < attempt; ++i) ms *= multiplier;
        ms = std::min(ms, static_cast<double>(max_backoff.count()));
        ms *= 1.0 + jitter * (2.0 * uniform01(attempt, salt) - 1.0);
        return std::chrono::milliseconds(
            std::max<std::int64_t>(0, static_cast<std::int64_t>(ms)));
    }

private:
    /// splitmix64-style mix — the same construction amt::fault uses for its
    /// probability draws, duplicated here to keep the policy header-only.
    [[nodiscard]] static std::uint64_t mix64(std::uint64_t x) noexcept {
        x += 0x9E3779B97F4A7C15ULL;
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
        return x ^ (x >> 31);
    }

    [[nodiscard]] static double uniform01(int attempt,
                                          std::uint64_t salt) noexcept {
        const std::uint64_t x =
            mix64(seed ^ mix64(static_cast<std::uint64_t>(attempt) ^
                               mix64(salt)));
        return static_cast<double>(x >> 11) * 0x1.0p-53;
    }
};

}  // namespace lulesh::dist
