// lulesh/crc32.hpp
//
// Software CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) used to
// checksum v2 monolithic checkpoint payloads.  Table-driven,
// byte-at-a-time, about 330 MB/s — integrity checking here guards against
// corruption in storage, not adversaries, and a v2 checkpoint is written or
// read once per --checkpoint-save/--checkpoint-load, outside the iteration
// loop.  Anything checksummed every cycle (v3 chain records, dist halo
// messages) uses the hardware CRC-32C of crc32c.hpp instead.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace lulesh {

namespace detail {

inline const std::array<std::uint32_t, 256>& crc32_table() {
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k) {
                c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            }
            t[i] = c;
        }
        return t;
    }();
    return table;
}

}  // namespace detail

/// Incremental CRC-32 accumulator: feed byte ranges, read `value()` at any
/// point (does not consume the state).
class crc32 {
public:
    void update(const void* data, std::size_t n) {
        const auto& table = detail::crc32_table();
        const auto* p = static_cast<const unsigned char*>(data);
        std::uint32_t c = state_;
        for (std::size_t i = 0; i < n; ++i) {
            c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
        }
        state_ = c;
    }

    [[nodiscard]] std::uint32_t value() const noexcept { return ~state_; }

private:
    std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot CRC-32 of a byte range.
inline std::uint32_t crc32_of(const void* data, std::size_t n) {
    crc32 c;
    c.update(data, n);
    return c.value();
}

}  // namespace lulesh
