// lulesh/crc32c.hpp
//
// CRC-32C (Castagnoli polynomial 0x1EDC6F41, the iSCSI/ext4 variant), the
// one checksum of the repository: it guards every checkpoint record and
// every dist halo message.  Both checksum data on the critical path: the
// checkpoint chain every payload byte of every capture (at
// checkpoint-every-1 the whole simulation state per cycle), the halo layer
// every boundary message at pack and again at unpack (2.1 MB per cycle for
// s=30 over four slabs).
// The polynomial was chosen precisely because commodity CPUs checksum it
// in hardware: SSE4.2 on x86-64 and the ARMv8 CRC extension both implement
// CRC-32C (and only CRC-32C), at tens of GB/s.  A slicing-by-8 software
// implementation (~8x the byte-at-a-time table walk) is the fallback, and
// the two agree bit-for-bit, so a chain written on one machine loads on
// any other.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LULESH_CRC32C_X86 1
#include <nmmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#define LULESH_CRC32C_ARM 1
#include <arm_acle.h>
#endif

namespace lulesh {

namespace detail {

/// Slicing-by-8 tables: table[0] is the classic byte table; table[k][b]
/// is the CRC of byte b followed by k zero bytes, letting the hot loop
/// fold 8 input bytes per iteration with no loop-carried byte chain.
inline const std::array<std::array<std::uint32_t, 256>, 8>& crc32c_tables() {
    static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
        std::array<std::array<std::uint32_t, 256>, 8> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k) {
                c = (c & 1u) != 0 ? 0x82F63B78u ^ (c >> 1) : c >> 1;
            }
            t[0][i] = c;
        }
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = t[0][i];
            for (std::size_t k = 1; k < 8; ++k) {
                c = t[0][c & 0xFFu] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        return t;
    }();
    return tables;
}

inline std::uint32_t crc32c_sw(std::uint32_t state, const void* data,
                               std::size_t n) {
    const auto& t = crc32c_tables();
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t c = state;
    while (n >= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, 8);  // little-endian layout assumed below
        word ^= c;
        c = t[7][word & 0xFFu] ^ t[6][(word >> 8) & 0xFFu] ^
            t[5][(word >> 16) & 0xFFu] ^ t[4][(word >> 24) & 0xFFu] ^
            t[3][(word >> 32) & 0xFFu] ^ t[2][(word >> 40) & 0xFFu] ^
            t[1][(word >> 48) & 0xFFu] ^ t[0][(word >> 56) & 0xFFu];
        p += 8;
        n -= 8;
    }
    while (n-- > 0) {
        c = t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
    }
    return c;
}

#if defined(LULESH_CRC32C_X86)
/// Fused copy+checksum: reads each 8-byte word once, CRCs it in hardware,
/// and stores it with a non-temporal (cache-bypassing) store.  Checkpoint
/// packing copies the live simulation state into record buffers that are
/// only ever read back on restore — pulling them through the cache would
/// evict the working set the overlapped compute is using.  Requires both
/// pointers 8-byte aligned.
__attribute__((target("sse4.2"))) inline std::uint32_t crc32c_copy_hw(
    void* dst, const void* src, std::size_t n) {
    auto* d = static_cast<char*>(dst);
    const auto* s = static_cast<const char*>(src);
    std::uint64_t c = 0xFFFFFFFFu;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t word;
        std::memcpy(&word, s + i, 8);
        c = _mm_crc32_u64(c, word);
        _mm_stream_si64(reinterpret_cast<long long*>(d + i),
                        static_cast<long long>(word));
    }
    auto c32 = static_cast<std::uint32_t>(c);
    for (; i < n; ++i) {
        c32 = _mm_crc32_u8(c32, static_cast<unsigned char>(s[i]));
        d[i] = s[i];
    }
    _mm_sfence();  // order the streaming stores before the claim release
    return ~c32;
}

__attribute__((target("sse4.2"))) inline std::uint32_t crc32c_hw(
    std::uint32_t state, const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t c = state;
    while (n >= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, 8);
        c = _mm_crc32_u64(c, word);
        p += 8;
        n -= 8;
    }
    auto c32 = static_cast<std::uint32_t>(c);
    while (n-- > 0) {
        c32 = _mm_crc32_u8(c32, *p++);
    }
    return c32;
}

inline bool crc32c_hw_available() {
    static const bool ok = __builtin_cpu_supports("sse4.2") != 0;
    return ok;
}
#elif defined(LULESH_CRC32C_ARM)
inline std::uint32_t crc32c_hw(std::uint32_t state, const void* data,
                               std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t c = state;
    while (n >= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, 8);
        c = __crc32cd(c, word);
        p += 8;
        n -= 8;
    }
    while (n-- > 0) {
        c = __crc32cb(c, *p++);
    }
    return c;
}

inline bool crc32c_hw_available() { return true; }
#else
inline std::uint32_t crc32c_hw(std::uint32_t, const void*, std::size_t) {
    return 0;  // never called: crc32c_hw_available() is false
}

inline bool crc32c_hw_available() { return false; }
#endif

}  // namespace detail

/// Incremental CRC-32C accumulator: feed byte ranges, read `value()` at any
/// point without consuming the state.
class crc32c {
public:
    void update(const void* data, std::size_t n) {
        state_ = detail::crc32c_hw_available()
                     ? detail::crc32c_hw(state_, data, n)
                     : detail::crc32c_sw(state_, data, n);
    }

    [[nodiscard]] std::uint32_t value() const noexcept { return ~state_; }

private:
    std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot CRC-32C of a byte range.
inline std::uint32_t crc32c_of(const void* data, std::size_t n) {
    crc32c c;
    c.update(data, n);
    return c.value();
}

/// Copies `n` bytes from `src` to `dst` and returns their CRC-32C, in one
/// pass over the source.  On x86-64 with SSE4.2 the copy uses streaming
/// stores (see crc32c_copy_hw); elsewhere it is memcpy + software CRC.
inline std::uint32_t crc32c_copy(void* dst, const void* src, std::size_t n) {
#if defined(LULESH_CRC32C_X86)
    if (detail::crc32c_hw_available() && n >= 64 &&
        (reinterpret_cast<std::uintptr_t>(dst) & 7u) == 0 &&
        (reinterpret_cast<std::uintptr_t>(src) & 7u) == 0) {
        return detail::crc32c_copy_hw(dst, src, n);
    }
#endif
    std::memcpy(dst, src, n);
    return crc32c_of(dst, n);
}

}  // namespace lulesh
