// Tests for CRC-32C (Castagnoli), the checksum of every checkpoint record
// and dist halo message.  Pinned to its published check values, and the
// hardware and software paths are held to bit-for-bit agreement so a chain
// written with SSE4.2/ARM CRC loads on a machine using the slicing-by-8
// fallback (and vice versa).

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "lulesh/crc32c.hpp"

namespace {

std::uint32_t crc32c_of(const std::string& s) {
    return lulesh::crc32c_of(s.data(), s.size());
}

TEST(Crc32c, KnownVectors) {
    // The iSCSI/RFC 3720 check value, and the all-zeros classic.
    EXPECT_EQ(crc32c_of("123456789"), 0xE3069283u);
    const unsigned char zeros[32] = {};
    EXPECT_EQ(lulesh::crc32c_of(zeros, 32), 0x8A9136AAu);
    EXPECT_EQ(crc32c_of(""), 0x00000000u);
    EXPECT_EQ(lulesh::crc32c_of(nullptr, 0), 0x00000000u);
}

TEST(Crc32c, IncrementalUpdatesMatchOneShot) {
    lulesh::crc32c acc;
    acc.update("1234", 4);
    acc.update("", 0);
    acc.update("56789", 5);
    EXPECT_EQ(acc.value(), 0xE3069283u);
}

TEST(Crc32c, HardwareAndSoftwarePathsAgree) {
    // Odd lengths and odd offsets exercise the head/tail byte loops around
    // the 8-byte-word hot path in both implementations.
    std::string buf(4096 + 7, '\0');
    std::uint32_t x = 0x1234567u;
    for (auto& ch : buf) {  // xorshift: deterministic, incompressible-ish
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        ch = static_cast<char>(x);
    }
    for (const std::size_t len :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
          std::size_t{9}, std::size_t{63}, std::size_t{64}, std::size_t{65},
          std::size_t{4096}, buf.size()}) {
        for (const std::size_t off : {std::size_t{0}, std::size_t{3}}) {
            if (off + len > buf.size()) continue;
            const std::uint32_t sw =
                ~lulesh::detail::crc32c_sw(0xFFFFFFFFu, buf.data() + off, len);
            EXPECT_EQ(lulesh::crc32c_of(buf.data() + off, len), sw)
                << "len " << len << " off " << off;
        }
    }
}

TEST(Crc32c, FusedCopyMatchesMemcpyPlusChecksum) {
    std::string src(8192, '\0');
    for (std::size_t i = 0; i < src.size(); ++i) {
        src[i] = static_cast<char>(i * 131 + 17);
    }
    // Aligned + large (streaming-store path where available), small
    // (memcpy fallback), and misaligned (memcpy fallback).
    for (const std::size_t off : {std::size_t{0}, std::size_t{1}}) {
        for (const std::size_t len :
             {std::size_t{16}, std::size_t{63}, std::size_t{64},
              std::size_t{8191 - off}}) {
            std::string dst(len, '\x55');
            const std::uint32_t crc =
                lulesh::crc32c_copy(dst.data(), src.data() + off, len);
            EXPECT_EQ(std::memcmp(dst.data(), src.data() + off, len), 0)
                << "len " << len << " off " << off;
            EXPECT_EQ(crc, lulesh::crc32c_of(src.data() + off, len))
                << "len " << len << " off " << off;
        }
    }
}

TEST(Crc32, SingleBitFlipChangesTheChecksum) {
    // The property the halo-message and checkpoint guards rely on.
    std::string payload(64, '\0');
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<char>(i * 7 + 1);
    }
    const std::uint32_t clean = crc32c_of(payload);
    for (const std::size_t byte : {std::size_t{0}, payload.size() / 2,
                                   payload.size() - 1}) {
        std::string damaged = payload;
        damaged[byte] = static_cast<char>(damaged[byte] ^ 0x10);
        EXPECT_NE(crc32c_of(damaged), clean) << "flip at byte " << byte;
    }
}

}  // namespace
