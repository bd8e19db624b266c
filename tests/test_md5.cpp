#include "workload/md5.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/error.hpp"

namespace zerodeg::workload {
namespace {

std::string hex_of(const std::string& s) {
    Md5 h;
    h.update(s);
    return to_hex(h.finalize());
}

// The RFC 1321 appendix test suite, verbatim.
struct Rfc1321Case {
    const char* input;
    const char* digest;
};

// Printed as its digest, so the discovered CTest names (which embed the
// printed parameter) are stable instead of the run-dependent pointer bytes.
void PrintTo(const Rfc1321Case& c, std::ostream* os) { *os << c.digest; }

class Rfc1321 : public ::testing::TestWithParam<Rfc1321Case> {};

TEST_P(Rfc1321, Matches) {
    const auto& [input, digest] = GetParam();
    EXPECT_EQ(hex_of(input), digest);
}

INSTANTIATE_TEST_SUITE_P(
    Vectors, Rfc1321,
    ::testing::Values(
        Rfc1321Case{"", "d41d8cd98f00b204e9800998ecf8427e"},
        Rfc1321Case{"a", "0cc175b9c0f1b6a831c399e269772661"},
        Rfc1321Case{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        Rfc1321Case{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        Rfc1321Case{"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"},
        Rfc1321Case{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                    "d174ab98d277d9f5a5611c2c9f419d9f"},
        Rfc1321Case{"1234567890123456789012345678901234567890123456789012345678901234567890123456"
                    "7890",
                    "57edf4a22be3c955ac49da2e2107b67a"}));

TEST(Md5Test, IncrementalEqualsOneShot) {
    const std::string text(10000, 'x');
    Md5 whole;
    whole.update(text);
    Md5 pieces;
    // Deliberately awkward chunk sizes around the 64-byte block boundary.
    std::size_t off = 0;
    for (const std::size_t chunk : {1u, 63u, 64u, 65u, 127u, 128u, 1000u}) {
        pieces.update(text.substr(off, chunk));
        off += chunk;
    }
    pieces.update(text.substr(off));
    EXPECT_EQ(to_hex(whole.finalize()), to_hex(pieces.finalize()));
}

TEST(Md5Test, BlockBoundaryLengths) {
    // Padding edge cases: lengths around 55/56/64 take different paths.
    for (const std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
        const std::string a(len, 'q');
        Md5 h1, h2;
        h1.update(a);
        h2.update(a.substr(0, len / 2));
        h2.update(a.substr(len / 2));
        EXPECT_EQ(to_hex(h1.finalize()), to_hex(h2.finalize())) << len;
    }
}

TEST(Md5Test, ResumeFromCopiedState) {
    // A copy of the hash state after k bytes, fed the rest, is the one-shot
    // digest: the checkpoint resume LoadJob relies on.
    std::vector<std::uint8_t> data(200'000);
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
    }
    const std::span<const std::uint8_t> all(data);
    const Md5Digest expected = md5(all);
    const std::size_t len = data.size();
    for (const std::size_t k :
         {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65},
          std::size_t{65535}, std::size_t{65536}, std::size_t{65537}, len - 1, len}) {
        Md5 prefix;
        prefix.update(all.first(k));
        Md5 resumed = prefix;
        resumed.update(all.subspan(k));
        EXPECT_EQ(to_hex(resumed.finalize()), to_hex(expected)) << k;
    }
}

TEST(Md5Test, OneShotHelper) {
    const std::string s = "abc";
    const auto d = md5(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
    EXPECT_EQ(to_hex(d), "900150983cd24fb0d6963f7d28e17f72");
}

TEST(Md5Test, SingleBitChangesDigest) {
    std::vector<std::uint8_t> data(4096, 0xab);
    const Md5Digest before = md5(data);
    data[2048] ^= 0x01;
    const Md5Digest after = md5(data);
    EXPECT_NE(to_hex(before), to_hex(after));
}

TEST(Md5Test, ReuseAfterFinalizeThrows) {
    Md5 h;
    h.update(std::string("x"));
    (void)h.finalize();
    EXPECT_THROW(h.update(std::string("y")), core::InvalidArgument);
    EXPECT_THROW((void)h.finalize(), core::InvalidArgument);
}

TEST(Md5Test, ResetAllowsReuse) {
    Md5 h;
    h.update(std::string("abc"));
    (void)h.finalize();
    h.reset();
    h.update(std::string("abc"));
    EXPECT_EQ(to_hex(h.finalize()), "900150983cd24fb0d6963f7d28e17f72");
}

// --- the unrolled block function against the rolled reference --------------

/// MD5 as first written: one rolled 64-step loop that picks the round
/// function and message index per step, over an explicitly padded copy of
/// the input.  The oracle for Md5's unrolled process_block.
Md5Digest reference_md5(std::span<const std::uint8_t> data) {
    static constexpr int kShift[64] = {
        7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
        5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
        4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
        6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};
    static constexpr std::uint32_t kSine[64] = {
        0xd76aa478u, 0xe8c7b756u, 0x242070dbu, 0xc1bdceeeu, 0xf57c0fafu, 0x4787c62au,
        0xa8304613u, 0xfd469501u, 0x698098d8u, 0x8b44f7afu, 0xffff5bb1u, 0x895cd7beu,
        0x6b901122u, 0xfd987193u, 0xa679438eu, 0x49b40821u, 0xf61e2562u, 0xc040b340u,
        0x265e5a51u, 0xe9b6c7aau, 0xd62f105du, 0x02441453u, 0xd8a1e681u, 0xe7d3fbc8u,
        0x21e1cde6u, 0xc33707d6u, 0xf4d50d87u, 0x455a14edu, 0xa9e3e905u, 0xfcefa3f8u,
        0x676f02d9u, 0x8d2a4c8au, 0xfffa3942u, 0x8771f681u, 0x6d9d6122u, 0xfde5380cu,
        0xa4beea44u, 0x4bdecfa9u, 0xf6bb4b60u, 0xbebfbc70u, 0x289b7ec6u, 0xeaa127fau,
        0xd4ef3085u, 0x04881d05u, 0xd9d4d039u, 0xe6db99e5u, 0x1fa27cf8u, 0xc4ac5665u,
        0xf4292244u, 0x432aff97u, 0xab9423a7u, 0xfc93a039u, 0x655b59c3u, 0x8f0ccc92u,
        0xffeff47du, 0x85845dd1u, 0x6fa87e4fu, 0xfe2ce6e0u, 0xa3014314u, 0x4e0811a1u,
        0xf7537e82u, 0xbd3af235u, 0x2ad7d2bbu, 0xeb86d391u};
    const auto rotl = [](std::uint32_t x, int c) { return (x << c) | (x >> (32 - c)); };

    std::vector<std::uint8_t> padded(data.begin(), data.end());
    padded.push_back(0x80);
    while (padded.size() % 64 != 56) padded.push_back(0);
    const std::uint64_t bit_len = std::uint64_t{data.size()} * 8;
    for (int i = 0; i < 8; ++i) padded.push_back(static_cast<std::uint8_t>(bit_len >> (8 * i)));

    std::uint32_t state[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};
    for (std::size_t off = 0; off < padded.size(); off += 64) {
        std::uint32_t m[16];
        for (int i = 0; i < 16; ++i) {
            const std::uint8_t* w = padded.data() + off + 4 * static_cast<std::size_t>(i);
            m[i] = std::uint32_t{w[0]} | std::uint32_t{w[1]} << 8 | std::uint32_t{w[2]} << 16 |
                   std::uint32_t{w[3]} << 24;
        }
        std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        for (int i = 0; i < 64; ++i) {
            std::uint32_t f;
            int g;
            if (i < 16) {
                f = (b & c) | (~b & d);
                g = i;
            } else if (i < 32) {
                f = (d & b) | (~d & c);
                g = (5 * i + 1) % 16;
            } else if (i < 48) {
                f = b ^ c ^ d;
                g = (3 * i + 5) % 16;
            } else {
                f = c ^ (b | ~d);
                g = (7 * i) % 16;
            }
            const std::uint32_t temp = d;
            d = c;
            c = b;
            b = b + rotl(a + f + kSine[i] + m[g], kShift[i]);
            a = temp;
        }
        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
    }
    Md5Digest digest;
    for (std::size_t i = 0; i < 16; ++i) {
        digest[i] = static_cast<std::uint8_t>(state[i / 4] >> (8 * (i % 4)));
    }
    return digest;
}

std::vector<std::uint8_t> pattern_bytes(std::size_t n) {
    std::vector<std::uint8_t> data(n);
    for (std::size_t i = 0; i < n; ++i) {
        data[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 11);
    }
    return data;
}

TEST(Md5Oracle, EveryLengthUpTo4KiBMatchesTheRolledLoop) {
    const std::vector<std::uint8_t> data = pattern_bytes(4096);
    const std::span<const std::uint8_t> all(data);
    for (std::size_t n = 0; n <= all.size(); ++n) {
        ASSERT_EQ(md5(all.first(n)), reference_md5(all.first(n))) << n;
    }
}

TEST(Md5Oracle, EverySplitOfShortInputsMatchesTheRolledLoop) {
    const std::vector<std::uint8_t> data = pattern_bytes(300);
    const std::span<const std::uint8_t> all(data);
    for (std::size_t n = 0; n <= all.size(); ++n) {
        const Md5Digest want = reference_md5(all.first(n));
        for (std::size_t k = 0; k <= n; ++k) {
            Md5 h;
            h.update(all.first(k));
            h.update(all.subspan(k, n - k));
            ASSERT_EQ(h.finalize(), want) << n << " split at " << k;
        }
    }
}

TEST(Md5Oracle, OneMiBInEveryChunkSizeMatchesTheRolledLoop) {
    const std::vector<std::uint8_t> data = pattern_bytes(1 << 20);
    const std::span<const std::uint8_t> all(data);
    const Md5Digest want = reference_md5(all);
    EXPECT_EQ(md5(all), want);
    // Chunk sizes 1..129 put every chunk boundary at every offset within a
    // 64-byte block; the larger ones cross many blocks per update.
    std::vector<std::size_t> chunks;
    for (std::size_t c = 1; c <= 129; ++c) chunks.push_back(c);
    for (const std::size_t c : {1000u, 4096u, 65535u, 65536u, 65537u}) chunks.push_back(c);
    for (const std::size_t chunk : chunks) {
        Md5 h;
        for (std::size_t off = 0; off < all.size(); off += chunk) {
            h.update(all.subspan(off, std::min(chunk, all.size() - off)));
        }
        ASSERT_EQ(h.finalize(), want) << chunk;
    }
}

TEST(Md5Test, HexFormat) {
    Md5Digest d{};
    d[0] = 0x0f;
    d[15] = 0xf0;
    const std::string hex = to_hex(d);
    EXPECT_EQ(hex.size(), 32u);
    EXPECT_EQ(hex.substr(0, 2), "0f");
    EXPECT_EQ(hex.substr(30, 2), "f0");
}

}  // namespace
}  // namespace zerodeg::workload
