#include "workload/md5.hpp"

#include <gtest/gtest.h>

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
