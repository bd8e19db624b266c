#include "workload/compressor.hpp"

#include <gtest/gtest.h>
#include <cmath>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "workload/archive.hpp"
#include "workload/corpus.hpp"

namespace zerodeg::workload {
namespace {

using frost_detail::BitReader;
using frost_detail::BitWriter;
using frost_detail::canonical_codes;
using frost_detail::huffman_code_lengths;
using frost_detail::rle_decode;
using frost_detail::rle_encode;

// --- RLE ---------------------------------------------------------------

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> xs) {
    std::vector<std::uint8_t> out;
    for (const int x : xs) out.push_back(static_cast<std::uint8_t>(x));
    return out;
}

TEST(Rle, CompressesRuns) {
    const std::vector<std::uint8_t> data(1000, 0x00);
    const auto enc = rle_encode(data);
    EXPECT_LT(enc.size(), 20u);
    EXPECT_EQ(rle_decode(enc), data);
}

TEST(Rle, ShortRunsStayLiteral) {
    const auto data = bytes_of({1, 1, 1, 2, 3});  // run of 3 < minimum 4
    const auto enc = rle_encode(data);
    EXPECT_EQ(enc, data);
    EXPECT_EQ(rle_decode(enc), data);
}

TEST(Rle, EscapeByteHandled) {
    const auto data = bytes_of({0xf7, 1, 0xf7, 0xf7, 2});
    EXPECT_EQ(rle_decode(rle_encode(data)), data);
}

TEST(Rle, RunOfEscapeBytes) {
    const std::vector<std::uint8_t> data(300, 0xf7);
    EXPECT_EQ(rle_decode(rle_encode(data)), data);
}

TEST(Rle, TruncatedEscapeThrows) {
    EXPECT_THROW((void)rle_decode(bytes_of({0xf7, 1})), core::CorruptData);
    EXPECT_THROW((void)rle_decode(bytes_of({0xf7})), core::CorruptData);
}

TEST(Rle, BadLiteralEscapeThrows) {
    // count 0 with value != ESC is invalid.
    EXPECT_THROW((void)rle_decode(bytes_of({0xf7, 0x01, 0x00})), core::CorruptData);
}

// Property sweep: round trip across byte patterns, including the regression
// case of runs longer than the count byte can express.
class RleRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RleRoundTrip, Inverse) {
    core::RngStream rng(static_cast<std::uint64_t>(GetParam()), "rle");
    std::vector<std::uint8_t> data;
    for (int i = 0; i < 200; ++i) {
        const auto value = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        const auto run = static_cast<std::size_t>(rng.uniform_int(1, 600));
        data.insert(data.end(), run, value);
    }
    EXPECT_EQ(rle_decode(rle_encode(data)), data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RleRoundTrip, ::testing::Range(0, 8));

TEST(Rle, ExactCountBoundaries) {
    // Runs of 257, 258, 259 (the 259 case was a real overflow bug).
    for (const std::size_t n : {253u, 254u, 255u, 256u, 257u, 258u, 259u, 260u, 600u}) {
        const std::vector<std::uint8_t> data(n, 0x41);
        EXPECT_EQ(rle_decode(rle_encode(data)), data) << n;
    }
}

// --- bitstream -----------------------------------------------------------

TEST(Bitstream, RoundTrip) {
    BitWriter w;
    w.put(0b101, 3);
    w.put(0b1, 1);
    w.put(0xABCD, 16);
    const auto bytes = w.finish();
    BitReader r(bytes);
    std::uint32_t v = 0;
    for (int i = 0; i < 3; ++i) v = (v << 1) | static_cast<std::uint32_t>(r.bit());
    EXPECT_EQ(v, 0b101u);
    EXPECT_EQ(r.bit(), 1);
    v = 0;
    for (int i = 0; i < 16; ++i) v = (v << 1) | static_cast<std::uint32_t>(r.bit());
    EXPECT_EQ(v, 0xABCDu);
}

TEST(Bitstream, ReadPastEndThrows) {
    BitWriter w;
    w.put(1, 1);
    const auto bytes = w.finish();
    BitReader r(bytes);
    for (int i = 0; i < 8; ++i) (void)r.bit();
    EXPECT_TRUE(r.exhausted());
    EXPECT_THROW((void)r.bit(), core::CorruptData);
}

TEST(Bitstream, BadPutCountThrows) {
    BitWriter w;
    EXPECT_THROW(w.put(0, -1), core::InvalidArgument);
    EXPECT_THROW(w.put(0, 33), core::InvalidArgument);
}

// --- Huffman ---------------------------------------------------------------

TEST(Huffman, KraftEquality) {
    // An optimal prefix code satisfies sum(2^-len) == 1.
    std::vector<std::uint64_t> freq(257, 0);
    freq['a'] = 50;
    freq['b'] = 30;
    freq['c'] = 15;
    freq['d'] = 5;
    freq[256] = 1;
    const auto lengths = huffman_code_lengths(freq);
    double kraft = 0.0;
    for (const auto len : lengths) {
        if (len > 0) kraft += std::pow(2.0, -static_cast<double>(len));
    }
    EXPECT_NEAR(kraft, 1.0, 1e-12);
    // More frequent symbols never get longer codes.
    EXPECT_LE(lengths['a'], lengths['b']);
    EXPECT_LE(lengths['b'], lengths['c']);
    EXPECT_LE(lengths['c'], lengths['d']);
}

TEST(Huffman, SingleSymbolGetsLengthOne) {
    std::vector<std::uint64_t> freq(257, 0);
    freq[42] = 100;
    const auto lengths = huffman_code_lengths(freq);
    EXPECT_EQ(lengths[42], 1);
}

TEST(Huffman, EmptyThrows) {
    EXPECT_THROW((void)huffman_code_lengths(std::vector<std::uint64_t>(257, 0)),
                 core::InvalidArgument);
}

TEST(Huffman, CanonicalCodesArePrefixFree) {
    std::vector<std::uint64_t> freq(257, 0);
    for (int i = 0; i < 257; ++i) freq[static_cast<std::size_t>(i)] = 1 + (i % 37);
    const auto lengths = huffman_code_lengths(freq);
    const auto codes = canonical_codes(lengths);
    for (std::size_t a = 0; a < codes.size(); ++a) {
        for (std::size_t b = a + 1; b < codes.size(); ++b) {
            if (lengths[a] == 0 || lengths[b] == 0) continue;
            const int la = lengths[a], lb = lengths[b];
            const int shared = std::min(la, lb);
            EXPECT_NE(codes[a] >> (la - shared), codes[b] >> (lb - shared))
                << a << " prefixes " << b;
        }
    }
}

// --- container ---------------------------------------------------------------

std::vector<std::uint8_t> sample_data(std::size_t size, std::uint64_t seed = 9) {
    CorpusConfig cfg;
    cfg.total_bytes = size;
    const SyntheticCorpus corpus(cfg, seed);
    return write_archive(corpus.files());
}

TEST(Frost, RoundTrip) {
    const auto data = sample_data(96 * 1024);
    const auto packed = frost_compress(data);
    EXPECT_EQ(frost_decompress(packed), data);
    // Source text compresses meaningfully.
    EXPECT_LT(packed.size(), data.size());
}

TEST(Frost, EmptyInput) {
    const std::vector<std::uint8_t> empty;
    const auto packed = frost_compress(empty);
    EXPECT_TRUE(frost_decompress(packed).empty());
    EXPECT_TRUE(frost_block_directory(packed).empty());
}

TEST(Frost, BlockCountArithmetic) {
    CompressorConfig cfg;
    cfg.block_size = 1000;
    EXPECT_EQ(frost_block_count(0, cfg), 0u);
    EXPECT_EQ(frost_block_count(1, cfg), 1u);
    EXPECT_EQ(frost_block_count(1000, cfg), 1u);
    EXPECT_EQ(frost_block_count(1001, cfg), 2u);
    cfg.block_size = 0;
    EXPECT_THROW((void)frost_block_count(10, cfg), core::InvalidArgument);
}

TEST(Frost, DirectoryMatchesConfig) {
    const auto data = sample_data(64 * 1024);
    CompressorConfig cfg;
    cfg.block_size = 4096;
    const auto packed = frost_compress(data, cfg);
    const auto dir = frost_block_directory(packed);
    EXPECT_EQ(dir.size(), frost_block_count(data.size(), cfg));
    std::size_t total = 0;
    for (const BlockInfo& b : dir) total += b.orig_size;
    EXPECT_EQ(total, data.size());
}

TEST(Frost, IncompressibleDataStoredRaw) {
    core::RngStream rng(1, "noise");
    std::vector<std::uint8_t> noise(8192);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    CompressorConfig cfg;
    cfg.block_size = 4096;
    const auto packed = frost_compress(noise, cfg);
    const auto dir = frost_block_directory(packed);
    // Random bytes don't compress: stored blocks (method 0).
    for (const BlockInfo& b : dir) EXPECT_EQ(b.method, 0);
    EXPECT_EQ(frost_decompress(packed), noise);
}

TEST(Frost, PayloadCorruptionCaughtByCrc) {
    const auto data = sample_data(32 * 1024);
    auto packed = frost_compress(data);
    packed[packed.size() / 2] ^= 0x10;
    EXPECT_THROW((void)frost_decompress(packed), core::CorruptData);
}

TEST(Frost, StreamMagicChecked) {
    auto packed = frost_compress(sample_data(8 * 1024));
    packed[0] = 'X';
    EXPECT_THROW((void)frost_block_directory(packed), core::CorruptData);
}

TEST(Frost, TruncationDetected) {
    auto packed = frost_compress(sample_data(32 * 1024));
    packed.resize(packed.size() - 10);
    EXPECT_THROW((void)frost_block_directory(packed), core::CorruptData);
}

TEST(Frost, DecodeBlockRejectsPayloadPastContainer) {
    // A damaged header can claim more payload than the container holds; the
    // decoder must refuse it rather than read past the buffer.  The copy has
    // exactly the container's capacity, so an overread leaves the allocation.
    const auto packed = frost_compress(sample_data(32 * 1024));
    const std::vector<std::uint8_t> exact(packed.begin(), packed.end());
    BlockInfo info = frost_block_directory(exact).back();
    info.comp_size += 64;
    for (const int method : {0, 1}) {
        info.method = static_cast<std::uint8_t>(method);
        EXPECT_THROW((void)frost_decode_block(exact, info), core::CorruptData) << method;
    }
}

TEST(Frost, DeterministicOutput) {
    const auto data = sample_data(32 * 1024);
    EXPECT_EQ(frost_compress(data), frost_compress(data));
}

// Property: round trip holds across block sizes, including sizes that leave
// a small tail block.
class FrostBlockSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FrostBlockSizes, RoundTrip) {
    const auto data = sample_data(40 * 1024 + 123);
    CompressorConfig cfg;
    cfg.block_size = GetParam();
    EXPECT_EQ(frost_decompress(frost_compress(data, cfg)), data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FrostBlockSizes,
                         ::testing::Values(1024, 3000, 4096, 10000, 16384, 65536, 1 << 20));

}  // namespace
}  // namespace zerodeg::workload
