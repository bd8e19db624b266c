#include "workload/compressor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "workload/archive.hpp"
#include "workload/corpus.hpp"
#include "workload/crc32.hpp"

namespace zerodeg::workload {
namespace {

using frost_detail::BitReader;
using frost_detail::canonical_codes;
using frost_detail::huffman_code_lengths;
using frost_detail::rle_decode;

// --- the per-symbol reference encoder ----------------------------------------
//
// The frost encoder as it was first written, kept here as the oracle for the
// one-pass encoder in src/: a separate RLE pass, a priority-queue Huffman
// tree, a trial Huffman encode of every block through a per-symbol bit
// writer, and the stored/Huffman choice made on the encoded size.  The
// container format is the contract, so the two must agree byte for byte.
namespace reference {

constexpr std::uint8_t kEsc = 0xf7;
constexpr std::size_t kMinRun = 4;
constexpr std::size_t kSymbols = 257;
constexpr std::uint32_t kEob = 256;

std::vector<std::uint8_t> rle_encode(std::span<const std::uint8_t> data) {
    std::vector<std::uint8_t> out;
    std::size_t i = 0;
    while (i < data.size()) {
        const std::uint8_t b = data[i];
        std::size_t run = 1;
        while (i + run < data.size() && data[i + run] == b && run < 254 + kMinRun) ++run;
        if (run >= kMinRun) {
            out.push_back(kEsc);
            out.push_back(b);
            out.push_back(static_cast<std::uint8_t>(run - kMinRun + 1));
            i += run;
        } else if (b == kEsc) {
            out.push_back(kEsc);
            out.push_back(kEsc);
            out.push_back(0);
            ++i;
        } else {
            out.push_back(b);
            ++i;
        }
    }
    return out;
}

/// Writes each code MSB first, one bit at a time; bytes fill from the high bit.
class BitWriter {
public:
    void put(std::uint32_t bits, int count) {
        for (int i = count - 1; i >= 0; --i) {
            acc_ = static_cast<std::uint8_t>((acc_ << 1) | ((bits >> i) & 1u));
            if (++acc_bits_ == 8) {
                bytes_.push_back(acc_);
                acc_ = 0;
                acc_bits_ = 0;
            }
        }
    }
    [[nodiscard]] std::vector<std::uint8_t> finish() {
        if (acc_bits_ > 0) bytes_.push_back(static_cast<std::uint8_t>(acc_ << (8 - acc_bits_)));
        acc_ = 0;
        acc_bits_ = 0;
        return std::move(bytes_);
    }

private:
    std::vector<std::uint8_t> bytes_;
    std::uint8_t acc_ = 0;
    int acc_bits_ = 0;
};

std::vector<std::uint8_t> huffman_code_lengths(const std::vector<std::uint64_t>& freq) {
    struct Node {
        std::uint64_t weight;
        int index;  ///< tie-break for determinism
        int left = -1;
        int right = -1;
        int symbol = -1;
    };
    std::vector<Node> nodes;
    auto cmp = [&nodes](int a, int b) {
        if (nodes[a].weight != nodes[b].weight) return nodes[a].weight > nodes[b].weight;
        return nodes[a].index > nodes[b].index;
    };
    std::priority_queue<int, std::vector<int>, decltype(cmp)> heap(cmp);
    for (std::size_t s = 0; s < freq.size(); ++s) {
        if (freq[s] == 0) continue;
        nodes.push_back({freq[s], static_cast<int>(nodes.size()), -1, -1, static_cast<int>(s)});
        heap.push(static_cast<int>(nodes.size()) - 1);
    }
    std::vector<std::uint8_t> lengths(freq.size(), 0);
    if (nodes.size() == 1) {
        lengths[static_cast<std::size_t>(nodes[0].symbol)] = 1;
        return lengths;
    }
    while (heap.size() > 1) {
        const int a = heap.top();
        heap.pop();
        const int b = heap.top();
        heap.pop();
        nodes.push_back({nodes[a].weight + nodes[b].weight, static_cast<int>(nodes.size()), a, b,
                         -1});
        heap.push(static_cast<int>(nodes.size()) - 1);
    }
    std::vector<std::pair<int, int>> stack{{heap.top(), 0}};
    while (!stack.empty()) {
        const auto [n, depth] = stack.back();
        stack.pop_back();
        if (nodes[n].symbol >= 0) {
            lengths[static_cast<std::size_t>(nodes[n].symbol)] =
                static_cast<std::uint8_t>(std::max(depth, 1));
        } else {
            stack.emplace_back(nodes[n].left, depth + 1);
            stack.emplace_back(nodes[n].right, depth + 1);
        }
    }
    return lengths;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) {
        out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
    }
}

std::vector<std::uint8_t> frost_compress(std::span<const std::uint8_t> data,
                                         CompressorConfig config) {
    const std::size_t blocks = frost_block_count(data.size(), config);
    std::vector<std::uint8_t> out{'F', 'Z', '0', '1'};
    put_u32(out, static_cast<std::uint32_t>(blocks));
    put_u32(out, static_cast<std::uint32_t>(config.block_size));
    for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t off = b * config.block_size;
        const auto block = data.subspan(off, std::min(config.block_size, data.size() - off));

        const std::vector<std::uint8_t> rle = rle_encode(block);
        std::vector<std::uint64_t> freq(kSymbols, 0);
        for (const std::uint8_t x : rle) ++freq[x];
        freq[kEob] = 1;
        const std::vector<std::uint8_t> lengths = huffman_code_lengths(freq);
        const std::vector<std::uint32_t> codes = canonical_codes(lengths);
        std::vector<std::uint8_t> payload(lengths.begin(), lengths.end());
        BitWriter writer;
        for (const std::uint8_t x : rle) writer.put(codes[x], lengths[x]);
        writer.put(codes[kEob], lengths[kEob]);
        const std::vector<std::uint8_t> bits = writer.finish();
        payload.insert(payload.end(), bits.begin(), bits.end());
        std::uint8_t method = 1;
        if (payload.size() >= block.size()) {
            payload.assign(block.begin(), block.end());
            method = 0;
        }
        put_u32(out, 0xb10cb10cu);
        put_u32(out, static_cast<std::uint32_t>(block.size()));
        put_u32(out, static_cast<std::uint32_t>(payload.size()));
        put_u32(out, crc32(block));
        out.push_back(method);
        out.insert(out.end(), payload.begin(), payload.end());
    }
    return out;
}

}  // namespace reference

using reference::BitWriter;

// --- RLE ---------------------------------------------------------------

/// The encoder's RLE pass into a vector, checking the histogram it counts
/// on the way against the bytes it emitted.
std::vector<std::uint8_t> rle_encode(std::span<const std::uint8_t> data) {
    std::vector<std::uint8_t> out(frost_detail::kRleMaxExpansion * data.size());
    std::vector<std::uint64_t> freq(256, 0);
    out.resize(frost_detail::rle_encode_counting(data, out.data(), freq.data()));
    std::vector<std::uint64_t> counted(256, 0);
    for (const std::uint8_t b : out) ++counted[b];
    EXPECT_EQ(freq, counted);
    return out;
}

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

// --- the one-pass encoder against the per-symbol reference ------------------

std::vector<std::uint8_t> run_of(std::size_t n, std::uint8_t value) {
    return std::vector<std::uint8_t>(n, value);
}

/// Every RLE boundary and escape case back to back, then source text and
/// noise: runs of 3, 4, 258 and 259 bytes (one short of a run, the shortest
/// run, the longest run, one past it), lone and paired 0xF7 escapes, and
/// runs of 0xF7 at the same lengths.
std::vector<std::uint8_t> adversarial_data() {
    std::vector<std::uint8_t> data;
    const auto add = [&data](const std::vector<std::uint8_t>& part) {
        data.insert(data.end(), part.begin(), part.end());
    };
    for (const std::uint8_t value : {std::uint8_t{0x41}, std::uint8_t{0x00}, std::uint8_t{0xf7}}) {
        for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 257u, 258u, 259u, 260u, 517u}) {
            add(run_of(n, value));
            data.push_back(0x20);
        }
    }
    add(bytes_of({0xf7, 1, 0xf7, 0xf7, 2, 0xf7, 0xf7, 0xf7, 3}));
    add(sample_data(8 * 1024, 3));
    core::RngStream rng(7, "adversarial");
    for (int i = 0; i < 2048; ++i) data.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    return data;
}

TEST(FrostOracle, AdversarialBlocksMatchTheReferenceByteForByte) {
    const std::vector<std::uint8_t> data = adversarial_data();
    for (const std::size_t block_size :
         {std::size_t{255}, std::size_t{256}, std::size_t{1000}, std::size_t{4096},
          data.size() - 1, data.size(), data.size() + 1}) {
        CompressorConfig cfg;
        cfg.block_size = block_size;
        EXPECT_EQ(frost_compress(data, cfg), reference::frost_compress(data, cfg)) << block_size;
    }
}

TEST(FrostOracle, EveryRunLengthMatchesTheReference) {
    for (const std::uint8_t value : {std::uint8_t{0x41}, std::uint8_t{0xf7}}) {
        for (std::size_t n = 1; n <= 600; ++n) {
            const std::vector<std::uint8_t> data = run_of(n, value);
            CompressorConfig cfg;
            cfg.block_size = 1024;
            ASSERT_EQ(frost_compress(data, cfg), reference::frost_compress(data, cfg))
                << n << " x " << int{value};
        }
    }
}

TEST(FrostOracle, SingleSymbolAndStoredBlocksMatchTheReference) {
    CompressorConfig cfg;
    cfg.block_size = 4096;
    // Two literals per block, no run reaching the RLE minimum of 4.
    std::vector<std::uint8_t> alternating(3 * 4096);
    for (std::size_t i = 0; i < alternating.size(); ++i) {
        alternating[i] = (i % 4 == 3) ? 0x00 : 0x61;
    }
    // A single byte value throughout: RLE leaves escape/value/count
    // triples only.
    const std::vector<std::uint8_t> constant = run_of(3 * 4096 + 17, 0x61);
    // Noise: every block is stored (method 0).
    core::RngStream rng(1, "noise");
    std::vector<std::uint8_t> noise(3 * 4096 + 5);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const std::vector<std::uint8_t>* const inputs[] = {&alternating, &constant, &noise};
    for (const std::vector<std::uint8_t>* data : inputs) {
        EXPECT_EQ(frost_compress(*data, cfg), reference::frost_compress(*data, cfg));
    }
    for (const BlockInfo& b : frost_block_directory(frost_compress(noise, cfg))) {
        EXPECT_EQ(b.method, 0);
    }
}

TEST(FrostOracle, BlockSizesFromOneByteTo64KiBMatchTheReference) {
    const std::vector<std::uint8_t> data = adversarial_data();
    const std::span<const std::uint8_t> head(data.data(), 2048);
    // Every size up to 300 on a 2 KiB prefix (tiny blocks are mostly
    // stored: the 257-byte length table alone outweighs them) ...
    for (std::size_t block_size = 1; block_size <= 300; ++block_size) {
        CompressorConfig cfg;
        cfg.block_size = block_size;
        ASSERT_EQ(frost_compress(head, cfg), reference::frost_compress(head, cfg)) << block_size;
    }
    // ... then powers of two and their neighbours up to 64 KiB on all of it.
    for (std::size_t p = 512; p <= 64 * 1024; p *= 2) {
        for (const std::size_t block_size : {p - 1, p, p + 1}) {
            CompressorConfig cfg;
            cfg.block_size = block_size;
            ASSERT_EQ(frost_compress(data, cfg), reference::frost_compress(data, cfg))
                << block_size;
        }
    }
}

TEST(FrostOracle, CorpusArchiveMatchesTheReference) {
    const std::vector<std::uint8_t> data = sample_data(256 * 1024, 20100219);
    CompressorConfig cfg;
    cfg.block_size = data.size() / 47;
    EXPECT_EQ(frost_compress(data, cfg), reference::frost_compress(data, cfg));
}

TEST(HuffmanOracle, TwoQueueMergeMatchesTheHeapOnTiedTables) {
    core::RngStream rng(17, "huffman-ties");
    const std::uint64_t pools[][6] = {{0, 1, 1, 1, 2, 2},      // mostly ties
                                      {0, 0, 0, 5, 5, 5},      // sparse, all tied
                                      {1, 2, 4, 8, 16, 32},    // powers of two
                                      {0, 1, 2, 3, 5, 8}};     // Fibonacci
    for (int round = 0; round < 400; ++round) {
        const auto& pool = pools[round % 4];
        std::vector<std::uint64_t> freq(257);
        for (auto& f : freq) f = pool[rng.uniform_int(0, 5)];
        freq[256] = 1;  // EOB, as the encoder sets it
        ASSERT_EQ(huffman_code_lengths(freq), reference::huffman_code_lengths(freq)) << round;
    }
    // Degenerate shapes: all equal, two symbols, one symbol plus EOB,
    // and a Fibonacci table that builds the deepest tree.
    std::vector<std::vector<std::uint64_t>> shapes(4, std::vector<std::uint64_t>(257, 0));
    for (auto& f : shapes[0]) f = 7;
    shapes[1][3] = 1;
    shapes[1][200] = 1;
    shapes[2][0x61] = 4096;
    shapes[2][256] = 1;
    std::uint64_t a = 1, b = 1;
    for (std::size_t s = 0; s < 30; ++s) {
        shapes[3][s * 7] = a;
        const std::uint64_t next = a + b;
        a = b;
        b = next;
    }
    for (const auto& freq : shapes) {
        EXPECT_EQ(huffman_code_lengths(freq), reference::huffman_code_lengths(freq));
    }
}

}  // namespace
}  // namespace zerodeg::workload
