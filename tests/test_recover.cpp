#include "workload/recover.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/rng.hpp"
#include "workload/archive.hpp"
#include "workload/corpus.hpp"

namespace zerodeg::workload {
namespace {

std::vector<std::uint8_t> sample_container(std::size_t corpus_bytes = 64 * 1024,
                                           std::size_t block_size = 4096) {
    CorpusConfig cfg;
    cfg.total_bytes = corpus_bytes;
    const SyntheticCorpus corpus(cfg, 13);
    CompressorConfig cc;
    cc.block_size = block_size;
    return frost_compress(write_archive(corpus.files()), cc);
}

TEST(Recover, PristineContainerFullyIntact) {
    const auto packed = sample_container();
    std::vector<std::uint8_t> salvaged;
    const RecoveryReport r = frost_recover(packed, &salvaged);
    EXPECT_TRUE(r.fully_intact());
    EXPECT_TRUE(r.corrupt_blocks.empty());
    EXPECT_EQ(r.lost_bytes, 0u);
    EXPECT_EQ(salvaged.size(), r.salvaged_bytes);
    EXPECT_EQ(salvaged, frost_decompress(packed));
}

TEST(Recover, SingleFlipDamagesExactlyOneBlock) {
    // Section 4.2.2's forensics: one flipped bit, one bad block of ~396.
    auto packed = sample_container();
    const auto dir = frost_block_directory(packed);
    ASSERT_GT(dir.size(), 4u);
    // Flip a payload bit in block 3.
    packed[dir[3].offset + 17 + dir[3].comp_size / 2] ^= 0x04;

    const RecoveryReport r = frost_recover(packed);
    EXPECT_EQ(r.total_blocks, dir.size());
    ASSERT_EQ(r.corrupt_blocks.size(), 1u);
    EXPECT_EQ(r.corrupt_blocks[0], 3u);
    EXPECT_EQ(r.lost_bytes, dir[3].orig_size);
    EXPECT_FALSE(r.directory_damaged);
}

TEST(Recover, MultipleFlipsMultipleBlocks) {
    auto packed = sample_container();
    const auto dir = frost_block_directory(packed);
    ASSERT_GT(dir.size(), 8u);
    packed[dir[2].offset + 17 + 5] ^= 0x01;
    packed[dir[7].offset + 17 + 5] ^= 0x01;
    const RecoveryReport r = frost_recover(packed);
    EXPECT_EQ(r.corrupt_blocks, (std::vector<std::size_t>{2, 7}));
}

TEST(Recover, CrcFieldCorruptionAlsoFlagsBlock) {
    auto packed = sample_container();
    const auto dir = frost_block_directory(packed);
    packed[dir[1].offset + 12] ^= 0xff;  // stored CRC itself
    const RecoveryReport r = frost_recover(packed);
    ASSERT_EQ(r.corrupt_blocks.size(), 1u);
    EXPECT_EQ(r.corrupt_blocks[0], 1u);
}

TEST(Recover, DamagedStreamHeaderTriggersRescan) {
    auto packed = sample_container();
    const auto expected_blocks = frost_block_directory(packed).size();
    packed[0] = 'X';  // destroy the stream magic
    const RecoveryReport r = frost_recover(packed);
    EXPECT_TRUE(r.directory_damaged);
    // The magic-scan recovers all blocks (their headers are intact).
    EXPECT_EQ(r.total_blocks, expected_blocks);
    EXPECT_TRUE(r.corrupt_blocks.empty());
    EXPECT_GT(r.salvaged_bytes, 0u);
}

TEST(Recover, TruncatedTailLosesOnlyTailBlocks) {
    auto packed = sample_container();
    const auto dir = frost_block_directory(packed);
    // Cut the container in the middle of the last block.
    packed.resize(dir.back().offset + 10);
    const RecoveryReport r = frost_recover(packed);
    EXPECT_TRUE(r.directory_damaged);  // directory walk hits the truncation
    EXPECT_EQ(r.total_blocks, dir.size() - 1);
    EXPECT_TRUE(r.corrupt_blocks.empty());
}

TEST(Recover, GarbageInput) {
    std::vector<std::uint8_t> garbage(1000, 0xaa);
    const RecoveryReport r = frost_recover(garbage);
    EXPECT_TRUE(r.directory_damaged);
    EXPECT_EQ(r.total_blocks, 0u);
    EXPECT_EQ(r.salvaged_bytes, 0u);
}

TEST(Recover, SalvagedBytesDeliveredInOrder) {
    auto packed = sample_container(32 * 1024, 2048);
    const auto original = frost_decompress(packed);
    const auto dir = frost_block_directory(packed);
    packed[dir[0].offset + 17 + 3] ^= 0x20;  // kill block 0

    std::vector<std::uint8_t> salvaged;
    const RecoveryReport r = frost_recover(packed, &salvaged);
    ASSERT_EQ(r.corrupt_blocks.size(), 1u);
    // Salvage equals the original minus the first block.
    const std::vector<std::uint8_t> expected(
        original.begin() + static_cast<std::ptrdiff_t>(dir[0].orig_size), original.end());
    EXPECT_EQ(salvaged, expected);
}

// --- recovery against a pristine reference -------------------------------
// Skipping blocks that are byte-identical to the reference must not change
// the report: full recovery (no reference) is the oracle.

void expect_same_report(const std::vector<std::uint8_t>& damaged,
                        const std::vector<std::uint8_t>& reference, const std::string& what) {
    const RecoveryReport full = frost_recover(damaged);
    const RecoveryReport reused = frost_recover(damaged, nullptr, reference);
    EXPECT_EQ(reused.total_blocks, full.total_blocks) << what;
    EXPECT_EQ(reused.corrupt_blocks, full.corrupt_blocks) << what;
    EXPECT_EQ(reused.salvaged_bytes, full.salvaged_bytes) << what;
    EXPECT_EQ(reused.lost_bytes, full.lost_bytes) << what;
    EXPECT_EQ(reused.directory_damaged, full.directory_damaged) << what;
}

void expect_same_for_every_bit(const std::vector<std::uint8_t>& pristine, std::size_t first,
                               std::size_t count) {
    for (std::size_t pos = first; pos < first + count; ++pos) {
        for (int bit = 0; bit < 8; ++bit) {
            auto damaged = pristine;
            damaged[pos] ^= static_cast<std::uint8_t>(1u << bit);
            expect_same_report(damaged, pristine,
                               "byte " + std::to_string(pos) + " bit " + std::to_string(bit));
        }
    }
}

TEST(RecoverWithReference, PristineContainerIsFullyIntact) {
    const auto packed = sample_container();
    expect_same_report(packed, packed, "pristine");
    EXPECT_TRUE(frost_recover(packed, nullptr, packed).fully_intact());
}

TEST(RecoverWithReference, EveryHeaderBitFlip) {
    const auto pristine = sample_container();
    const auto dir = frost_block_directory(pristine);
    expect_same_for_every_bit(pristine, 0, 12);                   // stream header
    expect_same_for_every_bit(pristine, dir.front().offset, 17);  // first block header
    expect_same_for_every_bit(pristine, dir.back().offset, 17);   // last block header
}

TEST(RecoverWithReference, SampledFlipCombinations) {
    const auto pristine = sample_container();
    core::RngStream rng(2010, "recover.reference");
    const auto last = static_cast<std::int64_t>(pristine.size()) - 1;
    for (int flips = 1; flips <= 3; ++flips) {
        for (int trial = 0; trial < 60; ++trial) {
            auto damaged = pristine;
            std::string what = std::to_string(flips) + " flips:";
            for (int f = 0; f < flips; ++f) {
                const auto pos = static_cast<std::size_t>(rng.uniform_int(12, last));
                const auto bit = static_cast<int>(rng.uniform_int(0, 7));
                damaged[pos] ^= static_cast<std::uint8_t>(1u << bit);
                what += " " + std::to_string(pos) + "/" + std::to_string(bit);
            }
            expect_same_report(damaged, pristine, what);
        }
    }
}

TEST(RecoverWithReference, TruncatedTail) {
    const auto pristine = sample_container();
    const auto dir = frost_block_directory(pristine);
    for (const std::size_t cut : {pristine.size() - 1, dir.back().offset + 10,
                                  dir.back().offset, dir[dir.size() / 2].offset + 30,
                                  std::size_t{20}}) {
        std::vector<std::uint8_t> damaged(pristine.begin(),
                                          pristine.begin() + static_cast<std::ptrdiff_t>(cut));
        expect_same_report(damaged, pristine, "cut at " + std::to_string(cut));
    }
}

TEST(RecoverWithReference, RescanFindsHeaderInsideReferencePayload) {
    // Random bytes are stored raw, so a fake block header planted in the data
    // sits verbatim in the reference's payload.  Breaking the first real
    // block magic makes the rescan pick the fake block up: it is
    // byte-identical to the reference there, but at no reference block
    // offset, so it must be decoded (and fail its CRC) rather than reused.
    core::RngStream rng(7, "recover.fake");
    std::vector<std::uint8_t> data(16 * 1024);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const std::uint8_t fake[25] = {0x0c, 0xb1, 0x0c, 0xb1, 8, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0,
                                   0,    1,    2,    3,    4, 5, 6, 7, 8};
    std::copy(std::begin(fake), std::end(fake), data.begin() + 100);
    CompressorConfig cc;
    cc.block_size = 4096;
    const auto pristine = frost_compress(data, cc);
    ASSERT_EQ(frost_block_directory(pristine).front().method, 0);

    auto damaged = pristine;
    damaged[12] ^= 0x01;  // first block magic
    expect_same_report(damaged, pristine, "fake header in stored payload");
    EXPECT_FALSE(frost_recover(damaged).corrupt_blocks.empty());
}

TEST(RecoverWithReference, UnrelatedOrInvalidReference) {
    auto damaged = sample_container();
    const auto dir = frost_block_directory(damaged);
    damaged[dir[2].offset + 17 + 5] ^= 0x01;
    expect_same_report(damaged, sample_container(48 * 1024, 2048), "unrelated container");
    expect_same_report(damaged, sample_container(64 * 1024, 4096 + 512), "other block size");
    expect_same_report(damaged, std::vector<std::uint8_t>(1000, 0xaa), "garbage reference");
}

// Property: wherever a single payload bit lands, recovery reports exactly
// one corrupt block and never throws.
class SingleFlipAnywhere : public ::testing::TestWithParam<int> {};

TEST_P(SingleFlipAnywhere, OneBadBlock) {
    auto packed = sample_container(48 * 1024, 4096);
    core::RngStream rng(static_cast<std::uint64_t>(GetParam()), "flip");
    const auto dir = frost_block_directory(packed);
    const auto& blk =
        dir[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(dir.size()) - 1))];
    ASSERT_GT(blk.comp_size, 0u);
    const std::size_t pos =
        blk.offset + 17 +
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(blk.comp_size) - 1));
    packed[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    const RecoveryReport r = frost_recover(packed);
    EXPECT_EQ(r.corrupt_blocks.size(), 1u);
    EXPECT_EQ(r.salvaged_bytes + r.lost_bytes,
              frost_decompress(sample_container(48 * 1024, 4096)).size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingleFlipAnywhere, ::testing::Range(0, 10));

}  // namespace
}  // namespace zerodeg::workload
