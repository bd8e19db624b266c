#include "workload/load_job.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace zerodeg::workload {
namespace {

LoadJobConfig small_config() {
    LoadJobConfig cfg;
    cfg.corpus.total_bytes = 256 * 1024;
    cfg.target_blocks = 50;
    return cfg;
}

faults::MemoryFaultModel quiet_memory(std::uint64_t seed = 1) {
    return faults::MemoryFaultModel(faults::MemoryFaultParams{},
                                    core::RngStream(seed, "mem"));
}

faults::MemoryFaultModel noisy_memory(std::uint64_t seed = 1) {
    faults::MemoryFaultParams p;
    p.flip_probability_per_page_op = 1.0 / 1000.0;  // flips every run
    return faults::MemoryFaultModel(p, core::RngStream(seed, "mem"));
}

TEST(LoadJob, ReferenceIsStableAcrossInstances) {
    const LoadJob a(small_config(), 2010);
    const LoadJob b(small_config(), 2010);
    EXPECT_EQ(a.reference_digest(), b.reference_digest());
    EXPECT_EQ(a.block_count(), b.block_count());
}

TEST(LoadJob, BlockCountNearTarget) {
    const LoadJob job(LoadJobConfig{}, 2010);
    // The paper's tarball had 396 blocks; ours lands within a few.
    EXPECT_NEAR(static_cast<double>(job.block_count()), 396.0, 8.0);
}

TEST(LoadJob, CleanRunMatchesReference) {
    LoadJob job(small_config(), 2010);
    auto mem = quiet_memory();
    const JobResult r = job.run(mem, false);
    EXPECT_TRUE(r.hash_ok);
    EXPECT_EQ(r.digest, job.reference_digest());
    EXPECT_FALSE(r.forensics.has_value());
    EXPECT_EQ(r.page_ops, job.page_ops_per_run());
}

TEST(LoadJob, UncachedCleanRunAlsoMatches) {
    // With caching off the whole pipeline really runs, and determinism makes
    // the digest identical.
    LoadJobConfig cfg = small_config();
    cfg.cache_clean_runs = false;
    LoadJob job(cfg, 2010);
    auto mem = quiet_memory();
    const JobResult r = job.run(mem, false);
    EXPECT_TRUE(r.hash_ok);
    EXPECT_EQ(r.digest, job.reference_digest());
}

TEST(LoadJob, CorruptingFlipIsDetectedAndAnalyzed) {
    LoadJob job(small_config(), 2010);
    auto mem = noisy_memory();
    // Run until a flip actually lands (high probability per run).
    JobResult r;
    for (int i = 0; i < 50; ++i) {
        r = job.run(mem, false);
        if (!r.hash_ok) break;
    }
    ASSERT_FALSE(r.hash_ok);
    EXPECT_NE(r.digest, job.reference_digest());
    ASSERT_TRUE(r.forensics.has_value());
    // A flip in a payload leaves the directory whole; a flip in a block
    // header damages the directory walk and costs the rescan a block or two.
    EXPECT_LE(r.forensics->total_blocks, job.block_count());
    EXPECT_GE(r.forensics->total_blocks + 2, job.block_count());
    EXPECT_GE(r.forensics->corrupt_blocks.size() +
                  (r.forensics->directory_damaged ? 1 : 0),
              1u);
    // A single flip damages a single block ("only a single one of the 396
    // bzip2 compression blocks had been corrupted").
    if (r.raw_flips == 1) {
        EXPECT_EQ(r.forensics->corrupt_blocks.size(), 1u);
    }
}

TEST(LoadJob, CachedRunsEqualUncachedRuns) {
    // The cached path reuses the reference for the clean prefix of the hash
    // and for intact blocks; the uncached path recompresses, hashes and
    // decodes every byte.  Run for run they must report the same thing.
    LoadJobConfig uncached_cfg = small_config();
    uncached_cfg.cache_clean_runs = false;
    LoadJob cached(small_config(), 2010);
    LoadJob uncached(uncached_cfg, 2010);

    faults::MemoryFaultParams p;
    p.flip_probability_per_page_op = 1.5 / static_cast<double>(cached.page_ops_per_run());
    p.multi_bit_fraction = 0.3;
    faults::MemoryFaultModel mem_a(p, core::RngStream(7, "mem"));
    faults::MemoryFaultModel mem_b(p, core::RngStream(7, "mem"));

    int wrong_hashes = 0;
    for (int i = 0; i < 240; ++i) {
        const bool ecc = i % 3 == 0;
        const JobResult a = cached.run(mem_a, ecc);
        const JobResult b = uncached.run(mem_b, ecc);
        ASSERT_EQ(a.digest, b.digest) << i;
        EXPECT_EQ(a.hash_ok, b.hash_ok) << i;
        EXPECT_EQ(a.page_ops, b.page_ops) << i;
        EXPECT_EQ(a.raw_flips, b.raw_flips) << i;
        EXPECT_EQ(a.corrected_flips, b.corrected_flips) << i;
        ASSERT_EQ(a.forensics.has_value(), b.forensics.has_value()) << i;
        if (!a.forensics) continue;
        ++wrong_hashes;
        EXPECT_EQ(a.forensics->total_blocks, b.forensics->total_blocks) << i;
        EXPECT_EQ(a.forensics->corrupt_blocks, b.forensics->corrupt_blocks) << i;
        EXPECT_EQ(a.forensics->salvaged_bytes, b.forensics->salvaged_bytes) << i;
        EXPECT_EQ(a.forensics->lost_bytes, b.forensics->lost_bytes) << i;
        EXPECT_EQ(a.forensics->directory_damaged, b.forensics->directory_damaged) << i;
    }
    // The comparison must have covered plenty of faulty runs.
    EXPECT_GT(wrong_hashes, 100);
}

TEST(LoadJob, EccHostAbsorbsSingleBitFlips) {
    LoadJobConfig cfg = small_config();
    LoadJob job(cfg, 2010);
    faults::MemoryFaultParams p;
    p.flip_probability_per_page_op = 1.0 / 1000.0;
    p.multi_bit_fraction = 0.0;
    faults::MemoryFaultModel mem(p, core::RngStream(5, "mem"));
    for (int i = 0; i < 30; ++i) {
        const JobResult r = job.run(mem, true);
        EXPECT_TRUE(r.hash_ok);
        if (r.raw_flips > 0) {
            EXPECT_EQ(r.corrected_flips, r.raw_flips);
        }
    }
}

TEST(LoadJob, PageOpsScaledToPaperMagnitude) {
    const LoadJob job(LoadJobConfig{}, 2010);
    // ~3.2e9 page ops over 27627 runs = ~116k per run; ours must be the
    // same order of magnitude so the wrong-hash *rate* transfers.
    EXPECT_GT(job.page_ops_per_run(), 40'000u);
    EXPECT_LT(job.page_ops_per_run(), 400'000u);
}

TEST(LoadJob, ZeroTargetBlocksThrows) {
    LoadJobConfig cfg = small_config();
    cfg.target_blocks = 0;
    EXPECT_THROW(LoadJob(cfg, 1), core::InvalidArgument);
}

TEST(LoadJob, ArchiveLargerThanCorpusButContainerSmaller) {
    const LoadJob job(small_config(), 2010);
    EXPECT_GT(job.archive_bytes(), 0u);
    EXPECT_LT(job.container_bytes(), job.archive_bytes());
}

}  // namespace
}  // namespace zerodeg::workload
