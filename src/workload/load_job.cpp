#include "workload/load_job.hpp"

#include <algorithm>
#include <span>

#include "core/error.hpp"
#include "workload/archive.hpp"

namespace zerodeg::workload {

LoadJob::LoadJob(LoadJobConfig config, std::uint64_t seed)
    : config_(config), flip_rng_(seed, "loadjob.flips") {
    const SyntheticCorpus corpus(config.corpus, seed);
    archive_ = write_archive(corpus.files());

    // Pick a block size that yields ~target_blocks blocks, as the paper's
    // corpus did under bzip2's 900k blocks (396 blocks there).
    if (config.target_blocks == 0) throw core::InvalidArgument("LoadJob: zero target blocks");
    comp_config_.block_size = std::max<std::size_t>(1024, archive_.size() / config.target_blocks);
    reference_container_ = frost_compress(archive_, comp_config_);
    // Hash the reference in checkpoint-sized steps, keeping the state before
    // each step: a faulty run resumes from the one before its first flip.
    const std::span<const std::uint8_t> reference(reference_container_);
    Md5 hash;
    for (std::size_t off = 0; off < reference.size(); off += kMd5CheckpointBytes) {
        md5_checkpoints_.push_back(hash);
        hash.update(reference.subspan(off, std::min(kMd5CheckpointBytes, reference.size() - off)));
    }
    reference_digest_ = hash.finalize();
    block_count_ = frost_block_directory(reference_container_).size();

    const std::uint64_t real_page_ops =
        static_cast<std::uint64_t>((archive_.size() + reference_container_.size()) / 4096);
    page_ops_per_run_ = static_cast<std::uint64_t>(static_cast<double>(real_page_ops) *
                                                   config.page_op_multiplier);
}

JobResult LoadJob::run(faults::MemoryFaultModel& memory, bool ecc) {
    JobResult result;
    result.page_ops = page_ops_per_run_;

    const faults::MemoryFaultOutcome outcome = memory.run(page_ops_per_run_, ecc);
    result.raw_flips = outcome.raw_flips;
    result.corrected_flips = outcome.corrected;

    if (outcome.corrupting_flips == 0) {
        // Clean run: the pipeline is deterministic, so the output is
        // bit-identical to the reference container.
        if (config_.cache_clean_runs) {
            result.digest = reference_digest_;
        } else {
            const std::vector<std::uint8_t> container = frost_compress(archive_, comp_config_);
            result.digest = md5(container);
        }
        result.hash_ok = result.digest == reference_digest_;
        return result;
    }

    // A corrupting flip: run the real pipeline and damage the buffer the way
    // a flipped DRAM bit does — one bit, somewhere in the data pages.  The
    // pipeline is deterministic (the clean path above already banks on it),
    // so under cache_clean_runs the pre-damage buffer is a copy of the
    // reference container rather than a fresh compression pass, and only
    // the bytes a flip could have changed are hashed and decoded again.
    std::vector<std::uint8_t> container =
        config_.cache_clean_runs ? reference_container_ : frost_compress(archive_, comp_config_);
    std::size_t first_flip = container.size();
    for (std::uint64_t i = 0; i < outcome.corrupting_flips; ++i) {
        // Flip within payload area (skip the 12-byte stream header so the
        // damage lands in a block, as the paper observed).
        const auto byte_index = static_cast<std::size_t>(
            flip_rng_.uniform_int(12, static_cast<std::int64_t>(container.size()) - 1));
        const auto bit = static_cast<int>(flip_rng_.uniform_int(0, 7));
        container[byte_index] ^= static_cast<std::uint8_t>(1u << bit);
        first_flip = std::min(first_flip, byte_index);
    }

    if (config_.cache_clean_runs) {
        // Everything before the first flip is the reference's prefix.
        const std::size_t k = first_flip / kMd5CheckpointBytes;
        Md5 hash = md5_checkpoints_[k];
        hash.update(std::span<const std::uint8_t>(container).subspan(k * kMd5CheckpointBytes));
        result.digest = hash.finalize();
    } else {
        result.digest = md5(container);
    }
    result.hash_ok = result.digest == reference_digest_;
    if (!result.hash_ok) {
        // "If the results differ, the packed tarball is stored" — and later
        // inspected with the recovery utility.
        const std::span<const std::uint8_t> reference =
            config_.cache_clean_runs ? std::span<const std::uint8_t>(reference_container_)
                                     : std::span<const std::uint8_t>();
        result.forensics = frost_recover(container, nullptr, reference);
    }
    return result;
}

}  // namespace zerodeg::workload
