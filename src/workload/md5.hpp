// MD5 (RFC 1321), implemented from scratch.
//
// The paper's synthetic load verifies every compressed tarball by comparing
// its md5sum against a reference value computed at installation; a mismatch
// is the detector for the memory-corruption events of Section 4.2.2.  This
// is the same algorithm on the same role.  (MD5 is of course not to be used
// for security anywhere; here it is an integrity checksum, as in the paper.)
//
// process_block spells out the 64 steps with constant shifts and message
// indices, so a block costs no per-step round dispatch.  It is on two hot
// paths: every LoadJob hashes its reference container once, and every
// wrong-hash run re-hashes from the last checkpoint before its first flip.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace zerodeg::workload {

using Md5Digest = std::array<std::uint8_t, 16>;

class Md5 {
public:
    Md5();

    /// Feed data incrementally.
    void update(std::span<const std::uint8_t> data);
    void update(const std::string& s);

    /// Finish and return the digest.  The object must not be reused after
    /// finalize() without reset().
    [[nodiscard]] Md5Digest finalize();

    void reset();

private:
    std::array<std::uint32_t, 4> state_;
    std::uint64_t total_bytes_ = 0;
    std::array<std::uint8_t, 64> buffer_;
    std::size_t buffered_ = 0;
    bool finalized_ = false;

    void process_block(const std::uint8_t* block);
};

/// One-shot convenience.
[[nodiscard]] Md5Digest md5(std::span<const std::uint8_t> data);

/// Lowercase hex, as md5sum prints it.
[[nodiscard]] std::string to_hex(const Md5Digest& d);

}  // namespace zerodeg::workload
