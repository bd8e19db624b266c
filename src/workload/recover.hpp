// frost_recover — the bzip2recover analogue.
//
// Section 4.2.2: "While inspecting the tarball with the bzip2recover
// utility, it became clear that only a single one of the 396 bzip2
// compression blocks had been corrupted."  This utility performs the same
// forensics on a frost container: walk the block directory (rescanning for
// block magics if the directory itself is damaged), decode each block, and
// report which blocks fail their CRC and how many bytes are salvageable.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "workload/compressor.hpp"

namespace zerodeg::workload {

struct RecoveryReport {
    std::size_t total_blocks = 0;
    std::vector<std::size_t> corrupt_blocks;   ///< indices of damaged blocks
    std::size_t salvaged_bytes = 0;            ///< original bytes recovered
    std::size_t lost_bytes = 0;                ///< original bytes in bad blocks
    bool directory_damaged = false;            ///< had to rescan for magics

    [[nodiscard]] bool fully_intact() const {
        return corrupt_blocks.empty() && !directory_damaged;
    }
};

/// Analyze a (possibly damaged) container.  Never throws on corrupt input —
/// damage is the expected case here.
///
/// `reference`, when given, must be a pristine container (one that
/// frost_decompress accepts), typically the undamaged original.  A block
/// whose header and payload are byte-identical to a reference block at the
/// same offset would decode to that reference block, so it is counted
/// intact without being decoded; every other block is decoded for real.
/// The report is the same as without `reference`.  When `salvaged` is
/// requested every block is decoded.
[[nodiscard]] RecoveryReport frost_recover(std::span<const std::uint8_t> container,
                                           std::vector<std::uint8_t>* salvaged = nullptr,
                                           std::span<const std::uint8_t> reference = {});

}  // namespace zerodeg::workload
