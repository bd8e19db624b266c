#include "workload/recover.hpp"

#include <algorithm>
#include <cstring>

#include "core/error.hpp"

namespace zerodeg::workload {

namespace {

constexpr std::uint32_t kBlockMagic = 0xb10cb10cu;

std::uint32_t get_u32(std::span<const std::uint8_t> bytes, std::size_t off) {
    return static_cast<std::uint32_t>(bytes[off]) |
           static_cast<std::uint32_t>(bytes[off + 1]) << 8 |
           static_cast<std::uint32_t>(bytes[off + 2]) << 16 |
           static_cast<std::uint32_t>(bytes[off + 3]) << 24;
}

/// Rebuild a block directory by scanning for block magics — what
/// bzip2recover does when the stream structure is broken.
std::vector<BlockInfo> rescan_for_blocks(std::span<const std::uint8_t> container) {
    std::vector<BlockInfo> dir;
    if (container.size() < 21) return dir;
    std::size_t off = 12 <= container.size() ? 12 : 0;
    while (off + 21 <= container.size()) {
        if (get_u32(container, off) == kBlockMagic) {
            BlockInfo info;
            info.offset = off;
            info.orig_size = get_u32(container, off + 4);
            info.comp_size = get_u32(container, off + 8);
            info.crc = get_u32(container, off + 12);
            info.method = container[off + 16];
            if (off + 17 + info.comp_size <= container.size()) {
                dir.push_back(info);
                off += 17 + info.comp_size;
                continue;
            }
        }
        ++off;
    }
    return dir;
}

/// Block offsets of a pristine reference; none when there is no reference.
std::vector<std::size_t> reference_offsets(std::span<const std::uint8_t> reference) {
    std::vector<std::size_t> offsets;
    if (reference.empty()) return offsets;
    try {
        for (const BlockInfo& info : frost_block_directory(reference)) {
            offsets.push_back(info.offset);
        }
    } catch (const core::CorruptData&) {
        // Not a container: nothing to reuse.
    }
    return offsets;
}

/// True when the block's header and payload equal a reference block's at the
/// same offset.  The container side is in bounds by construction of the
/// directory; the reference side is checked before the compare.
bool matches_reference(std::span<const std::uint8_t> container, const BlockInfo& info,
                       std::span<const std::uint8_t> reference,
                       const std::vector<std::size_t>& offsets) {
    const std::size_t len = 17 + std::size_t{info.comp_size};
    return std::binary_search(offsets.begin(), offsets.end(), info.offset) &&
           info.offset + len <= reference.size() &&
           std::memcmp(container.data() + info.offset, reference.data() + info.offset, len) == 0;
}

}  // namespace

RecoveryReport frost_recover(std::span<const std::uint8_t> container,
                             std::vector<std::uint8_t>* salvaged,
                             std::span<const std::uint8_t> reference) {
    RecoveryReport report;
    std::vector<BlockInfo> dir;
    try {
        dir = frost_block_directory(container);
    } catch (const core::CorruptData&) {
        report.directory_damaged = true;
        dir = rescan_for_blocks(container);
    }
    report.total_blocks = dir.size();
    const std::vector<std::size_t> ref_offsets =
        salvaged == nullptr ? reference_offsets(reference) : std::vector<std::size_t>{};

    for (std::size_t i = 0; i < dir.size(); ++i) {
        if (matches_reference(container, dir[i], reference, ref_offsets)) {
            report.salvaged_bytes += dir[i].orig_size;
            continue;
        }
        try {
            const std::vector<std::uint8_t> block = frost_decode_block(container, dir[i]);
            report.salvaged_bytes += block.size();
            if (salvaged != nullptr) salvaged->insert(salvaged->end(), block.begin(), block.end());
        } catch (const core::CorruptData&) {
            report.corrupt_blocks.push_back(i);
            report.lost_bytes += dir[i].orig_size;
        }
    }
    return report;
}

}  // namespace zerodeg::workload
