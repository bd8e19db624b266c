// frost::BlockCompressor — the bzip2 stand-in.
//
// Like bzip2, frost compresses independent blocks, each carrying its own
// CRC of the original data; unlike bzip2 it uses RLE + canonical Huffman
// instead of BWT+MTF+Huffman (ratio is not the point — the *block structure*
// is, because Section 4.2.2's forensics depend on it: a single flipped bit
// corrupts exactly one of ~396 blocks and the rest remain recoverable).
//
// Container layout (all integers little-endian):
//   "FZ01"            4-byte stream magic
//   u32 block_count
//   u32 block_size    nominal uncompressed block size
//   then per block:
//     u32 0xB10CB10C  block magic (what recovery scans for)
//     u32 orig_size
//     u32 comp_size
//     u32 crc32       CRC-32 of the ORIGINAL block bytes
//     u8  method      0 = stored, 1 = RLE+Huffman
//     comp_size bytes of payload
//   A method-1 payload is the 257-byte code-length table (bytes, then EOB)
//   followed by the canonical codes MSB-first, zero-padded to a byte.
//
// The encoder makes one pass per block: RLE into a scratch buffer reused by
// every block, counting the symbol histogram as it goes; code lengths by the
// two-queue Huffman merge; the payload size from Sum(freq * length), so the
// stored/Huffman choice needs no trial encode; then the codes go straight
// into the container through a 64-bit accumulator.  Each LoadJob builds its
// reference container this way once, so the encoder is on the archive
// workload's setup path.  Its output is pinned byte for byte
// (GoldenClaims.LoadJobReferenceBytes, and test_compressor's per-symbol
// reference encoder).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace zerodeg::workload {

struct CompressorConfig {
    std::size_t block_size = 16 * 1024;
};

struct BlockInfo {
    std::size_t offset = 0;     ///< of the block header in the container
    std::uint32_t orig_size = 0;
    std::uint32_t comp_size = 0;
    std::uint32_t crc = 0;
    std::uint8_t method = 0;
};

/// Compress `data` into a frost container.
[[nodiscard]] std::vector<std::uint8_t> frost_compress(std::span<const std::uint8_t> data,
                                                       CompressorConfig config = {});

/// Decompress a container; throws CorruptData on any structural or CRC
/// failure (bad magic, short payload, CRC mismatch).
[[nodiscard]] std::vector<std::uint8_t> frost_decompress(std::span<const std::uint8_t> container);

/// Parse the block directory without decompressing payloads.
[[nodiscard]] std::vector<BlockInfo> frost_block_directory(
    std::span<const std::uint8_t> container);

/// Decode and CRC-check one block (throws CorruptData if it is damaged or
/// `info` claims bytes past the end of `container`).
/// This is the primitive the recovery utility is built on.
[[nodiscard]] std::vector<std::uint8_t> frost_decode_block(
    std::span<const std::uint8_t> container, const BlockInfo& info);

/// Number of blocks a data size maps to under `config`.
[[nodiscard]] std::size_t frost_block_count(std::size_t data_size, CompressorConfig config = {});

// --- internals, exposed for the unit/property tests ------------------------
namespace frost_detail {

/// RLE output bound per input byte: a lone escape byte is coded as three.
inline constexpr std::size_t kRleMaxExpansion = 3;

/// Escape-coded run-length encoding (runs of >= 4 bytes) of `data` into
/// `out`, which has room for kRleMaxExpansion * data.size() bytes.  Every
/// emitted byte is also counted into `freq[0..255]`: that is the histogram
/// the Huffman stage needs, so it costs no second pass.  Returns the
/// encoded length.
[[nodiscard]] std::size_t rle_encode_counting(std::span<const std::uint8_t> data,
                                              std::uint8_t* out, std::uint64_t* freq);
[[nodiscard]] std::vector<std::uint8_t> rle_decode(std::span<const std::uint8_t> data);

/// MSB-first bit reader over a Huffman payload (the encoder writes its bits
/// straight into the container; see frost_compress).
class BitReader {
public:
    explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}
    /// Read one bit; throws CorruptData past the end.
    [[nodiscard]] int bit();
    [[nodiscard]] bool exhausted() const;

    /// Expose up to `want` upcoming bits MSB-first without consuming them
    /// (refilling the internal buffer as needed); returns how many are
    /// actually available — fewer than `want` only near end of stream.
    /// `want` must be in [1, 32].
    [[nodiscard]] int peek(int want, std::uint32_t& window);
    /// Consume bits previously exposed by peek (count <= its return value).
    void consume(int count) { buf_bits_ -= count; }

private:
    void fill();

    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;       ///< next unread byte
    std::uint64_t buf_ = 0;     ///< up to 64 buffered bits, MSB-first order
    int buf_bits_ = 0;
};

/// Huffman code lengths for the given symbol frequencies (0 frequency =>
/// length 0 / absent).  At least one symbol must have nonzero frequency.
/// Built by the two-queue merge, which yields the same tree as a min-heap
/// keyed on (weight, creation index).
[[nodiscard]] std::vector<std::uint8_t> huffman_code_lengths(std::span<const std::uint64_t> freq);

/// Canonical codes from lengths (symbols with length 0 get no code).
[[nodiscard]] std::vector<std::uint32_t> canonical_codes(
    const std::vector<std::uint8_t>& lengths);

}  // namespace frost_detail

}  // namespace zerodeg::workload
