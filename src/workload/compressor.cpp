#include "workload/compressor.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "core/error.hpp"
#include "workload/crc32.hpp"

namespace zerodeg::workload {

namespace frost_detail {

namespace {
constexpr std::uint8_t kEsc = 0xf7;
constexpr std::size_t kMinRun = 4;
}  // namespace

std::size_t rle_encode_counting(std::span<const std::uint8_t> data, std::uint8_t* out,
                               std::uint64_t* freq) {
    std::uint8_t* const begin = out;
    const auto emit = [&out, freq](std::uint8_t v) {
        *out++ = v;
        ++freq[v];
    };
    const std::size_t n = data.size();
    std::size_t i = 0;
    while (i < n) {
        const std::uint8_t b = data[i];
        // Most bytes of source text start no run and are not the escape.
        if (b != kEsc && (i + 1 == n || data[i + 1] != b)) {
            emit(b);
            ++i;
            continue;
        }
        // Longest encodable run: count byte 255 => 255 + kMinRun - 1 bytes.
        const std::size_t limit = std::min(n - i, std::size_t{254} + kMinRun);
        std::size_t run = 1;
        while (run < limit && data[i + run] == b) ++run;
        if (run >= kMinRun) {
            emit(kEsc);
            emit(b);
            emit(static_cast<std::uint8_t>(run - kMinRun + 1));  // 1..255
            i += run;
        } else if (b == kEsc) {
            // Escaped literal escape byte: run field 0.
            emit(kEsc);
            emit(kEsc);
            emit(0);
            ++i;
        } else {
            emit(b);
            ++i;
        }
    }
    return static_cast<std::size_t>(out - begin);
}

std::vector<std::uint8_t> rle_decode(std::span<const std::uint8_t> data) {
    std::vector<std::uint8_t> out;
    out.reserve(data.size());
    std::size_t i = 0;
    while (i < data.size()) {
        const std::uint8_t b = data[i];
        if (b == kEsc) {
            if (i + 2 >= data.size()) throw core::CorruptData("rle: truncated escape");
            const std::uint8_t value = data[i + 1];
            const std::uint8_t count = data[i + 2];
            if (count == 0) {
                if (value != kEsc) throw core::CorruptData("rle: bad literal escape");
                out.push_back(kEsc);
            } else {
                out.insert(out.end(), count + kMinRun - 1, value);
            }
            i += 3;
        } else {
            out.push_back(b);
            ++i;
        }
    }
    return out;
}

void BitReader::fill() {
    while (buf_bits_ <= 56 && pos_ < bytes_.size()) {
        buf_ = (buf_ << 8) | bytes_[pos_++];
        buf_bits_ += 8;
    }
}

int BitReader::bit() {
    if (buf_bits_ == 0) {
        fill();
        if (buf_bits_ == 0) throw core::CorruptData("BitReader: out of data");
    }
    --buf_bits_;
    return static_cast<int>((buf_ >> buf_bits_) & 1u);
}

int BitReader::peek(int want, std::uint32_t& window) {
    if (want < 1 || want > 32) throw core::InvalidArgument("BitReader::peek: bad want");
    if (buf_bits_ < want) fill();
    const int have = std::min(want, buf_bits_);
    window = have == 0 ? 0
                       : static_cast<std::uint32_t>((buf_ >> (buf_bits_ - have)) &
                                                    ((1ull << have) - 1));
    return have;
}

bool BitReader::exhausted() const { return pos_ >= bytes_.size() && buf_bits_ == 0; }

std::vector<std::uint8_t> huffman_code_lengths(std::span<const std::uint64_t> freq) {
    // Two-queue merge.  Leaves sorted by (weight, symbol) form one queue;
    // merged nodes are born in nondecreasing weight order, so they form the
    // other.  Taking the lighter front each time — a leaf on a tie, as it
    // was created first — pops exactly what a min-heap keyed on (weight,
    // creation index) pops, so the tree and its code lengths are the same.
    std::vector<std::uint32_t> leaves;  // symbols, then sorted by weight
    for (std::size_t s = 0; s < freq.size(); ++s) {
        if (freq[s] != 0) leaves.push_back(static_cast<std::uint32_t>(s));
    }
    if (leaves.empty()) throw core::InvalidArgument("huffman_code_lengths: no symbols");

    std::vector<std::uint8_t> lengths(freq.size(), 0);
    const std::size_t n = leaves.size();
    if (n == 1) {
        lengths[leaves[0]] = 1;
        return lengths;
    }
    std::stable_sort(leaves.begin(), leaves.end(),
                     [&freq](std::uint32_t a, std::uint32_t b) { return freq[a] < freq[b]; });

    // Nodes [0, n) are the sorted leaves, [n, 2n - 1) the merged nodes in
    // creation order; the root is the last.
    std::vector<std::uint64_t> weight(2 * n - 1);
    std::vector<std::uint32_t> parent(2 * n - 1);
    for (std::size_t k = 0; k < n; ++k) weight[k] = freq[leaves[k]];
    std::size_t next_leaf = 0;
    std::size_t next_merged = n;
    const auto take = [&](std::size_t born) {
        if (next_leaf < n && (next_merged == born || weight[next_leaf] <= weight[next_merged])) {
            return next_leaf++;
        }
        return next_merged++;
    };
    for (std::size_t node = n; node < 2 * n - 1; ++node) {
        const std::size_t a = take(node);
        const std::size_t b = take(node);
        weight[node] = weight[a] + weight[b];
        parent[a] = parent[b] = static_cast<std::uint32_t>(node);
    }
    // Depths root-down: every parent was created after its children.
    std::vector<std::uint32_t> depth(2 * n - 1, 0);
    for (std::size_t k = 2 * n - 2; k-- > 0;) depth[k] = depth[parent[k]] + 1;
    for (std::size_t k = 0; k < n; ++k) {
        lengths[leaves[k]] = static_cast<std::uint8_t>(depth[k]);
    }
    return lengths;
}

std::vector<std::uint32_t> canonical_codes(const std::vector<std::uint8_t>& lengths) {
    int max_len = 0;
    for (const std::uint8_t l : lengths) max_len = std::max(max_len, static_cast<int>(l));
    if (max_len > 32) throw core::InvalidArgument("canonical_codes: code too long");

    std::vector<std::uint32_t> length_count(static_cast<std::size_t>(max_len) + 1, 0);
    for (const std::uint8_t l : lengths) {
        if (l > 0) ++length_count[l];
    }
    std::vector<std::uint32_t> next_code(static_cast<std::size_t>(max_len) + 1, 0);
    std::uint32_t code = 0;
    for (int len = 1; len <= max_len; ++len) {
        code = (code + length_count[static_cast<std::size_t>(len) - 1]) << 1;
        next_code[static_cast<std::size_t>(len)] = code;
    }
    std::vector<std::uint32_t> codes(lengths.size(), 0);
    for (std::size_t s = 0; s < lengths.size(); ++s) {
        if (lengths[s] > 0) codes[s] = next_code[lengths[s]]++;
    }
    return codes;
}

namespace {

constexpr std::size_t kSymbols = 257;  // 256 byte values + EOB
constexpr std::uint32_t kEob = 256;

/// Canonical decoder: per-length first-code / first-symbol-index tables,
/// fronted by a primary lookup table that resolves codes of up to
/// kPrimaryBits in a single indexed load.  decode() consumes exactly the
/// bits the per-bit reference loop would and throws the same CorruptData
/// classifications (out-of-data vs invalid-code), so damaged blocks fail
/// identically — only faster.
class CanonicalDecoder {
public:
    explicit CanonicalDecoder(const std::vector<std::uint8_t>& lengths) {
        int max_len = 0;
        for (const std::uint8_t l : lengths) max_len = std::max(max_len, static_cast<int>(l));
        if (max_len == 0) throw core::CorruptData("huffman: empty code table");
        if (max_len > 32) throw core::CorruptData("huffman: oversized code length");
        max_len_ = max_len;
        first_code_.assign(static_cast<std::size_t>(max_len) + 1, 0);
        first_index_.assign(static_cast<std::size_t>(max_len) + 1, 0);
        count_.assign(static_cast<std::size_t>(max_len) + 1, 0);

        // Symbols sorted by (length, symbol) — canonical order.
        for (std::size_t s = 0; s < lengths.size(); ++s) {
            if (lengths[s] > 0) ++count_[lengths[s]];
        }
        std::uint32_t code = 0;
        std::uint32_t index = 0;
        for (int len = 1; len <= max_len; ++len) {
            code = (code + count_[static_cast<std::size_t>(len) - 1]) << 1;
            first_code_[static_cast<std::size_t>(len)] = code;
            first_index_[static_cast<std::size_t>(len)] = index;
            index += count_[static_cast<std::size_t>(len)];
        }
        symbols_by_code_.reserve(index);
        for (int len = 1; len <= max_len; ++len) {
            for (std::size_t s = 0; s < lengths.size(); ++s) {
                if (lengths[s] == len) symbols_by_code_.push_back(static_cast<std::uint32_t>(s));
            }
        }

        // Primary table: every kPrimaryBits-wide window whose leading bits
        // form a code of length <= kPrimaryBits maps straight to (symbol,
        // length).  Filled longest-length first so that with an
        // oversubscribed (corrupt) table, the SHORTEST matching code wins a
        // contested window — the same tie-break the reference scan applies.
        primary_bits_ = std::min(max_len_, kPrimaryBits);
        primary_.assign(std::size_t{1} << primary_bits_, PrimaryEntry{});
        for (int len = primary_bits_; len >= 1; --len) {
            const std::uint32_t n = count_[static_cast<std::size_t>(len)];
            for (std::uint32_t c = 0; c < n; ++c) {
                const std::uint32_t entry_code = first_code_[static_cast<std::size_t>(len)] + c;
                if (entry_code >= (std::uint32_t{1} << len)) break;  // corrupt oversubscribed table
                const std::uint32_t sym =
                    symbols_by_code_[first_index_[static_cast<std::size_t>(len)] + c];
                const int pad = primary_bits_ - len;
                const std::size_t base = std::size_t{entry_code} << pad;
                for (std::size_t f = 0; f < (std::size_t{1} << pad); ++f) {
                    primary_[base + f] = {static_cast<std::uint16_t>(sym),
                                          static_cast<std::uint8_t>(len)};
                }
            }
        }
    }

    [[nodiscard]] std::uint32_t decode(BitReader& reader) const {
        std::uint32_t window = 0;
        const int have = reader.peek(max_len_, window);
        if (have >= primary_bits_) {
            const PrimaryEntry e =
                primary_[window >> (have - primary_bits_)];
            if (e.length != 0) {
                reader.consume(e.length);
                return e.symbol;
            }
        }
        // Slow path: codes longer than the primary table, or a short tail.
        // Identical match order to the per-bit reference: shortest length
        // that covers the window wins.
        for (int len = 1; len <= have; ++len) {
            const std::uint32_t code = window >> (have - len);
            const std::uint32_t first = first_code_[static_cast<std::size_t>(len)];
            const std::uint32_t n = count_[static_cast<std::size_t>(len)];
            if (n > 0 && code >= first && code < first + n) {
                reader.consume(len);
                return symbols_by_code_[first_index_[static_cast<std::size_t>(len)] +
                                        (code - first)];
            }
        }
        // No match in the available bits: the reference loop would have
        // consumed them and asked for one more (out of data), or — with all
        // max_len_ bits in hand — declared the code invalid.
        if (have < max_len_) throw core::CorruptData("BitReader: out of data");
        throw core::CorruptData("huffman: invalid code in stream");
    }

private:
    static constexpr int kPrimaryBits = 11;

    struct PrimaryEntry {
        std::uint16_t symbol = 0;
        std::uint8_t length = 0;  ///< 0 = no code this short for the window
    };

    int max_len_ = 0;
    int primary_bits_ = 0;
    std::vector<std::uint32_t> first_code_;
    std::vector<std::uint32_t> first_index_;
    std::vector<std::uint32_t> count_;
    std::vector<std::uint32_t> symbols_by_code_;
    std::vector<PrimaryEntry> primary_;
};

/// Write the RLE symbols and the EOB as canonical codes, MSB-first, straight
/// into `dst`, which has room for exactly ceil(total code bits / 8) bytes.
/// Codes gather in a 64-bit accumulator and leave it 32 bits at a time: at
/// most 31 bits wait between puts and a code is at most 32 bits long.
void write_codes(std::span<const std::uint8_t> rle, const std::vector<std::uint8_t>& lengths,
                 const std::vector<std::uint32_t>& codes, std::uint8_t* dst) {
    std::uint64_t acc = 0;
    int pending = 0;
    const auto put = [&](std::size_t symbol) {
        acc = (acc << lengths[symbol]) | codes[symbol];
        pending += lengths[symbol];
        if (pending >= 32) {
            pending -= 32;
            const auto word = static_cast<std::uint32_t>(acc >> pending);
            dst[0] = static_cast<std::uint8_t>(word >> 24);
            dst[1] = static_cast<std::uint8_t>(word >> 16);
            dst[2] = static_cast<std::uint8_t>(word >> 8);
            dst[3] = static_cast<std::uint8_t>(word);
            dst += 4;
        }
    };
    for (const std::uint8_t b : rle) put(b);
    put(kEob);
    while (pending >= 8) {
        pending -= 8;
        *dst++ = static_cast<std::uint8_t>(acc >> pending);
    }
    if (pending > 0) *dst = static_cast<std::uint8_t>(acc << (8 - pending));
}

std::vector<std::uint8_t> huffman_decode_block(std::span<const std::uint8_t> payload,
                                               std::size_t expected_rle_max) {
    if (payload.size() < kSymbols) throw core::CorruptData("frost: payload shorter than table");
    const std::vector<std::uint8_t> lengths(payload.begin(), payload.begin() + kSymbols);
    const CanonicalDecoder decoder(lengths);
    BitReader reader(payload.subspan(kSymbols));
    std::vector<std::uint8_t> rle;
    rle.reserve(expected_rle_max);
    for (;;) {
        const std::uint32_t sym = decoder.decode(reader);
        if (sym == kEob) break;
        if (rle.size() > expected_rle_max) throw core::CorruptData("frost: block overruns");
        rle.push_back(static_cast<std::uint8_t>(sym));
    }
    return rle;
}

}  // namespace

}  // namespace frost_detail

namespace {

constexpr char kStreamMagic[4] = {'F', 'Z', '0', '1'};
constexpr std::uint32_t kBlockMagic = 0xb10cb10cu;
constexpr std::size_t kStreamHeaderBytes = 12;  ///< magic, block count, block size
constexpr std::size_t kBlockHeaderBytes = 17;   ///< magic, sizes, CRC, method

void store_u32(std::uint8_t* p, std::uint32_t v) {
    p[0] = static_cast<std::uint8_t>(v & 0xff);
    p[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
    p[2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
    p[3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
}

std::uint32_t get_u32(std::span<const std::uint8_t> bytes, std::size_t off) {
    if (off + 4 > bytes.size()) throw core::CorruptData("frost: truncated integer");
    return static_cast<std::uint32_t>(bytes[off]) |
           static_cast<std::uint32_t>(bytes[off + 1]) << 8 |
           static_cast<std::uint32_t>(bytes[off + 2]) << 16 |
           static_cast<std::uint32_t>(bytes[off + 3]) << 24;
}

/// Append one block — header and payload — to the container `out`.  The
/// RLE pass counts the histogram, Sum(freq * length) sizes the Huffman
/// payload, and only the method that wins is written: stored when the
/// Huffman payload would not be smaller than the block.
void append_block(std::span<const std::uint8_t> block, std::vector<std::uint8_t>& rle_scratch,
                  std::vector<std::uint8_t>& out) {
    using frost_detail::kEob;
    using frost_detail::kSymbols;
    std::array<std::uint64_t, kSymbols> freq{};
    rle_scratch.resize(frost_detail::kRleMaxExpansion * block.size());
    const std::span<const std::uint8_t> rle(
        rle_scratch.data(),
        frost_detail::rle_encode_counting(block, rle_scratch.data(), freq.data()));
    freq[kEob] = 1;
    const std::vector<std::uint8_t> lengths = frost_detail::huffman_code_lengths(freq);
    const std::vector<std::uint32_t> codes = frost_detail::canonical_codes(lengths);
    std::uint64_t code_bits = 0;
    for (std::size_t s = 0; s < kSymbols; ++s) code_bits += freq[s] * lengths[s];
    const std::size_t huffman_bytes = kSymbols + static_cast<std::size_t>((code_bits + 7) / 8);
    const bool stored = huffman_bytes >= block.size();
    const std::size_t payload = stored ? block.size() : huffman_bytes;

    const std::size_t at = out.size();
    out.resize(at + kBlockHeaderBytes + payload);
    std::uint8_t* p = out.data() + at;
    store_u32(p, kBlockMagic);
    store_u32(p + 4, static_cast<std::uint32_t>(block.size()));
    store_u32(p + 8, static_cast<std::uint32_t>(payload));
    store_u32(p + 12, crc32(block));
    p[16] = stored ? 0 : 1;
    p += kBlockHeaderBytes;
    if (stored) {
        std::memcpy(p, block.data(), block.size());
    } else {
        std::memcpy(p, lengths.data(), kSymbols);  // the 257-byte length table
        frost_detail::write_codes(rle, lengths, codes, p + kSymbols);
    }
}

}  // namespace

std::size_t frost_block_count(std::size_t data_size, CompressorConfig config) {
    if (config.block_size == 0) throw core::InvalidArgument("frost: zero block size");
    return data_size == 0 ? 0 : (data_size + config.block_size - 1) / config.block_size;
}

std::vector<std::uint8_t> frost_compress(std::span<const std::uint8_t> data,
                                         CompressorConfig config) {
    const std::size_t blocks = frost_block_count(data.size(), config);
    std::vector<std::uint8_t> out(kStreamHeaderBytes);
    std::memcpy(out.data(), kStreamMagic, sizeof kStreamMagic);
    store_u32(out.data() + 4, static_cast<std::uint32_t>(blocks));
    store_u32(out.data() + 8, static_cast<std::uint32_t>(config.block_size));

    std::vector<std::uint8_t> rle_scratch;  // reused by every block
    for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t off = b * config.block_size;
        append_block(data.subspan(off, std::min(config.block_size, data.size() - off)),
                     rle_scratch, out);
    }
    return out;
}

std::vector<BlockInfo> frost_block_directory(std::span<const std::uint8_t> container) {
    if (container.size() < kStreamHeaderBytes ||
        std::memcmp(container.data(), kStreamMagic, sizeof kStreamMagic) != 0) {
        throw core::CorruptData("frost: bad stream magic");
    }
    const std::uint32_t blocks = get_u32(container, 4);
    std::vector<BlockInfo> dir;
    std::size_t off = kStreamHeaderBytes;
    for (std::uint32_t b = 0; b < blocks; ++b) {
        if (get_u32(container, off) != kBlockMagic) {
            throw core::CorruptData("frost: bad block magic");
        }
        BlockInfo info;
        info.offset = off;
        info.orig_size = get_u32(container, off + 4);
        info.comp_size = get_u32(container, off + 8);
        info.crc = get_u32(container, off + 12);
        if (off + kBlockHeaderBytes > container.size()) {
            throw core::CorruptData("frost: truncated header");
        }
        info.method = container[off + 16];
        off += kBlockHeaderBytes;
        if (off + info.comp_size > container.size()) {
            throw core::CorruptData("frost: truncated payload");
        }
        off += info.comp_size;
        dir.push_back(info);
    }
    return dir;
}

std::vector<std::uint8_t> frost_decode_block(std::span<const std::uint8_t> container,
                                             const BlockInfo& info) {
    // A damaged header can claim more payload than the container holds.
    if (info.offset + kBlockHeaderBytes + std::size_t{info.comp_size} > container.size()) {
        throw core::CorruptData("frost: block runs past the container");
    }
    const auto payload = container.subspan(info.offset + kBlockHeaderBytes, info.comp_size);
    std::vector<std::uint8_t> block;
    if (info.method == 0) {
        block.assign(payload.begin(), payload.end());
    } else if (info.method == 1) {
        const std::vector<std::uint8_t> rle =
            frost_detail::huffman_decode_block(payload, 3 * std::size_t{info.orig_size} + 16);
        block = frost_detail::rle_decode(rle);
    } else {
        throw core::CorruptData("frost: unknown method");
    }
    if (block.size() != info.orig_size) throw core::CorruptData("frost: size mismatch");
    if (crc32(block) != info.crc) throw core::CorruptData("frost: block CRC mismatch");
    return block;
}

std::vector<std::uint8_t> frost_decompress(std::span<const std::uint8_t> container) {
    const std::vector<BlockInfo> dir = frost_block_directory(container);
    std::vector<std::uint8_t> out;
    for (const BlockInfo& info : dir) {
        const std::vector<std::uint8_t> block = frost_decode_block(container, info);
        out.insert(out.end(), block.begin(), block.end());
    }
    return out;
}

}  // namespace zerodeg::workload
