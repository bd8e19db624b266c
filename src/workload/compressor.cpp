#include "workload/compressor.hpp"

#include <algorithm>
#include <cstring>
#include <queue>

#include "core/error.hpp"
#include "workload/crc32.hpp"

namespace zerodeg::workload {

namespace frost_detail {

namespace {
constexpr std::uint8_t kEsc = 0xf7;
constexpr std::size_t kMinRun = 4;
}  // namespace

std::vector<std::uint8_t> rle_encode(std::span<const std::uint8_t> data) {
    std::vector<std::uint8_t> out;
    out.reserve(data.size());
    std::size_t i = 0;
    while (i < data.size()) {
        const std::uint8_t b = data[i];
        std::size_t run = 1;
        // Longest encodable run: count byte 255 => 255 + kMinRun - 1 bytes.
        while (i + run < data.size() && data[i + run] == b && run < 254 + kMinRun) ++run;
        if (run >= kMinRun) {
            out.push_back(kEsc);
            out.push_back(b);
            out.push_back(static_cast<std::uint8_t>(run - kMinRun + 1));  // 1..252ish
            i += run;
        } else if (b == kEsc) {
            // Escaped literal escape byte: run field 0.
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

void BitWriter::put(std::uint32_t bits, int count) {
    if (count < 0 || count > 32) throw core::InvalidArgument("BitWriter::put: bad count");
    if (count == 0) return;
    // MSB-first within the given count, appended whole rather than bit by
    // bit; emits the same byte stream as the original single-bit loop.
    const std::uint64_t mask = count == 32 ? 0xffffffffull : (1ull << count) - 1;
    acc_ = (acc_ << count) | (static_cast<std::uint64_t>(bits) & mask);
    acc_bits_ += count;
    while (acc_bits_ >= 8) {
        acc_bits_ -= 8;
        bytes_.push_back(static_cast<std::uint8_t>((acc_ >> acc_bits_) & 0xff));
    }
}

std::vector<std::uint8_t> BitWriter::finish() {
    if (acc_bits_ > 0) {
        bytes_.push_back(static_cast<std::uint8_t>((acc_ << (8 - acc_bits_)) & 0xff));
        acc_ = 0;
        acc_bits_ = 0;
    }
    return std::move(bytes_);
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
    if (nodes.empty()) throw core::InvalidArgument("huffman_code_lengths: no symbols");

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
    // Depth-first depth assignment from the root.
    const int root = heap.top();
    std::vector<std::pair<int, int>> stack{{root, 0}};
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

std::vector<std::uint8_t> huffman_encode_block(std::span<const std::uint8_t> rle) {
    std::vector<std::uint64_t> freq(kSymbols, 0);
    for (const std::uint8_t b : rle) ++freq[b];
    freq[kEob] = 1;
    const std::vector<std::uint8_t> lengths = huffman_code_lengths(freq);
    const std::vector<std::uint32_t> codes = canonical_codes(lengths);

    std::vector<std::uint8_t> out(lengths.begin(), lengths.end());  // 257-byte table
    BitWriter writer;
    for (const std::uint8_t b : rle) writer.put(codes[b], lengths[b]);
    writer.put(codes[kEob], lengths[kEob]);
    const std::vector<std::uint8_t> bits = writer.finish();
    out.insert(out.end(), bits.begin(), bits.end());
    return out;
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

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    out.push_back(static_cast<std::uint8_t>(v & 0xff));
    out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
    out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
    out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
}

std::uint32_t get_u32(std::span<const std::uint8_t> bytes, std::size_t off) {
    if (off + 4 > bytes.size()) throw core::CorruptData("frost: truncated integer");
    return static_cast<std::uint32_t>(bytes[off]) |
           static_cast<std::uint32_t>(bytes[off + 1]) << 8 |
           static_cast<std::uint32_t>(bytes[off + 2]) << 16 |
           static_cast<std::uint32_t>(bytes[off + 3]) << 24;
}

}  // namespace

std::size_t frost_block_count(std::size_t data_size, CompressorConfig config) {
    if (config.block_size == 0) throw core::InvalidArgument("frost: zero block size");
    return data_size == 0 ? 0 : (data_size + config.block_size - 1) / config.block_size;
}

std::vector<std::uint8_t> frost_compress(std::span<const std::uint8_t> data,
                                         CompressorConfig config) {
    const std::size_t blocks = frost_block_count(data.size(), config);
    std::vector<std::uint8_t> out;
    // Byte-wise append: gcc 12's -Wstringop-overflow misfires on the
    // char* range insert into a freshly-allocated vector.
    for (const char c : kStreamMagic) out.push_back(static_cast<std::uint8_t>(c));
    put_u32(out, static_cast<std::uint32_t>(blocks));
    put_u32(out, static_cast<std::uint32_t>(config.block_size));

    for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t off = b * config.block_size;
        const std::size_t len = std::min(config.block_size, data.size() - off);
        const auto block = data.subspan(off, len);

        const std::vector<std::uint8_t> rle = frost_detail::rle_encode(block);
        std::vector<std::uint8_t> payload = frost_detail::huffman_encode_block(rle);
        std::uint8_t method = 1;
        if (payload.size() >= len) {
            payload.assign(block.begin(), block.end());
            method = 0;
        }

        put_u32(out, kBlockMagic);
        put_u32(out, static_cast<std::uint32_t>(len));
        put_u32(out, static_cast<std::uint32_t>(payload.size()));
        put_u32(out, crc32(block));
        out.push_back(method);
        out.insert(out.end(), payload.begin(), payload.end());
    }
    return out;
}

std::vector<BlockInfo> frost_block_directory(std::span<const std::uint8_t> container) {
    if (container.size() < 12 || std::memcmp(container.data(), kStreamMagic, 4) != 0) {
        throw core::CorruptData("frost: bad stream magic");
    }
    const std::uint32_t blocks = get_u32(container, 4);
    std::vector<BlockInfo> dir;
    std::size_t off = 12;
    for (std::uint32_t b = 0; b < blocks; ++b) {
        if (get_u32(container, off) != kBlockMagic) {
            throw core::CorruptData("frost: bad block magic");
        }
        BlockInfo info;
        info.offset = off;
        info.orig_size = get_u32(container, off + 4);
        info.comp_size = get_u32(container, off + 8);
        info.crc = get_u32(container, off + 12);
        if (off + 17 > container.size()) throw core::CorruptData("frost: truncated header");
        info.method = container[off + 16];
        off += 17;
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
    if (info.offset + 17 + std::size_t{info.comp_size} > container.size()) {
        throw core::CorruptData("frost: block runs past the container");
    }
    const auto payload = container.subspan(info.offset + 17, info.comp_size);
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
