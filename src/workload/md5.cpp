#include "workload/md5.hpp"

#include <cstring>

#include "core/error.hpp"

namespace zerodeg::workload {

namespace {

constexpr std::uint32_t kInit[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};

constexpr std::uint32_t rotl(std::uint32_t x, int c) { return (x << c) | (x >> (32 - c)); }

// One step per round function: a = b + ((a + f(b, c, d) + x + k) <<< s).
// The 64 steps are spelled out below with their RFC 1321 message index,
// shift and sine constant k = floor(2^32 * |sin(i + 1)|), so no step picks
// its round function or message word at run time.
constexpr std::uint32_t ff(std::uint32_t a, std::uint32_t b, std::uint32_t c, std::uint32_t d,
                           std::uint32_t x, int s, std::uint32_t k) {
    return b + rotl(a + ((b & c) | (~b & d)) + x + k, s);
}
constexpr std::uint32_t gg(std::uint32_t a, std::uint32_t b, std::uint32_t c, std::uint32_t d,
                           std::uint32_t x, int s, std::uint32_t k) {
    return b + rotl(a + ((d & b) | (~d & c)) + x + k, s);
}
constexpr std::uint32_t hh(std::uint32_t a, std::uint32_t b, std::uint32_t c, std::uint32_t d,
                           std::uint32_t x, int s, std::uint32_t k) {
    return b + rotl(a + (b ^ c ^ d) + x + k, s);
}
constexpr std::uint32_t ii(std::uint32_t a, std::uint32_t b, std::uint32_t c, std::uint32_t d,
                           std::uint32_t x, int s, std::uint32_t k) {
    return b + rotl(a + (c ^ (b | ~d)) + x + k, s);
}

}  // namespace

Md5::Md5() { reset(); }

void Md5::reset() {
    state_ = {kInit[0], kInit[1], kInit[2], kInit[3]};
    total_bytes_ = 0;
    buffered_ = 0;
    finalized_ = false;
}

void Md5::process_block(const std::uint8_t* block) {
    std::uint32_t m[16];
    for (int i = 0; i < 16; ++i) {
        m[i] = static_cast<std::uint32_t>(block[i * 4]) |
               static_cast<std::uint32_t>(block[i * 4 + 1]) << 8 |
               static_cast<std::uint32_t>(block[i * 4 + 2]) << 16 |
               static_cast<std::uint32_t>(block[i * 4 + 3]) << 24;
    }
    std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];

    // Round 1: message words in order.
    a = ff(a, b, c, d, m[0], 7, 0xd76aa478u);
    d = ff(d, a, b, c, m[1], 12, 0xe8c7b756u);
    c = ff(c, d, a, b, m[2], 17, 0x242070dbu);
    b = ff(b, c, d, a, m[3], 22, 0xc1bdceeeu);
    a = ff(a, b, c, d, m[4], 7, 0xf57c0fafu);
    d = ff(d, a, b, c, m[5], 12, 0x4787c62au);
    c = ff(c, d, a, b, m[6], 17, 0xa8304613u);
    b = ff(b, c, d, a, m[7], 22, 0xfd469501u);
    a = ff(a, b, c, d, m[8], 7, 0x698098d8u);
    d = ff(d, a, b, c, m[9], 12, 0x8b44f7afu);
    c = ff(c, d, a, b, m[10], 17, 0xffff5bb1u);
    b = ff(b, c, d, a, m[11], 22, 0x895cd7beu);
    a = ff(a, b, c, d, m[12], 7, 0x6b901122u);
    d = ff(d, a, b, c, m[13], 12, 0xfd987193u);
    c = ff(c, d, a, b, m[14], 17, 0xa679438eu);
    b = ff(b, c, d, a, m[15], 22, 0x49b40821u);

    // Round 2: word (5i + 1) mod 16.
    a = gg(a, b, c, d, m[1], 5, 0xf61e2562u);
    d = gg(d, a, b, c, m[6], 9, 0xc040b340u);
    c = gg(c, d, a, b, m[11], 14, 0x265e5a51u);
    b = gg(b, c, d, a, m[0], 20, 0xe9b6c7aau);
    a = gg(a, b, c, d, m[5], 5, 0xd62f105du);
    d = gg(d, a, b, c, m[10], 9, 0x02441453u);
    c = gg(c, d, a, b, m[15], 14, 0xd8a1e681u);
    b = gg(b, c, d, a, m[4], 20, 0xe7d3fbc8u);
    a = gg(a, b, c, d, m[9], 5, 0x21e1cde6u);
    d = gg(d, a, b, c, m[14], 9, 0xc33707d6u);
    c = gg(c, d, a, b, m[3], 14, 0xf4d50d87u);
    b = gg(b, c, d, a, m[8], 20, 0x455a14edu);
    a = gg(a, b, c, d, m[13], 5, 0xa9e3e905u);
    d = gg(d, a, b, c, m[2], 9, 0xfcefa3f8u);
    c = gg(c, d, a, b, m[7], 14, 0x676f02d9u);
    b = gg(b, c, d, a, m[12], 20, 0x8d2a4c8au);

    // Round 3: word (3i + 5) mod 16.
    a = hh(a, b, c, d, m[5], 4, 0xfffa3942u);
    d = hh(d, a, b, c, m[8], 11, 0x8771f681u);
    c = hh(c, d, a, b, m[11], 16, 0x6d9d6122u);
    b = hh(b, c, d, a, m[14], 23, 0xfde5380cu);
    a = hh(a, b, c, d, m[1], 4, 0xa4beea44u);
    d = hh(d, a, b, c, m[4], 11, 0x4bdecfa9u);
    c = hh(c, d, a, b, m[7], 16, 0xf6bb4b60u);
    b = hh(b, c, d, a, m[10], 23, 0xbebfbc70u);
    a = hh(a, b, c, d, m[13], 4, 0x289b7ec6u);
    d = hh(d, a, b, c, m[0], 11, 0xeaa127fau);
    c = hh(c, d, a, b, m[3], 16, 0xd4ef3085u);
    b = hh(b, c, d, a, m[6], 23, 0x04881d05u);
    a = hh(a, b, c, d, m[9], 4, 0xd9d4d039u);
    d = hh(d, a, b, c, m[12], 11, 0xe6db99e5u);
    c = hh(c, d, a, b, m[15], 16, 0x1fa27cf8u);
    b = hh(b, c, d, a, m[2], 23, 0xc4ac5665u);

    // Round 4: word 7i mod 16.
    a = ii(a, b, c, d, m[0], 6, 0xf4292244u);
    d = ii(d, a, b, c, m[7], 10, 0x432aff97u);
    c = ii(c, d, a, b, m[14], 15, 0xab9423a7u);
    b = ii(b, c, d, a, m[5], 21, 0xfc93a039u);
    a = ii(a, b, c, d, m[12], 6, 0x655b59c3u);
    d = ii(d, a, b, c, m[3], 10, 0x8f0ccc92u);
    c = ii(c, d, a, b, m[10], 15, 0xffeff47du);
    b = ii(b, c, d, a, m[1], 21, 0x85845dd1u);
    a = ii(a, b, c, d, m[8], 6, 0x6fa87e4fu);
    d = ii(d, a, b, c, m[15], 10, 0xfe2ce6e0u);
    c = ii(c, d, a, b, m[6], 15, 0xa3014314u);
    b = ii(b, c, d, a, m[13], 21, 0x4e0811a1u);
    a = ii(a, b, c, d, m[4], 6, 0xf7537e82u);
    d = ii(d, a, b, c, m[11], 10, 0xbd3af235u);
    c = ii(c, d, a, b, m[2], 15, 0x2ad7d2bbu);
    b = ii(b, c, d, a, m[9], 21, 0xeb86d391u);

    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
}

void Md5::update(std::span<const std::uint8_t> data) {
    if (finalized_) throw core::InvalidArgument("Md5::update after finalize");
    total_bytes_ += data.size();
    std::size_t offset = 0;
    if (buffered_ > 0) {
        const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
        std::memcpy(buffer_.data() + buffered_, data.data(), take);
        buffered_ += take;
        offset = take;
        if (buffered_ == buffer_.size()) {
            process_block(buffer_.data());
            buffered_ = 0;
        }
    }
    while (offset + 64 <= data.size()) {
        process_block(data.data() + offset);
        offset += 64;
    }
    if (offset < data.size()) {
        std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
        buffered_ = data.size() - offset;
    }
}

void Md5::update(const std::string& s) {
    update(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(s.data()),
                                         s.size()));
}

Md5Digest Md5::finalize() {
    if (finalized_) throw core::InvalidArgument("Md5::finalize called twice");
    const std::uint64_t bit_len = total_bytes_ * 8;

    // Append 0x80, pad with zeros to 56 mod 64, then the 64-bit length (LE).
    std::uint8_t pad[72] = {0x80};
    const std::size_t pad_len =
        (buffered_ < 56) ? 56 - buffered_ : 120 - buffered_;
    update(std::span<const std::uint8_t>(pad, pad_len));
    std::uint8_t len_bytes[8];
    for (int i = 0; i < 8; ++i) {
        len_bytes[i] = static_cast<std::uint8_t>((bit_len >> (8 * i)) & 0xff);
    }
    update(std::span<const std::uint8_t>(len_bytes, 8));

    Md5Digest digest;
    for (int i = 0; i < 4; ++i) {
        digest[i * 4] = static_cast<std::uint8_t>(state_[i] & 0xff);
        digest[i * 4 + 1] = static_cast<std::uint8_t>((state_[i] >> 8) & 0xff);
        digest[i * 4 + 2] = static_cast<std::uint8_t>((state_[i] >> 16) & 0xff);
        digest[i * 4 + 3] = static_cast<std::uint8_t>((state_[i] >> 24) & 0xff);
    }
    finalized_ = true;
    return digest;
}

Md5Digest md5(std::span<const std::uint8_t> data) {
    Md5 h;
    h.update(data);
    return h.finalize();
}

std::string to_hex(const Md5Digest& d) {
    static const char* hex = "0123456789abcdef";
    std::string out;
    out.reserve(32);
    for (const std::uint8_t byte : d) {
        out.push_back(hex[byte >> 4]);
        out.push_back(hex[byte & 0xf]);
    }
    return out;
}

}  // namespace zerodeg::workload
