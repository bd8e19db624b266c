#include "experiment/shard_protocol.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace zerodeg::experiment {

namespace {

constexpr std::string_view kMagic = "zdsp1";

std::string hex16(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t parse_hex(const std::string& field) {
    if (field.empty() || field[0] == '-' || field[0] == '+') {
        throw core::CorruptData("frame: expected a hex word, got '" + field + "'");
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(field.c_str(), &end, 16);
    if (end != field.c_str() + field.size() || errno == ERANGE) {
        throw core::CorruptData("frame: expected a hex word, got '" + field + "'");
    }
    return v;
}

std::uint64_t parse_u64(const std::string& field, const char* what) {
    if (field.empty() || field[0] == '-' || field[0] == '+') {
        throw core::CorruptData(std::string("frame: bad ") + what + " '" + field + "'");
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(field.c_str(), &end, 10);
    if (end != field.c_str() + field.size() || errno == ERANGE) {
        throw core::CorruptData(std::string("frame: bad ") + what + " '" + field + "'");
    }
    return v;
}

/// payload -> "payload <fnv1a-hex16>", the same sealing journal records use.
std::string seal(const std::string& payload) {
    return payload + ' ' + hex16(core::fnv1a(payload));
}

}  // namespace

const char* to_string(FrameType type) {
    switch (type) {
        case FrameType::kHello: return "hello";
        case FrameType::kWelcome: return "welcome";
        case FrameType::kReject: return "reject";
        case FrameType::kCell: return "cell";
        case FrameType::kAck: return "ack";
        case FrameType::kLease: return "lease";
        case FrameType::kHeartbeat: return "heartbeat";
        case FrameType::kProgress: return "progress";
        case FrameType::kDone: return "done";
    }
    return "?";
}

std::string encode_hello(const ShardHello& hello) {
    std::ostringstream out;
    out << kMagic << " hello " << hello.key.base_seed << ' ' << hex16(hello.key.config_hash)
        << ' ' << hello.key.cells << ' ' << hello.worker;
    return seal(out.str());
}

std::string encode_welcome(std::size_t completed) {
    return seal(std::string(kMagic) + " welcome " + std::to_string(completed));
}

std::string encode_reject(std::string_view reason) {
    return seal(std::string(kMagic) + " reject " + std::string(reason));
}

std::string encode_cell(std::size_t index, const FaultCensus& census) {
    return seal(std::string(kMagic) + " cell " + encode_cell_record(index, census));
}

std::string encode_ack(std::size_t index) {
    return seal(std::string(kMagic) + " ack " + std::to_string(index));
}

std::string encode_lease(const Lease& lease) {
    if (lease.cells.empty()) {
        throw core::InvalidArgument("a lease must cover at least one cell");
    }
    std::ostringstream out;
    out << kMagic << " lease " << lease.id << ' ' << lease.deadline_ops << ' '
        << lease.cells.size();
    for (const std::size_t cell : lease.cells) out << ' ' << cell;
    return seal(out.str());
}

std::string encode_heartbeat(std::uint64_t lease_id) {
    return seal(std::string(kMagic) + " heartbeat " + std::to_string(lease_id));
}

std::string encode_progress(std::uint64_t lease_id, std::size_t done, std::size_t of) {
    return seal(std::string(kMagic) + " progress " + std::to_string(lease_id) + ' ' +
                std::to_string(done) + ' ' + std::to_string(of));
}

std::string encode_done(std::size_t completed, std::size_t quarantined) {
    return seal(std::string(kMagic) + " done " + std::to_string(completed) + ' ' +
                std::to_string(quarantined));
}

Frame decode_frame(std::string_view bytes) {
    const std::string row(bytes);
    const std::size_t sep = row.rfind(' ');
    if (sep == std::string::npos) {
        throw core::CorruptData("malformed frame '" + row + "' (no checksum)");
    }
    const std::string payload = row.substr(0, sep);
    if (core::fnv1a(payload) != parse_hex(row.substr(sep + 1))) {
        throw core::CorruptData("frame checksum mismatch on '" + row + "'");
    }

    std::istringstream ss(payload);
    std::string magic, type;
    ss >> magic >> type;
    if (magic != kMagic) {
        throw core::CorruptData("unknown frame magic '" + magic +
                                "' (speaking a different protocol version?)");
    }

    Frame frame;
    const auto no_trailing = [&] {
        std::string junk;
        if (ss >> junk) {
            throw core::CorruptData("trailing junk '" + junk + "' in " + type + " frame");
        }
    };
    const auto next = [&](const char* what) {
        std::string token;
        if (!(ss >> token)) {
            throw core::CorruptData(std::string("truncated ") + type + " frame (missing " +
                                    what + ")");
        }
        return token;
    };

    if (type == "hello") {
        frame.type = FrameType::kHello;
        frame.hello.key.base_seed = parse_u64(next("base_seed"), "base_seed");
        frame.hello.key.config_hash = parse_hex(next("config_hash"));
        frame.hello.key.cells = static_cast<std::size_t>(parse_u64(next("cells"), "cells"));
        frame.hello.worker = static_cast<std::size_t>(parse_u64(next("worker"), "worker"));
        no_trailing();
    } else if (type == "welcome") {
        frame.type = FrameType::kWelcome;
        frame.completed = static_cast<std::size_t>(parse_u64(next("completed"), "completed"));
        no_trailing();
    } else if (type == "reject") {
        frame.type = FrameType::kReject;
        // The reason is free text: everything after "zdsp1 reject ".
        const std::string prefix = std::string(kMagic) + " reject ";
        frame.reason = payload.size() > prefix.size() ? payload.substr(prefix.size()) : "";
    } else if (type == "cell") {
        frame.type = FrameType::kCell;
        // The embedded record line is the journal's own checksummed format;
        // decode_cell_record re-verifies it independently of the frame seal.
        const std::string prefix = std::string(kMagic) + " cell ";
        if (payload.size() <= prefix.size()) {
            throw core::CorruptData("truncated cell frame (no record)");
        }
        frame.cell = decode_cell_record(payload.substr(prefix.size()));
    } else if (type == "ack") {
        frame.type = FrameType::kAck;
        frame.ack_index = static_cast<std::size_t>(parse_u64(next("index"), "index"));
        no_trailing();
    } else if (type == "lease") {
        frame.type = FrameType::kLease;
        frame.lease.id = parse_u64(next("id"), "id");
        frame.lease.deadline_ops = parse_u64(next("deadline_ops"), "deadline_ops");
        const auto count = static_cast<std::size_t>(parse_u64(next("count"), "count"));
        if (count == 0) {
            throw core::CorruptData("lease frame grants zero cells");
        }
        frame.lease.cells.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            const auto cell = static_cast<std::size_t>(parse_u64(next("cell"), "cell"));
            if (!frame.lease.cells.empty() && cell <= frame.lease.cells.back()) {
                throw core::CorruptData("lease frame cells not strictly ascending");
            }
            frame.lease.cells.push_back(cell);
        }
        no_trailing();
    } else if (type == "heartbeat") {
        frame.type = FrameType::kHeartbeat;
        frame.lease_id = parse_u64(next("lease_id"), "lease_id");
        no_trailing();
    } else if (type == "progress") {
        frame.type = FrameType::kProgress;
        frame.lease_id = parse_u64(next("lease_id"), "lease_id");
        frame.progress_done = static_cast<std::size_t>(parse_u64(next("done"), "done"));
        frame.progress_of = static_cast<std::size_t>(parse_u64(next("of"), "of"));
        no_trailing();
        if (frame.progress_done > frame.progress_of) {
            throw core::CorruptData("progress frame reports " +
                                    std::to_string(frame.progress_done) + "/" +
                                    std::to_string(frame.progress_of) + " cells");
        }
    } else if (type == "done") {
        frame.type = FrameType::kDone;
        frame.completed = static_cast<std::size_t>(parse_u64(next("completed"), "completed"));
        frame.quarantined =
            static_cast<std::size_t>(parse_u64(next("quarantined"), "quarantined"));
        no_trailing();
    } else {
        throw core::CorruptData("unknown frame type '" + type + "'");
    }
    return frame;
}

}  // namespace zerodeg::experiment
