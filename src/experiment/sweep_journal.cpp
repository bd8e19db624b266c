#include "experiment/sweep_journal.hpp"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/csv.hpp"
#include "core/error.hpp"
#include "core/io.hpp"
#include "core/rng.hpp"

namespace zerodeg::experiment {

namespace {

// v2 widened the record from 17 to 21 integers (traffic-workload fields);
// v1 journals fail the magic check cleanly rather than mis-parse.
constexpr std::string_view kMagic = "zerodeg-sweep-journal v2";
constexpr std::size_t kCensusFields = 21;

/// FaultCensus <-> flat integer record, in declaration order.  The journal
/// stores only these integers; summaries are re-folded from them, which is
/// why a resumed campaign is byte-identical to an uninterrupted one.
std::array<std::uint64_t, kCensusFields> pack(const FaultCensus& c) {
    return {static_cast<std::uint64_t>(c.tent_hosts),
            static_cast<std::uint64_t>(c.basement_hosts),
            static_cast<std::uint64_t>(c.tent_hosts_failed),
            static_cast<std::uint64_t>(c.basement_hosts_failed),
            static_cast<std::uint64_t>(c.system_failures),
            static_cast<std::uint64_t>(c.transient_failures),
            static_cast<std::uint64_t>(c.permanent_failures),
            static_cast<std::uint64_t>(c.sensor_incidents),
            static_cast<std::uint64_t>(c.switch_failures),
            static_cast<std::uint64_t>(c.fan_faults),
            static_cast<std::uint64_t>(c.disk_faults),
            c.load_runs,
            c.wrong_hashes,
            c.wrong_hashes_tent,
            c.wrong_hashes_basement,
            c.page_ops,
            c.page_ops_non_ecc,
            c.requests_completed,
            c.requests_dropped,
            c.deadline_misses,
            c.p99_sojourn_us};
}

FaultCensus unpack(const std::array<std::uint64_t, kCensusFields>& f) {
    FaultCensus c;
    c.tent_hosts = static_cast<std::size_t>(f[0]);
    c.basement_hosts = static_cast<std::size_t>(f[1]);
    c.tent_hosts_failed = static_cast<std::size_t>(f[2]);
    c.basement_hosts_failed = static_cast<std::size_t>(f[3]);
    c.system_failures = static_cast<std::size_t>(f[4]);
    c.transient_failures = static_cast<std::size_t>(f[5]);
    c.permanent_failures = static_cast<std::size_t>(f[6]);
    c.sensor_incidents = static_cast<std::size_t>(f[7]);
    c.switch_failures = static_cast<std::size_t>(f[8]);
    c.fan_faults = static_cast<std::size_t>(f[9]);
    c.disk_faults = static_cast<std::size_t>(f[10]);
    c.load_runs = f[11];
    c.wrong_hashes = f[12];
    c.wrong_hashes_tent = f[13];
    c.wrong_hashes_basement = f[14];
    c.page_ops = f[15];
    c.page_ops_non_ecc = f[16];
    c.requests_completed = f[17];
    c.requests_dropped = f[18];
    c.deadline_misses = f[19];
    c.p99_sojourn_us = f[20];
    return c;
}

std::string hex16(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t parse_hex(const std::string& field, std::size_t line_no) {
    if (field.empty() || field[0] == '-' || field[0] == '+') {
        throw core::ParseError("expected a hex word, got '" + field + "'", line_no);
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(field.c_str(), &end, 16);
    if (end != field.c_str() + field.size() || errno == ERANGE) {
        throw core::ParseError("expected a hex word, got '" + field + "'", line_no);
    }
    return v;
}

/// "cell <index> <f1> ... <f21>" — the checksummed payload of one record.
std::string cell_payload(std::size_t index, const FaultCensus& census) {
    std::ostringstream out;
    out << "cell " << index;
    for (const std::uint64_t v : pack(census)) out << ' ' << v;
    return out.str();
}

}  // namespace

std::string encode_cell_record(std::size_t index, const FaultCensus& census) {
    const std::string payload = cell_payload(index, census);
    return payload + ' ' + hex16(core::fnv1a(payload));
}

CellRecord decode_cell_record(std::string_view line, std::size_t cells_limit) {
    const std::string row(line);
    // Checksum first, fields after: nothing inside the payload is trusted
    // until the bytes have verified (same discipline as SweepJournal::load).
    const std::size_t sep = row.rfind(' ');
    if (sep == std::string::npos) {
        throw core::CorruptData("malformed cell record '" + row + "' (no checksum)");
    }
    const std::string payload = row.substr(0, sep);
    const std::uint64_t want = parse_hex(row.substr(sep + 1), 0);
    if (core::fnv1a(payload) != want) {
        throw core::CorruptData("cell record checksum mismatch on '" + row + "'");
    }

    std::istringstream ss(payload);
    std::string tag, token;
    ss >> tag;
    if (tag != "cell") {
        throw core::ParseError("expected a 'cell' record, got '" + tag + "'");
    }
    if (!(ss >> token)) throw core::ParseError("cell record missing its index");
    const std::uint64_t index = core::parse_csv_u64(token, 0);
    if (cells_limit > 0 && index >= cells_limit) {
        throw core::CorruptData("cell index " + std::to_string(index) +
                                " out of range (campaign has " + std::to_string(cells_limit) +
                                " cells)");
    }
    std::array<std::uint64_t, kCensusFields> fields{};
    for (std::size_t k = 0; k < kCensusFields; ++k) {
        if (!(ss >> token)) {
            throw core::ParseError("record for cell " + std::to_string(index) + " has " +
                                   std::to_string(k) + " of " + std::to_string(kCensusFields) +
                                   " census fields");
        }
        fields[k] = core::parse_csv_u64(token, 0);
    }
    if (ss >> token) {
        throw core::ParseError("trailing junk in record for cell " + std::to_string(index));
    }
    return CellRecord{static_cast<std::size_t>(index), unpack(fields)};
}

SweepJournal::SweepJournal(std::filesystem::path path, SweepJournalKey key, bool resume,
                           core::FileSystem* fs)
    : path_(std::move(path)), key_(key), fs_(fs ? fs : &core::real_fs()) {
    if (resume && fs_->exists(path_)) {
        core::with_context("loading sweep journal '" + path_.string() + "'", [this] { load(); });
        if (recovered_tail_ > 0) {
            // Truncate the torn tail off the disk copy right away, so a
            // second crash before the next record() cannot re-trip on it.
            std::lock_guard lock(mutex_);
            rewrite();
        }
    } else {
        // Fresh campaign (or --resume with nothing to resume): start with a
        // header-only journal so the identity is on disk before any cell.
        std::lock_guard lock(mutex_);
        rewrite();
    }
}

void SweepJournal::load() {
    // The whole file in memory, split into lines (roughly 100 bytes a cell;
    // full-file reads are what the FileSystem seam traffics in).
    const std::string bytes = fs_->read_file(path_);
    std::vector<std::string> lines;
    for (std::size_t pos = 0; pos < bytes.size();) {
        std::size_t nl = bytes.find('\n', pos);
        if (nl == std::string::npos) nl = bytes.size();
        std::string row = bytes.substr(pos, nl - pos);
        if (!row.empty() && row.back() == '\r') row.pop_back();
        lines.push_back(std::move(row));
        pos = nl + 1;
    }

    std::string line;
    std::size_t line_no = 0;
    const auto next_line = [&]() -> bool {
        if (line_no >= lines.size()) return false;
        line = lines[line_no];
        ++line_no;
        return true;
    };
    // The only damage load() may forgive lives on the final content line: a
    // tail record torn by a crash mid-append (or lost from the page cache).
    std::size_t last_content_line = 0;  // 1-based, 0 = none
    for (std::size_t i = lines.size(); i > 0; --i) {
        if (!lines[i - 1].empty()) {
            last_content_line = i;
            break;
        }
    }

    if (!next_line() || line != kMagic) {
        throw core::CorruptData("bad magic on line 1 (not a sweep journal?)");
    }

    // Header: each line names one identity field; a mismatch means the
    // journal belongs to a different campaign.
    const auto header_u64 = [&](const std::string& name) {
        if (!next_line()) throw core::ParseError("truncated header (missing " + name + ")",
                                                 line_no + 1);
        std::istringstream ss(line);
        std::string got_name, value;
        ss >> got_name >> value;
        if (got_name != name || value.empty()) {
            throw core::ParseError("expected '" + name + " <value>', got '" + line + "'", line_no);
        }
        return name == "config_hash" ? parse_hex(value, line_no)
                                     : core::parse_csv_u64(value, line_no);
    };
    const std::uint64_t base_seed = header_u64("base_seed");
    const std::uint64_t config_hash = header_u64("config_hash");
    const std::uint64_t cells = header_u64("cells");
    if (base_seed != key_.base_seed || config_hash != key_.config_hash || cells != key_.cells) {
        std::ostringstream why;
        why << "journal belongs to a different campaign (journal: base_seed " << base_seed
            << ", config_hash " << hex16(config_hash) << ", cells " << cells
            << "; this campaign: base_seed " << key_.base_seed << ", config_hash "
            << hex16(key_.config_hash) << ", cells " << key_.cells
            << ") — delete the journal or rerun the original campaign";
        throw core::StaleJournal(why.str());
    }

    while (next_line()) {
        if (line.empty()) continue;
        // Verify the record checksum against the raw payload bytes before
        // trusting any field: "<payload> <hex checksum>".  Damage detected
        // *before* the checksum verifies is exactly what tail truncation
        // produces, so on the final content line it is forgiven: the record
        // is dropped with a warning (its cell re-simulates) and the caller
        // truncates it off the disk copy.  Once a checksum has verified the
        // bytes are intact, so every later inconsistency stays fatal.
        std::string payload;
        std::string damage;
        const std::size_t sep = line.rfind(' ');
        if (sep == std::string::npos) {
            damage = "malformed record '" + line + "'";
        } else {
            payload = line.substr(0, sep);
            std::uint64_t want = 0;
            try {
                want = parse_hex(line.substr(sep + 1), line_no);
            } catch (const core::ParseError&) {
                damage = "unparseable record checksum";
            }
            if (damage.empty() && core::fnv1a(payload) != want) {
                damage = "record checksum mismatch";
            }
        }
        if (!damage.empty()) {
            if (line_no == last_content_line) {
                std::cerr << "warning: sweep journal '" << path_.string()
                          << "': dropping torn tail record (line " << line_no << ": " << damage
                          << "); its cell will be re-simulated\n";
                ++recovered_tail_;
                break;
            }
            throw core::CorruptData("line " + std::to_string(line_no) + ": " + damage +
                                    " (torn write or edited file)");
        }

        std::istringstream ss(payload);
        std::string tag, token;
        ss >> tag;
        if (tag != "cell" && tag != "poison") {
            throw core::ParseError("expected a 'cell' or 'poison' record, got '" + tag + "'",
                                   line_no);
        }
        if (!(ss >> token)) throw core::ParseError("record missing cell index", line_no);
        const std::uint64_t index = core::parse_csv_u64(token, line_no);
        if (index >= key_.cells) {
            throw core::CorruptData("line " + std::to_string(line_no) + ": cell index " +
                                    std::to_string(index) + " out of range (campaign has " +
                                    std::to_string(key_.cells) + " cells)");
        }
        if (cells_.count(static_cast<std::size_t>(index)) ||
            quarantined_.count(static_cast<std::size_t>(index))) {
            throw core::CorruptData("line " + std::to_string(line_no) + ": duplicate cell " +
                                    std::to_string(index));
        }
        if (tag == "poison") {
            // "poison <index> <attempts> <reason...>": the reason is free
            // text, everything after the attempts word.
            if (!(ss >> token)) {
                throw core::ParseError("poison record for cell " + std::to_string(index) +
                                           " missing its attempt count",
                                       line_no);
            }
            QuarantineRecord q;
            q.attempts = static_cast<std::size_t>(core::parse_csv_u64(token, line_no));
            std::string reason;
            std::getline(ss, reason);
            if (!reason.empty() && reason.front() == ' ') reason.erase(0, 1);
            if (reason.empty()) {
                throw core::ParseError("poison record for cell " + std::to_string(index) +
                                           " missing its reason",
                                       line_no);
            }
            q.reason = std::move(reason);
            quarantined_.emplace(static_cast<std::size_t>(index), std::move(q));
            continue;
        }
        // The record's fields, parsed exactly as a CELL frame's are.  Store
        // the canonical encoding, not the disk line: parse_csv_u64 takes
        // leading zeros and >> takes extra spaces, so a re-checksummed
        // non-canonical line is normalised by the next rewrite.
        const CellRecord rec = core::with_context(
            "line " + std::to_string(line_no), [&] { return decode_cell_record(line); });
        cells_.emplace(rec.index, StoredCell{rec.census, encode_cell_record(rec.index, rec.census)});
    }
}

void SweepJournal::rewrite() const {
    std::string header(kMagic);
    header += "\nbase_seed " + std::to_string(key_.base_seed);
    header += "\nconfig_hash " + hex16(key_.config_hash);
    header += "\ncells " + std::to_string(key_.cells) + '\n';
    // Poison records after the data, both in index order: the file's bytes
    // depend only on the journal's final contents, never on arrival order.
    // Quarantined cells are few, so their lines are encoded here.
    std::string poison;
    for (const auto& [index, q] : quarantined_) {
        const std::string payload =
            "poison " + std::to_string(index) + ' ' + std::to_string(q.attempts) + ' ' + q.reason;
        poison += payload + ' ' + hex16(core::fnv1a(payload)) + '\n';
    }
    std::size_t size = header.size() + poison.size();
    for (const auto& [index, cell] : cells_) size += cell.line.size() + 1;
    std::string bytes;
    bytes.reserve(size);
    bytes += header;
    for (const auto& [index, cell] : cells_) {
        bytes += cell.line;
        bytes += '\n';
    }
    bytes += poison;
    // Crash-safe tmp+rename through the io seam; injected transient faults
    // (short write, ENOSPC, refused rename) restart the sequence, bounded.
    io_retries_ += core::replace_file_atomic(*fs_, path_, bytes, core::IoRetryPolicy{4},
                                             "sweep journal '" + path_.string() + "'");
}

void SweepJournal::record(std::size_t index, const FaultCensus& census) {
    if (index >= key_.cells) {
        throw core::InvalidArgument("SweepJournal::record: cell index " + std::to_string(index) +
                                    " out of range (campaign has " + std::to_string(key_.cells) +
                                    " cells)");
    }
    StoredCell cell{census, encode_cell_record(index, census)};
    std::lock_guard lock(mutex_);
    cells_.insert_or_assign(index, std::move(cell));
    quarantined_.erase(index);  // real data heals a quarantined slot
    rewrite();
}

void SweepJournal::quarantine(std::size_t index, std::size_t attempts,
                              const std::string& reason) {
    if (index >= key_.cells) {
        throw core::InvalidArgument("SweepJournal::quarantine: cell index " +
                                    std::to_string(index) + " out of range (campaign has " +
                                    std::to_string(key_.cells) + " cells)");
    }
    if (reason.empty() || reason.find('\n') != std::string::npos) {
        throw core::InvalidArgument(
            "SweepJournal::quarantine: reason must be one non-empty line");
    }
    std::lock_guard lock(mutex_);
    if (cells_.count(index)) return;  // data already landed; nothing to hold
    quarantined_.insert_or_assign(index, QuarantineRecord{attempts, reason});
    rewrite();
}

const FaultCensus* SweepJournal::find(std::size_t index) const {
    const auto it = cells_.find(index);
    return it == cells_.end() ? nullptr : &it->second.census;
}

}  // namespace zerodeg::experiment
