// File systems for the campaign's journals.
//
// TimingFs is a core::FileSystem decorator, passed to a campaign as
// DistributedOptions::fs.  It counts writes, renames and bytes, separately
// for the merged campaign journal and the worker journals, and times every
// write and rename.  It also notes when the first cell record reached the
// merged journal (the campaign's set-up time ends there).  Without a span
// recorder (an untraced campaign) it only watches for that first record, so
// the campaign pays one comparison per write.
//
// MemFs is the file system under it: whole files kept in memory.  Journal
// writes to the local disk made campaign throughput drift by a factor of two
// between consecutive runs on a shared virtual disk (the full-rewrite journal
// writes tens of MB/s, which the disk did not sustain), so the benchmark
// keeps the disk out and measures what the program itself spends on each
// record: rendering the journal, copying its bytes, and the tmp+rename
// protocol through the FileSystem seam.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "core/io.hpp"

namespace zdbench {

class SpanRecorder;

/// Whole files in memory, thread-safe.  read_file of a missing file throws
/// core::IoError, as RealFs does.
class MemFs final : public zerodeg::core::FileSystem {
public:
    void write_file(const std::filesystem::path& path, std::string_view content) override;
    [[nodiscard]] std::string read_file(const std::filesystem::path& path) override;
    [[nodiscard]] bool exists(const std::filesystem::path& path) override;
    void rename(const std::filesystem::path& from, const std::filesystem::path& to) override;
    void remove(const std::filesystem::path& path) override;

private:
    std::mutex mutex_;
    std::map<std::string, std::string> files_;
};

class TimingFs final : public zerodeg::core::FileSystem {
public:
    struct Stats {
        std::uint64_t writes = 0;
        std::uint64_t renames = 0;
        std::uint64_t bytes = 0;
        std::uint64_t merged_bytes = 0;
        std::uint64_t worker_bytes = 0;
        std::vector<double> write_s;  ///< latency of every write_file
        double busy_s = 0.0;          ///< writes + renames
    };

    /// Decorates `inner`.  With `spans` set it keeps Stats and records one
    /// span per write and rename under `parent`; with `spans` null it only
    /// notes the first merged record.
    TimingFs(zerodeg::core::FileSystem& inner, std::filesystem::path merged_journal,
             SpanRecorder* spans = nullptr, std::int32_t parent = -1);

    void write_file(const std::filesystem::path& path, std::string_view content) override;
    [[nodiscard]] std::string read_file(const std::filesystem::path& path) override;
    [[nodiscard]] bool exists(const std::filesystem::path& path) override;
    void rename(const std::filesystem::path& from, const std::filesystem::path& to) override;
    void remove(const std::filesystem::path& path) override;

    [[nodiscard]] Stats stats() const;
    /// When the first cell record became durable in the merged journal.
    [[nodiscard]] std::optional<Clock::time_point> first_merged_record() const;

private:
    [[nodiscard]] bool is_merged(const std::filesystem::path& path) const;

    zerodeg::core::FileSystem& inner_;
    const std::filesystem::path merged_;
    const std::filesystem::path merged_tmp_;
    SpanRecorder* spans_;
    const std::int32_t parent_;

    mutable std::mutex mutex_;
    Stats stats_;
    bool record_pending_ = false;  ///< merged tmp file holds a cell record
    std::optional<Clock::time_point> first_record_;
};

}  // namespace zdbench
