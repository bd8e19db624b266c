#include "timing_fs.hpp"

#include "spans.hpp"

namespace zdbench {

namespace {

std::filesystem::path with_tmp(std::filesystem::path p) {
    p += ".tmp";
    return p;
}

}  // namespace

void MemFs::write_file(const std::filesystem::path& path, std::string_view content) {
    std::lock_guard<std::mutex> lock(mutex_);
    files_[path.string()].assign(content);
}

std::string MemFs::read_file(const std::filesystem::path& path) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = files_.find(path.string());
    if (it == files_.end()) throw zerodeg::core::IoError("no such file: " + path.string());
    return it->second;
}

bool MemFs::exists(const std::filesystem::path& path) {
    std::lock_guard<std::mutex> lock(mutex_);
    return files_.contains(path.string());
}

void MemFs::rename(const std::filesystem::path& from, const std::filesystem::path& to) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = files_.find(from.string());
    if (it == files_.end()) throw zerodeg::core::IoError("rename: no such file: " + from.string());
    files_[to.string()] = std::move(it->second);
    files_.erase(it);
}

void MemFs::remove(const std::filesystem::path& path) {
    std::lock_guard<std::mutex> lock(mutex_);
    files_.erase(path.string());
}

TimingFs::TimingFs(zerodeg::core::FileSystem& inner, std::filesystem::path merged_journal,
                   SpanRecorder* spans, std::int32_t parent)
    : inner_(inner),
      merged_(std::move(merged_journal)),
      merged_tmp_(with_tmp(merged_)),
      spans_(spans),
      parent_(parent) {}

bool TimingFs::is_merged(const std::filesystem::path& path) const {
    return path == merged_ || path == merged_tmp_;
}

void TimingFs::write_file(const std::filesystem::path& path, std::string_view content) {
    const bool merged = is_merged(path);
    bool watch_first = false;
    if (merged) {
        std::lock_guard<std::mutex> lock(mutex_);
        watch_first = !first_record_ && !record_pending_;
    }
    const Clock::time_point start = Clock::now();
    inner_.write_file(path, content);
    const Clock::time_point stop = Clock::now();

    // Journal records are "cell <index> ..." lines after the header; only
    // scan for one until the first has been seen.
    const bool has_record = watch_first && content.find("\ncell ") != std::string_view::npos;
    std::lock_guard<std::mutex> lock(mutex_);
    if (has_record) record_pending_ = true;
    if (!spans_) return;
    const double secs = Clock::seconds_between(start, stop);
    ++stats_.writes;
    stats_.bytes += content.size();
    (merged ? stats_.merged_bytes : stats_.worker_bytes) += content.size();
    stats_.write_s.push_back(secs);
    stats_.busy_s += secs;
    spans_->add("journal.write", start, stop, parent_);
}

std::string TimingFs::read_file(const std::filesystem::path& path) {
    return inner_.read_file(path);
}

bool TimingFs::exists(const std::filesystem::path& path) { return inner_.exists(path); }

void TimingFs::rename(const std::filesystem::path& from, const std::filesystem::path& to) {
    const Clock::time_point start = Clock::now();
    inner_.rename(from, to);
    const Clock::time_point stop = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    if (to == merged_ && record_pending_ && !first_record_) first_record_ = stop;
    if (!spans_) return;
    ++stats_.renames;
    stats_.busy_s += Clock::seconds_between(start, stop);
    spans_->add("journal.rename", start, stop, parent_);
}

void TimingFs::remove(const std::filesystem::path& path) { inner_.remove(path); }

TimingFs::Stats TimingFs::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::optional<Clock::time_point> TimingFs::first_merged_record() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return first_record_;
}

}  // namespace zdbench
