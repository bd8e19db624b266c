// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent, cell id), recorded from the
// benchmark's own files around each call into a layer; nothing inside the
// library is instrumented.  Spans stay in memory until the run ends and are
// then written as one JSON file.  A layer's self time is the sum, over its
// spans, of the duration minus the part of that interval its child spans
// cover.  Thread-safe: campaign workers record from their own threads.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace zdbench {

class SpanRecorder {
public:
    static constexpr std::int32_t kNoParent = -1;
    static constexpr std::int64_t kNoCell = -1;

    /// Open a span now; `name` must be a string literal (stored by pointer).
    [[nodiscard]] std::int32_t begin(const char* name, std::int32_t parent = kNoParent,
                                     std::int64_t cell = kNoCell);
    void end(std::int32_t id);
    /// Record a span whose interval the caller already measured.
    std::int32_t add(const char* name, Clock::time_point start, Clock::time_point stop,
                     std::int32_t parent = kNoParent, std::int64_t cell = kNoCell);

    /// Self seconds summed per span name.
    [[nodiscard]] std::map<std::string, double> self_seconds() const;
    [[nodiscard]] std::size_t size() const;

    /// {"clock": ..., "names": [...], "spans": [[name, start_ns, end_ns,
    /// parent, cell], ...], "self_s": {name: seconds}}; times are
    /// nanoseconds since the recorder was created.
    void write_json(const std::filesystem::path& path) const;

private:
    struct Span {
        const char* name = nullptr;
        Clock::time_point start;
        Clock::time_point stop;
        std::int32_t parent = kNoParent;
        std::int64_t cell = kNoCell;
    };
    [[nodiscard]] std::map<std::string, double> self_seconds_locked() const;

    const Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/// RAII span; a null recorder (tracing off) records nothing.
class ScopedSpan {
public:
    ScopedSpan(SpanRecorder* recorder, const char* name,
               std::int32_t parent = SpanRecorder::kNoParent,
               std::int64_t cell = SpanRecorder::kNoCell)
        : recorder_(recorder), id_(recorder ? recorder->begin(name, parent, cell) : -1) {}
    ~ScopedSpan() {
        if (recorder_) recorder_->end(id_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanRecorder* recorder_;
    std::int32_t id_;
};

}  // namespace zdbench
