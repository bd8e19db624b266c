#include "spans.hpp"

#include <algorithm>
#include <sstream>

#include "core/io.hpp"

namespace zdbench {

std::int32_t SpanRecorder::begin(const char* name, std::int32_t parent, std::int64_t cell) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, now, now, parent, cell});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanRecorder::end(std::int32_t id) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].stop = now;
}

std::int32_t SpanRecorder::add(const char* name, Clock::time_point start, Clock::time_point stop,
                               std::int32_t parent, std::int64_t cell) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, stop, parent, cell});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

std::size_t SpanRecorder::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return self_seconds_locked();
}

std::map<std::string, double> SpanRecorder::self_seconds_locked() const {
    // Children of one parent may overlap (campaign workers run concurrently),
    // so the covered part is the union of their intervals, clipped to the
    // parent's own interval.
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const std::int32_t p = spans_[i].parent;
        if (p >= 0) children[static_cast<std::size_t>(p)].push_back(i);
    }
    std::map<std::string, double> self;
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        cover.clear();
        for (const std::size_t c : children[i]) {
            const Clock::time_point a = std::max(spans_[c].start, s.start);
            const Clock::time_point b = std::min(spans_[c].stop, s.stop);
            if (a < b) cover.emplace_back(a, b);
        }
        std::sort(cover.begin(), cover.end());
        Clock::duration covered{0};
        Clock::time_point reach = s.start;
        for (const auto& [a, b] : cover) {
            const Clock::time_point from = std::max(a, reach);
            if (b > from) {
                covered += b - from;
                reach = b;
            }
        }
        self[s.name] += std::chrono::duration<double>(s.stop - s.start - covered).count();
    }
    return self;
}

void SpanRecorder::write_json(const std::filesystem::path& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, std::size_t> name_index;
    std::vector<std::string> names;
    for (const Span& s : spans_) {
        if (name_index.emplace(s.name, names.size()).second) names.emplace_back(s.name);
    }
    std::ostringstream out;
    out << "{\"clock\": \"bench_clock ns since recorder start\",\n\"names\": [";
    for (std::size_t i = 0; i < names.size(); ++i) out << (i ? ", " : "") << '"' << names[i] << '"';
    out << "],\n\"fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"cell\"],\n";
    out << "\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << (i ? ",\n" : "\n") << '[' << name_index[s.name] << ','
            << (s.start - origin_).count() << ',' << (s.stop - origin_).count() << ','
            << s.parent << ',' << s.cell << ']';
    }
    out << "],\n\"self_s\": {";
    bool first = true;
    out.precision(9);
    for (const auto& [name, secs] : self_seconds_locked()) {
        out << (first ? "" : ", ") << '"' << name << "\": " << secs;
        first = false;
    }
    out << "}}\n";
    zerodeg::core::real_fs().write_file(path, out.str());
}

}  // namespace zdbench
