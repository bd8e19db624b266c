#include "workload/ps_queue.hpp"

#include <algorithm>
#include <limits>

#include "core/error.hpp"

namespace zerodeg::workload {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

PsQueue::PsQueue(double service_rate) : rate_(service_rate) {
    if (!(service_rate > 0.0)) {
        throw core::InvalidArgument("PsQueue: service_rate must be positive");
    }
}

void PsQueue::admit(std::uint64_t id, double demand, double now) {
    if (now < clock_) throw core::InvalidArgument("PsQueue::admit: time ran backwards");
    if (!(demand > 0.0)) throw core::InvalidArgument("PsQueue::admit: demand must be positive");
    // The caller has already drained departures up to `now`; the remaining
    // span holds no completion, so only the clock and shared progress move.
    if (jobs_.empty()) {
        min_rem_ = demand;
    } else {
        const double dt = now - clock_;
        min_rem_ = std::min(serve(dt * rate_ / static_cast<double>(jobs_.size())), demand);
        busy_seconds_ += dt;
    }
    clock_ = now;
    jobs_.push_back({id, demand});
}

double PsQueue::serve(double work) {
    double least = kInf;
    for (Job& j : jobs_) {
        j.remaining -= work;
        least = std::min(least, j.remaining);
    }
    return least;
}

void PsQueue::advance_to(double t, std::vector<Completion>& out) {
    if (t < clock_) throw core::InvalidArgument("PsQueue::advance_to: time ran backwards");
    while (!jobs_.empty()) {
        const double n = static_cast<double>(jobs_.size());
        // Each resident job receives rate/n; the earliest departure is when
        // the least-loaded job's remaining work drains.
        const double dt_to_departure = min_rem_ * n / rate_;
        if (clock_ + dt_to_departure > t) {
            const double dt = t - clock_;
            min_rem_ = serve(dt * rate_ / n);
            busy_seconds_ += dt;
            clock_ = t;
            return;
        }
        busy_seconds_ += dt_to_departure;
        clock_ += dt_to_departure;
        // Pop everything drained (ties depart together, admission order) and
        // compact the survivors in place, taking their minimum as we go.
        const double work = min_rem_;
        double least = kInf;
        std::size_t kept = 0;
        for (Job j : jobs_) {
            j.remaining -= work;
            if (j.remaining <= 1e-12) {
                out.push_back({j.id, clock_});
            } else {
                jobs_[kept++] = j;
                least = std::min(least, j.remaining);
            }
        }
        jobs_.resize(kept);
        min_rem_ = least;
    }
    clock_ = t;
}

bool PsQueue::cancel(std::uint64_t id) {
    for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
        if (it->id == id) {
            const bool held_min = it->remaining == min_rem_;
            jobs_.erase(it);
            if (held_min) {
                min_rem_ = kInf;
                for (const Job& j : jobs_) min_rem_ = std::min(min_rem_, j.remaining);
            }
            return true;
        }
    }
    return false;
}

void PsQueue::drop_all(std::vector<std::uint64_t>& out) {
    for (const Job& j : jobs_) out.push_back(j.id);
    jobs_.clear();
}

double PsQueue::next_completion_time() const {
    if (jobs_.empty()) return kInf;
    return clock_ + min_rem_ * static_cast<double>(jobs_.size()) / rate_;
}

double PsQueue::take_busy_seconds() {
    const double b = busy_seconds_;
    busy_seconds_ = 0.0;
    return b;
}

}  // namespace zerodeg::workload
