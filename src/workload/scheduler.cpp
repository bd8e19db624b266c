#include "workload/scheduler.hpp"

#include "core/error.hpp"

namespace zerodeg::workload {

LoadScheduler::LoadScheduler(core::Simulator& sim, LoadJobConfig job_config,
                             faults::MemoryFaultParams mem_params, std::uint64_t master_seed,
                             core::Duration cycle)
    : sim_(sim),
      job_config_(std::move(job_config)),
      mem_params_(mem_params),
      master_seed_(master_seed),
      cycle_(cycle) {
    if (cycle.count() <= 0) throw core::InvalidArgument("LoadScheduler: bad cycle");
}

void LoadScheduler::add_host(HostBinding binding, core::TimePoint first_cycle) {
    if (hosts_.contains(binding.host_id)) {
        throw core::InvalidArgument("LoadScheduler::add_host: duplicate host");
    }
    if (!binding.operational) {
        throw core::InvalidArgument("LoadScheduler::add_host: missing operational check");
    }
    if (!job_) job_.emplace(job_config_, master_seed_);
    const int id = binding.host_id;
    const std::string tag = std::to_string(id);
    HostState state{
        std::move(binding),
        faults::MemoryFaultModel(mem_params_, core::RngStream{master_seed_, "load.mem." + tag}),
        core::RngStream{master_seed_, "load.fuzz." + tag},
        0,
        false,
    };
    hosts_.emplace(id, std::move(state));
    stats_.emplace(id, HostLoadStats{});

    const core::TimePoint start = first_cycle < sim_.now() ? sim_.now() : first_cycle;
    hosts_.at(id).cycle_event = sim_.schedule_every(
        start, cycle_,
        [this, id] {
            // "each host sleeps for 0 to 119 seconds before commencing"
            HostState& h = hosts_.at(id);
            if (h.removed) return;
            const auto fuzz = core::Duration::seconds(h.fuzz_rng.uniform_int(0, 119));
            sim_.schedule_in(fuzz, [this, id] { run_cycle(id); },
                             "load-cycle host " + std::to_string(id));
        },
        "load-tick host " + tag);
}

void LoadScheduler::remove_host(int host_id) {
    const auto it = hosts_.find(host_id);
    if (it == hosts_.end()) throw core::InvalidArgument("LoadScheduler::remove_host: unknown");
    it->second.removed = true;
    sim_.cancel(it->second.cycle_event);
}

void LoadScheduler::run_cycle(int host_id) {
    HostState& h = hosts_.at(host_id);
    if (h.removed) return;
    HostLoadStats& st = stats_.at(host_id);
    if (!h.binding.operational()) {
        ++st.skipped;
        return;
    }
    const JobResult result = job_->run(h.memory, h.binding.ecc);
    ++st.runs;
    st.page_ops += result.page_ops;
    st.ecc_corrected += result.corrected_flips;
    if (!result.hash_ok) {
        ++st.wrong_hashes;
        WrongHashIncident inc;
        inc.time = sim_.now();
        inc.host_id = host_id;
        if (result.forensics) {
            inc.corrupt_blocks = result.forensics->corrupt_blocks.size();
            inc.total_blocks = result.forensics->total_blocks;
            inc.recovered = result.forensics->lost_bytes < result.forensics->salvaged_bytes;
        }
        incidents_.push_back(inc);
    }
}

const LoadJob& LoadScheduler::job() const {
    if (!job_) throw core::InvalidArgument("LoadScheduler::job: no host registered yet");
    return *job_;
}

const HostLoadStats& LoadScheduler::stats(int host_id) const {
    const auto it = stats_.find(host_id);
    if (it == stats_.end()) throw core::InvalidArgument("LoadScheduler::stats: unknown host");
    return it->second;
}

std::uint64_t LoadScheduler::total_runs() const {
    std::uint64_t n = 0;
    for (const auto& [id, st] : stats_) n += st.runs;
    return n;
}

std::uint64_t LoadScheduler::total_wrong_hashes() const {
    std::uint64_t n = 0;
    for (const auto& [id, st] : stats_) n += st.wrong_hashes;
    return n;
}

std::uint64_t LoadScheduler::total_page_ops() const {
    std::uint64_t n = 0;
    for (const auto& [id, st] : stats_) n += st.page_ops;
    return n;
}

}  // namespace zerodeg::workload
