// The per-host load scheduler of Section 3.5.
//
// "Each host executes its synthetic load every 10 minutes.  In order to
// avoid synchronization, some fuzz is added to the starting phase: each host
// sleeps for 0 to 119 seconds before commencing the archival process."
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/event_queue.hpp"
#include "core/rng.hpp"
#include "faults/memory_faults.hpp"
#include "workload/load_job.hpp"

namespace zerodeg::workload {

/// A wrong-hash incident, the unit of Section 4.2.2's census.
struct WrongHashIncident {
    core::TimePoint time;
    int host_id = 0;
    std::size_t corrupt_blocks = 0;
    std::size_t total_blocks = 0;
    bool recovered = false;  ///< all other blocks salvaged
};

struct HostLoadStats {
    std::uint64_t runs = 0;
    std::uint64_t wrong_hashes = 0;
    std::uint64_t skipped = 0;  ///< host was down at cycle time
    std::uint64_t ecc_corrected = 0;
    std::uint64_t page_ops = 0;
};

class LoadScheduler {
public:
    struct HostBinding {
        int host_id = 0;
        bool ecc = false;
        /// Checked at each cycle; a crashed host skips its run.
        std::function<bool()> operational;
    };

    /// One shared job definition (the corpus is the same on every host),
    /// built from `job_config` and `master_seed` when the first host
    /// registers: a scheduler no host ever joins (a traffic season's) never
    /// pays for the corpus, container and checkpoints.  Per-host RNG streams
    /// keep the fuzz and faults independent.
    LoadScheduler(core::Simulator& sim, LoadJobConfig job_config,
                  faults::MemoryFaultParams mem_params, std::uint64_t master_seed,
                  core::Duration cycle = core::Duration::minutes(10));

    /// Register a host and start its cycle at `first_cycle` (typically the
    /// install date).
    void add_host(HostBinding binding, core::TimePoint first_cycle);

    /// Stop scheduling a host (retirement).
    void remove_host(int host_id);

    /// The shared job; throws until a host has registered.
    [[nodiscard]] const LoadJob& job() const;
    [[nodiscard]] const HostLoadStats& stats(int host_id) const;
    [[nodiscard]] const std::map<int, HostLoadStats>& all_stats() const { return stats_; }
    [[nodiscard]] const std::vector<WrongHashIncident>& incidents() const { return incidents_; }

    [[nodiscard]] std::uint64_t total_runs() const;
    [[nodiscard]] std::uint64_t total_wrong_hashes() const;
    [[nodiscard]] std::uint64_t total_page_ops() const;

private:
    struct HostState {
        HostBinding binding;
        faults::MemoryFaultModel memory;
        core::RngStream fuzz_rng;
        core::EventId cycle_event = 0;
        bool removed = false;
    };

    core::Simulator& sim_;
    LoadJobConfig job_config_;
    std::optional<LoadJob> job_;  ///< built at the first add_host
    faults::MemoryFaultParams mem_params_;
    std::uint64_t master_seed_;
    core::Duration cycle_;
    std::map<int, HostState> hosts_;
    std::map<int, HostLoadStats> stats_;
    std::vector<WrongHashIncident> incidents_;

    void run_cycle(int host_id);
};

}  // namespace zerodeg::workload
