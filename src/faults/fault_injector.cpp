#include "faults/fault_injector.hpp"

#include "core/error.hpp"

namespace zerodeg::faults {

HostFaultProcess::HostFaultProcess(int host_id, bool known_unreliable, InjectorParams params,
                                   core::RngStream rng)
    : HostFaultProcess(host_id, known_unreliable, params,
                       std::make_shared<const HostHazardModel>(params.hazard), std::move(rng)) {}

HostFaultProcess::HostFaultProcess(int host_id, bool known_unreliable, InjectorParams params,
                                   std::shared_ptr<const HostHazardModel> model,
                                   core::RngStream rng)
    : host_id_(host_id),
      known_unreliable_(known_unreliable),
      params_(params),
      model_(std::move(model)),
      rng_(rng),
      threshold_(rng_.exponential(1.0)) {}

bool HostFaultProcess::advance(core::Duration dt, const StressState& stress) {
    if (dt.count() < 0) throw core::InvalidArgument("HostFaultProcess::advance: negative dt");
    StressState s = stress;
    s.known_unreliable = known_unreliable_;
    return accumulate(model_->hazard_per_hour(s) * (static_cast<double>(dt.count()) / 3600.0));
}

bool HostFaultProcess::accumulate(double hazard_hours) {
    cumulative_ += hazard_hours;
    if (cumulative_ >= threshold_) {
        cumulative_ = 0.0;
        threshold_ = rng_.exponential(1.0);
        ++failures_;
        return true;
    }
    return false;
}

FaultSeverity HostFaultProcess::classify_failure() {
    if (failures_ >= params_.failures_to_permanent) return FaultSeverity::kPermanent;
    return rng_.chance(params_.transient_probability) ? FaultSeverity::kTransient
                                                      : FaultSeverity::kPermanent;
}

FaultInjector::FaultInjector(InjectorParams params, std::uint64_t master_seed)
    : params_(params),
      master_seed_(master_seed),
      model_(std::make_shared<const HostHazardModel>(params.hazard)) {}

void FaultInjector::add_host(int host_id, bool known_unreliable) {
    if (processes_.contains(host_id)) return;
    processes_.emplace(host_id,
                       HostFaultProcess(host_id, known_unreliable, params_, model_,
                                        core::RngStream{master_seed_,
                                                        "faults.host." + std::to_string(host_id)}));
}

std::optional<FaultSeverity> FaultInjector::advance_host(int host_id, core::Duration dt,
                                                         const StressState& stress,
                                                         core::TimePoint now,
                                                         const std::string& source, bool in_tent,
                                                         FaultLog& log) {
    const auto it = processes_.find(host_id);
    if (it == processes_.end()) {
        throw core::InvalidArgument("FaultInjector::advance_host: unknown host");
    }
    if (!it->second.advance(dt, stress)) return std::nullopt;
    return record_failure(it->second, now, source, in_tent, log);
}

const HostFaultProcess* FaultInjector::process(int host_id) const {
    const auto it = processes_.find(host_id);
    return it == processes_.end() ? nullptr : &it->second;
}

FaultSeverity FaultInjector::record_failure(HostFaultProcess& process, core::TimePoint now,
                                            const std::string& source, bool in_tent,
                                            FaultLog& log) {
    const FaultSeverity severity = process.classify_failure();
    FaultRecord rec;
    rec.time = now;
    rec.host_id = process.host_id();
    rec.source = source;
    rec.component = FaultComponent::kSystem;
    rec.severity = severity;
    rec.description = severity == FaultSeverity::kTransient
                          ? "system failure (no cause determined)"
                          : "system failure (permanent; unit defective)";
    rec.in_tent = in_tent;
    log.record(std::move(rec));
    return severity;
}

}  // namespace zerodeg::faults
