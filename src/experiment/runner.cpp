#include "experiment/runner.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace zerodeg::experiment {

namespace {

using core::Duration;
using core::LogLevel;
using core::TimePoint;

constexpr double kRecycledAgeHours = 22000.0;  // the fleet was headed for recycling

}  // namespace

ExperimentRunner::ExperimentRunner(ExperimentConfig config)
    : config_(std::move(config)),
      sim_(config_.start),
      fleet_(hardware::make_paper_fleet(config_.master_seed)),
      injector_(config_.faults, config_.master_seed) {
    // Weather: the synthetic SMEAR III station, or a recorded trace.
    if (config_.weather_trace.empty()) {
        station_ = std::make_unique<weather::WeatherStation>(
            sim_, weather::WeatherModel(config_.weather, config_.master_seed), config_.start);
    } else {
        station_ = std::make_unique<weather::WeatherStation>(
            sim_, std::make_unique<weather::TraceSource>(config_.weather_trace),
            config_.start);
    }

    const weather::WeatherSample initial = station_->current();
    tent_ = std::make_unique<thermal::TentModel>(config_.tent, initial.temperature);
    basement_ = std::make_unique<thermal::BasementModel>();

    // Load: one job definition, per-host memory-fault streams.  The
    // scheduler is inert until hosts register, so it is constructed even
    // for traffic seasons (its census stats then read zero); it builds the
    // archive job only when the first host joins, so those seasons never do.
    load_ = std::make_unique<workload::LoadScheduler>(sim_, config_.load, config_.memory,
                                                      config_.master_seed);
    if (config_.workload == WorkloadKind::kTraffic) {
        traffic_ = std::make_unique<workload::TrafficEngine>(config_.traffic,
                                                             config_.master_seed, config_.start);
    }

    // Network: a building switch (monitor + basement hosts), and the two
    // whining loaner switches in the tent.
    hardware::SwitchConfig building_cfg;
    building_cfg.ports = 24;
    const std::size_t building = net_.add_switch(hardware::NetworkSwitch(
        "building-switch", building_cfg, core::RngStream{config_.master_seed, "switch.building"}));

    hardware::SwitchConfig defective_cfg;
    defective_cfg.inherent_defect = true;
    defective_cfg.defect_mean_hours_to_failure = config_.switch_defect_mean_hours;
    tent_switch_a_ = net_.add_switch(hardware::NetworkSwitch(
        "tent-switch-a", defective_cfg, core::RngStream{config_.master_seed, "switch.a"}));
    tent_switch_b_ = net_.add_switch(hardware::NetworkSwitch(
        "tent-switch-b", defective_cfg, core::RngStream{config_.master_seed, "switch.b"}));
    net_.uplink(tent_switch_a_, building);
    net_.uplink(tent_switch_b_, building);
    net_.attach({kMonitorNodeId, "monitor"}, building);

    monitoring::CollectorRetryPolicy retry = config_.collector_retry;
    retry.master_seed = config_.master_seed;
    collector_ = std::make_unique<monitoring::Collector>(
        sim_, net_, kMonitorNodeId, core::Duration::minutes(20), retry);

    // Tent instrumentation.
    tent_logger_ = std::make_unique<monitoring::LascarLogger>(
        sim_, *tent_, config_.logger_start, monitoring::LascarConfig{},
        core::RngStream{config_.master_seed, "lascar"});
    for (TimePoint t = config_.logger_start + config_.readout_interval; t < config_.end;
         t += config_.readout_interval) {
        tent_logger_->schedule_readout({t});
    }
    tent_meter_ = std::make_unique<monitoring::TechnolineMeter>(
        sim_, [this] { return fleet_.wall_power(hardware::Placement::kTent); }, config_.start,
        monitoring::PowerMeterConfig{}, core::RngStream{config_.master_seed, "technoline"});

    wire_hosts();

    // Tent modifications on their dates.
    for (const TentModEvent& ev : config_.tent_mods) {
        if (ev.when < config_.start) continue;
        sim_.schedule_at(ev.when, [this, ev] {
            tent_->apply_modification(ev.mod);
            event_log_.record(sim_.now(), LogLevel::kInfo, "tent",
                              std::string("modification applied: ") + thermal::to_string(ev.mod));
        });
    }

    // The integration tick.
    sim_.schedule_every(config_.start, config_.tick, [this] { tick(); }, "experiment-tick");
}

ExperimentRunner::~ExperimentRunner() = default;

void ExperimentRunner::wire_hosts() {
    std::size_t tent_port_toggle = 0;
    for (hardware::HostRecord& rec : fleet_.hosts()) {
        // Network attachment.
        const std::size_t sw = rec.placement == hardware::Placement::kTent
                                   ? (tent_port_toggle++ % 2 == 0 ? tent_switch_a_
                                                                  : tent_switch_b_)
                                   : std::size_t{0};
        net_.attach({rec.server->id(), rec.server->name()}, sw);
        register_host_with_services(rec);
    }
}

void ExperimentRunner::register_host_with_services(hardware::HostRecord& rec) {
    hardware::Server* server = rec.server.get();
    injector_.add_host(server->id(), server->spec().known_unreliable);
    component_faults_.emplace(
        server->id(),
        faults::ComponentFaultProcess(
            server->id(), server->spec().fans,
            static_cast<int>(server->storage().drives().size()), config_.component_faults,
            core::RngStream{config_.master_seed,
                            "faults.components." + std::to_string(server->id())}));

    if (traffic_) {
        // Traffic seasons drive the CPUs from request service instead of
        // the archival churn.  Side membership for cloning is fixed at
        // registration (the split is static; the mid-season replacement
        // registers with its own tent placement).
        workload::TrafficEngine::HostBinding tb;
        tb.host_id = server->name();
        tb.in_tent = rec.placement == hardware::Placement::kTent;
        tb.operational = [server] { return server->operational(); };
        tb.set_load = [server](double busy) { server->set_cpu_load(busy); };
        traffic_->add_host(std::move(tb));
    } else {
        workload::LoadScheduler::HostBinding load_binding;
        load_binding.host_id = server->id();
        load_binding.ecc = server->spec().ecc_memory;
        load_binding.operational = [server] { return server->operational(); };
        load_->add_host(std::move(load_binding), rec.install_date);
    }

    monitoring::Collector::HostBinding coll;
    coll.host_id = server->id();
    coll.reachable = [server] { return server->operational(); };
    coll.pending_bytes = [this, server](TimePoint since) -> std::uint64_t {
        // rsync delta: ~2 KiB of md5sums/logs per completed 10-min cycle
        // plus ~1 KiB of sensor dumps per 20-min sweep interval.
        const Duration gap = sim_.now() - since;
        if (gap.count() <= 0) return 0;
        const auto cycles = static_cast<std::uint64_t>(gap.count() / 600);
        const auto sweeps = static_cast<std::uint64_t>(gap.count() / 1200);
        (void)server;
        return cycles * 2048 + sweeps * 1024;
    };
    collector_->add_host(std::move(coll), rec.install_date);
}

void ExperimentRunner::tick() {
    const TimePoint now = sim_.now();

    // Traffic is simulated over the interval that just elapsed, so the busy
    // fractions it publishes are the cpu loads whose heat this tick's
    // thermal step integrates (utilization -> power -> heat -> hazard).
    // The first tick closes a zero-length interval and is skipped.
    if (traffic_ && now > config_.start) traffic_->advance(now);

    const weather::WeatherSample outside = station_->observe_now();

    // Enclosures: equipment heat then thermal step.
    tent_->set_equipment_power(fleet_.wall_power(hardware::Placement::kTent));
    basement_->set_equipment_power(fleet_.wall_power(hardware::Placement::kBasement));
    tent_->step(config_.tick, outside);
    basement_->step(config_.tick, outside);

    const thermal::EnclosureAir tent_air = tent_->air();
    const thermal::EnclosureAir basement_air = basement_->air();
    tent_truth_temp_.append(now, tent_air.temperature.value());
    tent_truth_rh_.append(now, tent_air.humidity.value());
    basement_temp_.append(now, basement_air.temperature.value());
    tent_envelope_.observe(config_.tick, tent_air.temperature, tent_air.humidity,
                           tent_air.dew_point);

    // Network wear.
    net_.step(config_.tick);
    check_switches();

    // Hosts: thermal step, hazard, sensors and component wear, in fleet order.
    host_pass(now, outside, tent_air, basement_air);
}

void ExperimentRunner::host_pass(const TimePoint now, const weather::WeatherSample& outside,
                                 const thermal::EnclosureAir& tent_air,
                                 const thermal::EnclosureAir& basement_air) {
    bool condensation_observed = false;
    for (hardware::HostRecord& rec : fleet_.hosts()) {
        hardware::Server& server = *rec.server;
        if (rec.install_date > now) continue;

        const bool in_tent = rec.placement == hardware::Placement::kTent;
        const thermal::EnclosureAir& air =
            in_tent ? tent_air : basement_air;  // indoors ~ basement conditions

        if (server.state() == hardware::RunState::kPoweredOff) {
            server.power_on(air.temperature);
            // Archive: the averaged archival duty cycle.  Traffic: idle
            // until the engine publishes the first real busy fraction.
            server.set_cpu_load(traffic_ ? 0.0 : 0.3);
            event_log_.record(now, LogLevel::kInfo, server.name(),
                              std::string("installed and powered on (") +
                                  hardware::to_string(rec.placement) + ")");
        }

        // Wind through the opened tent raises effective case airflow.
        double airflow = 1.0;
        if (in_tent && (tent_->has_modification(thermal::TentMod::kBottomOpened) ||
                        tent_->has_modification(thermal::TentMod::kFanInstalled))) {
            airflow = 1.0 + 0.04 * outside.wind.value();
        }
        server.step(config_.tick, air.temperature, airflow);

        if (server.operational()) {
            // Stress-driven system-failure process.
            faults::StressState stress;
            stress.intake = air.temperature;
            stress.humidity = air.humidity;
            stress.age_hours = kRecycledAgeHours + server.uptime_hours();
            const auto last = last_intake_.find(server.id());
            if (last != last_intake_.end()) {
                stress.cycling_rate_k_per_h =
                    std::abs(air.temperature.value() - last->second) /
                    (static_cast<double>(config_.tick.count()) / 3600.0);
            }
            last_intake_[server.id()] = air.temperature.value();
            const auto severity = injector_.advance_host(
                server.id(), config_.tick, stress, now, server.name(), in_tent, fault_log_);
            if (severity) handle_failure(rec, *severity);

            // The lm-sensors anomaly watch (Section 4.2.1).
            if (const auto reading = server.read_cpu_sensor()) {
                if (reading->value() < -100.0) handle_sensor_incident(rec, *reading);
            }

            // Component-level wear (fans, disks, media).
            const auto it_cf = component_faults_.find(server.id());
            if (it_cf != component_faults_.end()) {
                const auto events = it_cf->second.advance(
                    config_.tick, air.temperature, server.hdd_temperature(), air.humidity);
                if (!events.empty()) apply_component_events(rec, events);
            }
        }

        // Condensation is tracked on the first tent host's case surface.
        if (in_tent && !condensation_observed && server.operational()) {
            condensation_.observe(now, server.case_surface_temperature(), tent_air.temperature,
                                  tent_air.humidity);
            condensation_observed = true;
        }
    }
}

void ExperimentRunner::handle_failure(hardware::HostRecord& rec,
                                      faults::FaultSeverity severity) {
    hardware::Server* server = rec.server.get();
    const TimePoint now = sim_.now();
    server->crash(faults::to_string(severity));
    event_log_.record(now, LogLevel::kFault, server->name(),
                      std::string("system failure (") + faults::to_string(severity) + ")");

    const TimePoint visit = next_operator_visit(now, config_.operator_hour);
    if (severity == faults::FaultSeverity::kTransient) {
        const int id = server->id();
        sim_.schedule_at(visit, [this, id] {
            hardware::Server* s = fleet_.find(id);
            if (s != nullptr && s->reset()) {
                event_log_.record(sim_.now(), LogLevel::kInfo, s->name(),
                                  "inspected and reset; no cause found; resumed in place");
            }
        });
    } else {
        const int id = server->id();
        sim_.schedule_at(visit, [this, id] {
            hardware::HostRecord* r = fleet_.record(id);
            if (r != nullptr) retire_and_replace(*r);
        });
    }
}

void ExperimentRunner::retire_and_replace(hardware::HostRecord& rec) {
    hardware::Server* server = rec.server.get();
    const TimePoint now = sim_.now();
    const bool was_in_tent = rec.placement == hardware::Placement::kTent;

    // "After this, the host was left to operate in an indoors environment."
    fleet_.set_placement(server->id(), hardware::Placement::kIndoors);
    (void)server->reset();
    event_log_.record(now, LogLevel::kWarning, server->name(),
                      "failed again under Memtest86+; moved indoors permanently");

    if (was_in_tent && !replacement_installed_) {
        replacement_installed_ = true;
        const int failed_id = server->id();
        sim_.schedule_at(now + config_.replacement_lead, [this, failed_id] {
            hardware::Server& repl = fleet_.add_host(
                kReplacementHostId, hardware::Vendor::kB, hardware::Placement::kTent, sim_.now(),
                /*pair_id=*/0, config_.master_seed, /*replaces_id=*/failed_id);
            hardware::HostRecord* rec19 = fleet_.record(kReplacementHostId);
            net_.attach({repl.id(), repl.name()}, tent_switch_a_);
            register_host_with_services(*rec19);
            event_log_.record(sim_.now(), core::LogLevel::kInfo, repl.name(),
                              "replacement host installed in tent for host-" +
                                  std::to_string(failed_id));
        });
    }
}

void ExperimentRunner::handle_sensor_incident(hardware::HostRecord& rec, core::Celsius reading) {
    hardware::Server* server = rec.server.get();
    const int id = server->id();
    if (std::find(sensor_incident_handled_.begin(), sensor_incident_handled_.end(), id) !=
        sensor_incident_handled_.end()) {
        return;
    }
    sensor_incident_handled_.push_back(id);

    const TimePoint now = sim_.now();
    event_log_.record(now, LogLevel::kWarning, server->name(),
                      "lm-sensors reporting clearly erroneous " +
                          core::to_string(reading));
    faults::FaultRecord fr;
    fr.time = now;
    fr.host_id = id;
    fr.source = server->name();
    fr.component = faults::FaultComponent::kSensorChip;
    fr.severity = faults::FaultSeverity::kTransient;
    fr.description = "sensor chip erratic after extreme cold exposure";
    fr.in_tent = rec.placement == hardware::Placement::kTent;
    fault_log_.record(std::move(fr));

    // The operator tries to redetect the chip — which makes it vanish —
    // then risks a warm reboot a week later, which restores it.
    sim_.schedule_at(next_operator_visit(now, config_.operator_hour), [this, id] {
        hardware::Server* s = fleet_.find(id);
        if (s == nullptr) return;
        s->sensor_chip().attempt_redetect();
        event_log_.record(sim_.now(), LogLevel::kWarning, s->name(),
                          "sensor redetect attempted; chip no longer detected");
        sim_.schedule_in(Duration::days(7), [this, id] {
            hardware::Server* host = fleet_.find(id);
            if (host == nullptr) return;
            host->sensor_chip().warm_reboot();
            event_log_.record(sim_.now(), LogLevel::kInfo, host->name(),
                              "warm reboot; sensor chip working again");
        });
    });
}

void ExperimentRunner::apply_component_events(
    hardware::HostRecord& rec, const std::vector<faults::ComponentEvent>& events) {
    hardware::Server& server = *rec.server;
    const TimePoint now = sim_.now();
    const bool in_tent = rec.placement == hardware::Placement::kTent;

    for (const faults::ComponentEvent& ev : events) {
        faults::FaultRecord fr;
        fr.time = now;
        fr.host_id = server.id();
        fr.source = server.name();
        fr.in_tent = in_tent;
        switch (ev.kind) {
            case faults::ComponentEventKind::kFanSeized: {
                auto& fans = server.fans();
                if (ev.component_index >= 0 &&
                    static_cast<std::size_t>(ev.component_index) < fans.size()) {
                    fans[static_cast<std::size_t>(ev.component_index)].seize();
                }
                fr.component = faults::FaultComponent::kFan;
                fr.severity = faults::FaultSeverity::kPermanent;
                fr.description = "case fan #" + std::to_string(ev.component_index) +
                                 " seized (bearing)";
                event_log_.record(now, LogLevel::kWarning, server.name(), fr.description);
                break;
            }
            case faults::ComponentEventKind::kDiskFailed: {
                auto& drives = server.storage().drives();
                if (ev.component_index >= 0 &&
                    static_cast<std::size_t>(ev.component_index) < drives.size()) {
                    drives[static_cast<std::size_t>(ev.component_index)].fail();
                }
                fr.component = faults::FaultComponent::kDisk;
                fr.severity = faults::FaultSeverity::kPermanent;
                fr.description = "drive #" + std::to_string(ev.component_index) + " failed";
                event_log_.record(now, LogLevel::kFault, server.name(), fr.description);
                if (!server.storage().data_available()) {
                    // A vendor-B single drive, or the last leg of an array:
                    // the machine is gone with it.
                    server.crash("storage array lost");
                    event_log_.record(now, LogLevel::kFault, server.name(),
                                      "storage array lost; host down");
                } else if (server.storage().degraded()) {
                    event_log_.record(now, LogLevel::kWarning, server.name(),
                                      std::string("array degraded (") +
                                          hardware::to_string(server.storage().layout()) +
                                          "), continuing");
                }
                break;
            }
            case faults::ComponentEventKind::kDiskMediaError: {
                auto& drives = server.storage().drives();
                if (ev.component_index >= 0 &&
                    static_cast<std::size_t>(ev.component_index) < drives.size()) {
                    drives[static_cast<std::size_t>(ev.component_index)]
                        .smart()
                        .add_pending_sectors(ev.detail);
                }
                fr.component = faults::FaultComponent::kDisk;
                fr.severity = faults::FaultSeverity::kTransient;
                fr.description = "drive #" + std::to_string(ev.component_index) + " grew " +
                                 std::to_string(ev.detail) + " pending sectors";
                event_log_.record(now, LogLevel::kWarning, server.name(), fr.description);
                break;
            }
        }
        fault_log_.record(std::move(fr));
    }
}

void ExperimentRunner::check_switches() {
    for (const std::size_t idx : {tent_switch_a_, tent_switch_b_}) {
        hardware::NetworkSwitch& sw = net_.switch_at(idx);
        if (sw.operational()) continue;
        if (std::find(switch_replacement_pending_.begin(), switch_replacement_pending_.end(),
                      idx) != switch_replacement_pending_.end()) {
            continue;  // operator already on the way
        }
        switch_replacement_pending_.push_back(idx);

        faults::FaultRecord fr;
        fr.time = sim_.now();
        fr.host_id = 0;
        fr.source = sw.name();
        fr.component = faults::FaultComponent::kSwitch;
        fr.severity = faults::FaultSeverity::kPermanent;
        fr.description = "8-port switch failed (defect inherent; unit whined since day one)";
        fr.in_tent = true;
        event_log_.record(fr.time, LogLevel::kFault, fr.source, fr.description);
        fault_log_.record(std::move(fr));

        // The operator swaps in a replacement at the next visit.  The first
        // spare is the third whining unit — which "manifested an identical
        // failure state" under test — so later replacements are healthy.
        sim_.schedule_at(next_operator_visit(sim_.now(), config_.operator_hour), [this, idx] {
            const bool spare_also_defective = spare_switches_used_ == 0;
            ++spare_switches_used_;
            hardware::SwitchConfig cfg;
            cfg.inherent_defect = spare_also_defective;
            cfg.defect_mean_hours_to_failure = config_.switch_defect_mean_hours;
            const std::string new_name =
                spare_also_defective ? "tent-switch-spare (also whining)" : "tent-switch-new";
            net_.replace_switch(
                idx,
                hardware::NetworkSwitch(
                    new_name, cfg,
                    core::RngStream{config_.master_seed,
                                    "switch.spare." + std::to_string(spare_switches_used_)}));
            switch_replacement_pending_.erase(
                std::remove(switch_replacement_pending_.begin(),
                            switch_replacement_pending_.end(), idx),
                switch_replacement_pending_.end());
            event_log_.record(sim_.now(), LogLevel::kInfo, new_name,
                              "installed as replacement");
        });
    }
}

void ExperimentRunner::run_until(core::TimePoint t) { sim_.run_until(t); }

void ExperimentRunner::run() {
    run_until(config_.end);
    condensation_.finish(config_.end);
}

}  // namespace zerodeg::experiment
