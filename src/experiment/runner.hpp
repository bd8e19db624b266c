// The experiment runner: wires weather, enclosures, fleet, faults, load,
// and monitoring together and replays the paper's season.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "core/event_queue.hpp"
#include "core/log.hpp"
#include "experiment/config.hpp"
#include "faults/component_faults.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_log.hpp"
#include "hardware/fleet.hpp"
#include "monitoring/collector.hpp"
#include "monitoring/datalogger.hpp"
#include "monitoring/netsim.hpp"
#include "monitoring/power_meter.hpp"
#include "thermal/condensation.hpp"
#include "thermal/enclosure.hpp"
#include "thermal/envelope.hpp"
#include "weather/weather_station.hpp"
#include "workload/scheduler.hpp"
#include "workload/traffic.hpp"

namespace zerodeg::experiment {

/// Everything a bench or example wants to look at after a run.
class ExperimentRunner {
public:
    explicit ExperimentRunner(ExperimentConfig config = {});
    ~ExperimentRunner();

    ExperimentRunner(const ExperimentRunner&) = delete;
    ExperimentRunner& operator=(const ExperimentRunner&) = delete;

    /// Run the whole configured window.
    void run();
    /// Run up to a given time (callable repeatedly).
    void run_until(core::TimePoint t);

    // --- accessors for reports/benches -------------------------------------
    [[nodiscard]] const ExperimentConfig& config() const { return config_; }
    [[nodiscard]] core::Simulator& simulator() { return sim_; }
    [[nodiscard]] const weather::WeatherStation& station() const { return *station_; }
    [[nodiscard]] const thermal::TentModel& tent() const { return *tent_; }
    [[nodiscard]] const thermal::BasementModel& basement() const { return *basement_; }
    [[nodiscard]] hardware::Fleet& fleet() { return fleet_; }
    [[nodiscard]] const hardware::Fleet& fleet() const { return fleet_; }
    [[nodiscard]] const faults::FaultLog& fault_log() const { return fault_log_; }
    [[nodiscard]] const core::EventLog& event_log() const { return event_log_; }
    [[nodiscard]] const workload::LoadScheduler& load() const { return *load_; }
    /// Request-serving workload; only present when config.workload is
    /// kTraffic (check has_traffic() first).
    [[nodiscard]] bool has_traffic() const { return traffic_ != nullptr; }
    [[nodiscard]] const workload::TrafficEngine& traffic() const { return *traffic_; }
    [[nodiscard]] const monitoring::LascarLogger& tent_logger() const { return *tent_logger_; }
    [[nodiscard]] const monitoring::Collector& collector() const { return *collector_; }
    [[nodiscard]] const monitoring::Network& network() const { return net_; }
    [[nodiscard]] const monitoring::TechnolineMeter& tent_meter() const { return *tent_meter_; }
    [[nodiscard]] const thermal::CondensationAnalyzer& condensation() const {
        return condensation_;
    }
    /// Time-in-envelope metering of the tent intake air (ASHRAE-allowable).
    [[nodiscard]] const thermal::EnvelopeTracker& tent_envelope() const {
        return tent_envelope_;
    }

    /// Tent air temperature/humidity sampled every tick (ground truth, not
    /// the noisy logger) — what Fig. 3/4's "inside" curves measure.
    [[nodiscard]] const core::TimeSeries& tent_truth_temperature() const {
        return tent_truth_temp_;
    }
    [[nodiscard]] const core::TimeSeries& tent_truth_humidity() const { return tent_truth_rh_; }
    [[nodiscard]] const core::TimeSeries& basement_temperature() const { return basement_temp_; }

    /// Host #19 is created when #15 is retired; id of the replacement host.
    static constexpr int kReplacementHostId = 19;

private:
    ExperimentConfig config_;
    core::Simulator sim_;
    std::unique_ptr<weather::WeatherStation> station_;
    std::unique_ptr<thermal::TentModel> tent_;
    std::unique_ptr<thermal::BasementModel> basement_;
    hardware::Fleet fleet_;
    faults::FaultInjector injector_;
    faults::FaultLog fault_log_;
    core::EventLog event_log_;
    std::unique_ptr<workload::LoadScheduler> load_;
    std::unique_ptr<workload::TrafficEngine> traffic_;
    monitoring::Network net_;
    std::unique_ptr<monitoring::Collector> collector_;
    std::unique_ptr<monitoring::LascarLogger> tent_logger_;
    std::unique_ptr<monitoring::TechnolineMeter> tent_meter_;
    thermal::CondensationAnalyzer condensation_;
    core::TimeSeries tent_truth_temp_{"tent_true_temp_degC"};
    core::TimeSeries tent_truth_rh_{"tent_true_rh_pct"};
    core::TimeSeries basement_temp_{"basement_temp_degC"};

    std::size_t tent_switch_a_ = 0;
    std::size_t tent_switch_b_ = 0;
    int spare_switches_used_ = 0;
    bool replacement_installed_ = false;
    std::vector<int> sensor_incident_handled_;
    std::vector<std::size_t> switch_replacement_pending_;
    std::map<int, double> last_intake_;
    std::map<int, faults::ComponentFaultProcess> component_faults_;
    thermal::EnvelopeTracker tent_envelope_{thermal::ashrae_allowable()};

    static constexpr int kMonitorNodeId = 1000;

    void wire_hosts();
    void register_host_with_services(hardware::HostRecord& rec);
    void tick();
    void host_pass(core::TimePoint now, const weather::WeatherSample& outside,
                   const thermal::EnclosureAir& tent_air,
                   const thermal::EnclosureAir& basement_air);
    void handle_failure(hardware::HostRecord& rec, faults::FaultSeverity severity);
    void retire_and_replace(hardware::HostRecord& rec);
    void handle_sensor_incident(hardware::HostRecord& rec, core::Celsius reading);
    void apply_component_events(hardware::HostRecord& rec,
                                const std::vector<faults::ComponentEvent>& events);
    void check_switches();
};

}  // namespace zerodeg::experiment
