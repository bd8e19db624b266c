#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "experiment/census.hpp"
#include "experiment/runner.hpp"
#include "experiment/shard_protocol.hpp"
#include "experiment/sweep_journal.hpp"
#include "faults/hazard.hpp"
#include "faults/memory_faults.hpp"
#include "spans.hpp"
#include "thermal/enclosure.hpp"
#include "weather/weather_model.hpp"
#include "workload/compressor.hpp"
#include "workload/crc32.hpp"
#include "workload/load_job.hpp"
#include "workload/md5.hpp"
#include "workload/slo.hpp"
#include "workload/traffic.hpp"
#include "workloads.hpp"

namespace zdbench {

namespace {

namespace core = zerodeg::core;
namespace exp = zerodeg::experiment;
namespace hw = zerodeg::hardware;
namespace wl = zerodeg::workload;

/// The fleet was headed for recycling: hazard age starts here (the runner's
/// own offset, reproduced so the replayed stress matches the season's).
constexpr double kRecycledAgeHours = 22000.0;

/// One tick's layer inputs, read from the runner after the tick.
struct TickInputs {
    core::TimePoint time;
    zerodeg::weather::WeatherSample outside;
    core::Watts tent_power{0.0};
    core::Watts basement_power{0.0};
    double tent_temp_c = 0.0;
    std::size_t stress_begin = 0;  ///< into SeasonRecord::stress
    std::size_t stress_end = 0;
    std::size_t up_begin = 0;      ///< into SeasonRecord::host_up, fleet order
    std::size_t up_count = 0;
};

struct SeasonRecord {
    ExperimentConfig config;
    std::vector<TickInputs> ticks;
    std::vector<zerodeg::faults::StressState> stress;
    std::vector<std::uint8_t> host_up;
    struct Host {
        int id = 0;
        bool ecc = false;
        bool in_tent = false;
        std::uint64_t load_runs = 0;  ///< archive runs the season made on it
    };
    std::vector<Host> hosts;  ///< fleet at the end of the season
    double initial_temp_c = 0.0;
    std::vector<double> tick_s;
    double season_s = 0.0;  ///< sum of tick spans
    FaultCensus census;
};

/// One season stepped tick by tick with a span per tick.  With `record`
/// set, each tick's layer inputs are kept for the replays.
FaultCensus traced_season(const ExperimentConfig& config, SpanRecorder& spans,
                          std::int64_t cell, SeasonRecord* record, double& setup_s) {
    const Clock::time_point t0 = Clock::now();
    exp::ExperimentRunner runner(config);
    const Clock::time_point t1 = Clock::now();
    spans.add("experiment.setup", t0, t1, SpanRecorder::kNoParent, cell);
    setup_s = Clock::seconds_between(t0, t1);

    const std::int32_t root = spans.begin("experiment.season", SpanRecorder::kNoParent, cell);
    std::map<int, double> last_intake;
    if (record) record->initial_temp_c = runner.station().current().temperature.value();
    for (core::TimePoint t = config.start; t <= config.end; t += config.tick) {
        const Clock::time_point a = Clock::now();
        runner.run_until(t);
        const Clock::time_point b = Clock::now();
        spans.add("experiment.tick", a, b, root, cell);
        if (!record) continue;
        record->tick_s.push_back(Clock::seconds_between(a, b));

        TickInputs in;
        in.time = t;
        in.outside = runner.station().current();
        in.tent_power = runner.fleet().wall_power(hw::Placement::kTent);
        in.basement_power = runner.fleet().wall_power(hw::Placement::kBasement);
        const zerodeg::thermal::EnclosureAir tent = runner.tent().air();
        const zerodeg::thermal::EnclosureAir basement = runner.basement().air();
        in.tent_temp_c = tent.temperature.value();
        in.stress_begin = record->stress.size();
        in.up_begin = record->host_up.size();
        for (const hw::HostRecord& rec : runner.fleet().hosts()) {
            const hw::Server& server = *rec.server;
            record->host_up.push_back(server.operational() ? 1 : 0);
            if (rec.install_date > t || !server.operational()) continue;
            const zerodeg::thermal::EnclosureAir& air =
                rec.placement == hw::Placement::kTent ? tent : basement;
            zerodeg::faults::StressState s;
            s.intake = air.temperature;
            s.humidity = air.humidity;
            s.age_hours = kRecycledAgeHours + server.uptime_hours();
            s.known_unreliable = server.spec().known_unreliable;
            const auto last = last_intake.find(server.id());
            if (last != last_intake.end()) {
                s.cycling_rate_k_per_h = std::abs(air.temperature.value() - last->second) /
                                         (static_cast<double>(config.tick.count()) / 3600.0);
            }
            last_intake[server.id()] = air.temperature.value();
            record->stress.push_back(s);
        }
        in.stress_end = record->stress.size();
        in.up_count = record->host_up.size() - in.up_begin;
        record->ticks.push_back(in);
    }
    spans.end(root);
    FaultCensus census = exp::take_census(runner);
    if (record) {
        record->config = config;
        for (const double s : record->tick_s) record->season_s += s;
        record->census = census;
        const auto& load = runner.load().all_stats();
        for (const hw::HostRecord& rec : runner.fleet().hosts()) {
            const auto it = load.find(rec.server->id());
            record->hosts.push_back({rec.server->id(), rec.server->spec().ecc_memory,
                                     rec.placement == hw::Placement::kTent,
                                     it == load.end() ? 0 : it->second.runs});
        }
    }
    return census;
}

/// Time `op` over `bytes` input bytes until at least 50 ms and 3 reps have
/// passed; MB/s of input.
template <typename Op>
double rate_mb_s(std::size_t bytes, Op&& op) {
    std::size_t reps = 0;
    const Clock::time_point start = Clock::now();
    double secs = 0.0;
    while (reps < 3 || secs < 0.05) {
        op();
        ++reps;
        secs = seconds_since(start);
    }
    return static_cast<double>(bytes) * static_cast<double>(reps) / secs / 1e6;
}

void replay_weather(const SeasonRecord& rec, SpanRecorder& spans, Outcome& out) {
    zerodeg::weather::WeatherModel model(rec.config.weather, rec.config.master_seed);
    (void)model.advance_to(rec.config.start);
    const std::int32_t root = spans.begin("replay.weather");
    std::size_t mismatches = 0;
    for (const TickInputs& in : rec.ticks) {
        const Clock::time_point a = Clock::now();
        const zerodeg::weather::WeatherSample s = model.advance_to(in.time);
        spans.add("weather.advance_to", a, Clock::now(), root);
        if (s.temperature.value() != in.outside.temperature.value()) ++mismatches;
    }
    spans.end(root);
    if (mismatches) out.fail("weather replay diverged from the season at " +
                             std::to_string(mismatches) + " ticks");
    out.add("weather.samples", static_cast<double>(rec.ticks.size()), "count");
}

void replay_thermal(const SeasonRecord& rec, SpanRecorder& spans, std::vector<double>& step_us,
                    Outcome& out) {
    zerodeg::thermal::TentModel tent(rec.config.tent, core::Celsius{rec.initial_temp_c});
    zerodeg::thermal::BasementModel basement;
    auto mods = rec.config.tent_mods;
    std::sort(mods.begin(), mods.end(),
              [](const auto& a, const auto& b) { return a.when < b.when; });
    std::size_t next_mod = 0;
    double abs_err = 0.0;
    const std::int32_t root = spans.begin("replay.thermal");
    for (std::size_t i = 0; i < rec.ticks.size(); ++i) {
        const TickInputs& in = rec.ticks[i];
        while (next_mod < mods.size() && mods[next_mod].when <= in.time) {
            tent.apply_modification(mods[next_mod++].mod);
        }
        // Equipment heat is what the fleet drew when the tick began, i.e.
        // as the previous tick left it.
        const core::Watts tent_w = i > 0 ? rec.ticks[i - 1].tent_power : core::Watts{0.0};
        const core::Watts basement_w = i > 0 ? rec.ticks[i - 1].basement_power : core::Watts{0.0};
        const Clock::time_point a = Clock::now();
        tent.set_equipment_power(tent_w);
        basement.set_equipment_power(basement_w);
        tent.step(rec.config.tick, in.outside);
        basement.step(rec.config.tick, in.outside);
        const Clock::time_point b = Clock::now();
        spans.add("thermal.step", a, b, root);
        step_us.push_back(Clock::seconds_between(a, b) * 1e6);
        abs_err += std::abs(tent.air().temperature.value() - in.tent_temp_c);
    }
    spans.end(root);
    const double mean_err =
        abs_err / static_cast<double>(std::max<std::size_t>(1, rec.ticks.size()));
    if (!(mean_err < 0.5)) {
        out.fail("thermal replay: tent temperature off the season by " +
                 std::to_string(mean_err) + " degC on average");
    }
}

void replay_hazard(const SeasonRecord& rec, SpanRecorder& spans, Outcome& out) {
    std::vector<double> build_s;
    std::optional<zerodeg::faults::HostHazardModel> model;
    for (int i = 0; i < 5; ++i) {
        const Clock::time_point a = Clock::now();
        model.emplace(rec.config.faults.hazard);
        const Clock::time_point b = Clock::now();
        spans.add("faults.model_build", a, b);
        build_s.push_back(Clock::seconds_between(a, b));
    }
    const std::int32_t root = spans.begin("replay.faults");
    double sum = 0.0;
    for (const TickInputs& in : rec.ticks) {
        const Clock::time_point a = Clock::now();
        for (std::size_t k = in.stress_begin; k < in.stress_end; ++k) {
            sum += model->hazard_per_hour(rec.stress[k]);
        }
        spans.add("faults.hazard_tick", a, Clock::now(), root);
    }
    spans.end(root);
    if (!(sum > 0.0 && std::isfinite(sum))) out.fail("hazard replay gave a non-positive total");
    out.add("faults.model_build_s", median(build_s), "s");
    out.add("faults.hazard_evals", static_cast<double>(rec.stress.size()), "count");
}

void replay_load(const SeasonRecord& rec, double delay_us, SpanRecorder& spans, double& busy_s,
                 Outcome& out) {
    const ExperimentConfig& cfg = rec.config;
    std::vector<double> setup_s;
    std::optional<wl::LoadJob> job;
    for (int i = 0; i < 3; ++i) {
        const Clock::time_point a = Clock::now();
        job.emplace(cfg.load, cfg.master_seed);
        const Clock::time_point b = Clock::now();
        spans.add("workload.loadjob_setup", a, b);
        setup_s.push_back(Clock::seconds_between(a, b));
    }
    // Each host's runs of the season, in order, against the memory-fault
    // stream the season's scheduler gave that host: the replay meets the
    // same bit flips, so it must find the season's wrong hashes.
    std::vector<double> run_us;
    run_us.reserve(rec.census.load_runs);
    std::uint64_t runs = 0;
    std::uint64_t wrong = 0;
    const std::int32_t root = spans.begin("replay.workload");
    for (const SeasonRecord::Host& h : rec.hosts) {
        zerodeg::faults::MemoryFaultModel memory(
            cfg.memory, core::RngStream{cfg.master_seed, "load.mem." + std::to_string(h.id)});
        const std::int32_t host_span = spans.begin("workload.load_host", root, h.id);
        for (std::uint64_t k = 0; k < h.load_runs; ++k) {
            const Clock::time_point a = Clock::now();
            const wl::JobResult result = job->run(memory, h.ecc);
            busy_wait_us(delay_us);
            run_us.push_back(Clock::seconds_between(a, Clock::now()) * 1e6);
            if (!result.hash_ok) ++wrong;
        }
        spans.end(host_span);
        runs += h.load_runs;
    }
    spans.end(root);
    busy_s = spans.self_seconds()["workload.load_host"];
    if (runs != rec.census.load_runs || wrong != rec.census.wrong_hashes) {
        out.fail("load replay: " + std::to_string(runs) + " runs, " + std::to_string(wrong) +
                 " wrong hashes; the season had " + std::to_string(rec.census.load_runs) +
                 " and " + std::to_string(rec.census.wrong_hashes));
    }

    // Codec rates on the job's own archive and container bytes.
    const std::vector<std::uint8_t>& container = job->reference_container();
    const std::vector<std::uint8_t> archive = wl::frost_decompress(container);
    const std::int32_t codec = spans.begin("replay.codec");
    const double compress = rate_mb_s(archive.size(), [&] {
        ScopedSpan s(&spans, "workload.frost_compress", codec);
        if (wl::frost_compress(archive, job->compressor_config()) != container) {
            out.fail("frost_compress of the job's archive differs from its container");
        }
    });
    const double decompress = rate_mb_s(container.size(), [&] {
        ScopedSpan s(&spans, "workload.frost_decompress", codec);
        if (wl::frost_decompress(container) != archive) out.fail("frost roundtrip differs");
    });
    const wl::Md5Digest want_md5 = wl::md5(container);
    const double md5 = rate_mb_s(container.size(), [&] {
        ScopedSpan s(&spans, "workload.md5", codec);
        if (wl::md5(container) != want_md5) out.fail("md5 is not deterministic");
    });
    const std::uint32_t want_crc = wl::crc32(archive);
    const double crc = rate_mb_s(archive.size(), [&] {
        ScopedSpan s(&spans, "workload.crc32", codec);
        if (wl::crc32(archive) != want_crc) out.fail("crc32 is not deterministic");
    });
    spans.end(codec);
    if (archive.size() != job->archive_bytes()) out.fail("decompressed archive has the wrong size");

    out.add("workload.loadjob_setup_s", median(setup_s), "s");
    out.add("workload.load_runs", static_cast<double>(runs), "count");
    out.add("workload.load_run_us_p50", quantile(run_us, 0.5), "us");
    out.add("workload.load_run_us_p99", quantile(run_us, 0.99), "us");
    out.add("workload.load_busy_s", busy_s, "s");
    out.add("workload.frost_compress_mb_s", compress, "MB/s");
    out.add("workload.frost_decompress_mb_s", decompress, "MB/s");
    out.add("workload.md5_mb_s", md5, "MB/s");
    out.add("workload.crc32_mb_s", crc, "MB/s");
    out.add("workload.archive_bytes", static_cast<double>(archive.size()), "bytes");
    out.add("workload.container_bytes", static_cast<double>(container.size()), "bytes");
}

void replay_traffic(const SeasonRecord& rec, SpanRecorder& spans, double& busy_s,
                    Outcome& out) {
    const ExperimentConfig& cfg = rec.config;
    wl::TrafficEngine engine(cfg.traffic, cfg.master_seed, cfg.start);
    // Hosts are dispatchable as the season left them at the previous tick.
    std::size_t prev = 0;
    for (std::size_t h = 0; h < rec.hosts.size(); ++h) {
        wl::TrafficEngine::HostBinding b;
        b.host_id = std::to_string(rec.hosts[h].id);
        b.in_tent = rec.hosts[h].in_tent;
        b.operational = [&rec, &prev, h] {
            const TickInputs& in = rec.ticks[prev];
            return h < in.up_count && rec.host_up[in.up_begin + h] != 0;
        };
        b.set_load = [](double) {};
        engine.add_host(std::move(b));
    }
    std::vector<double> advance_us;
    std::size_t in_flight_max = 0;
    const std::int32_t root = spans.begin("replay.traffic");
    for (std::size_t i = 1; i < rec.ticks.size(); ++i) {
        prev = i - 1;
        const Clock::time_point a = Clock::now();
        engine.advance(rec.ticks[i].time);
        const Clock::time_point b = Clock::now();
        spans.add("traffic.advance", a, b, root);
        advance_us.push_back(Clock::seconds_between(a, b) * 1e6);
        in_flight_max = std::max(in_flight_max, engine.in_flight());
    }
    spans.end(root);
    busy_s = spans.self_seconds()["traffic.advance"];
    const std::uint64_t requests = engine.slo().completed() + engine.slo().dropped();
    if (engine.slo().completed() != rec.census.requests_completed ||
        engine.slo().deadline_misses() != rec.census.deadline_misses) {
        out.fail("traffic replay: " + std::to_string(engine.slo().completed()) + " completed, " +
                 std::to_string(engine.slo().deadline_misses()) + " misses; the season had " +
                 std::to_string(rec.census.requests_completed) + " and " +
                 std::to_string(rec.census.deadline_misses));
    }

    // SLO accounting replayed on the engine's per-tick completion counts,
    // with sojourns spread between each tick's p50 and p99.
    wl::SloTracker slo(cfg.traffic.deadline_seconds);
    std::vector<double> close_us;
    const std::int32_t slo_root = spans.begin("replay.slo");
    for (const wl::SloTickRow& row : engine.slo().tick_rows()) {
        for (std::uint64_t k = 0; k < row.completed; ++k) {
            const double x = static_cast<double>(k) / static_cast<double>(row.completed);
            slo.record(row.p50_seconds + (row.p99_seconds - row.p50_seconds) * x * x);
        }
        for (std::uint64_t k = 0; k < row.dropped; ++k) slo.record_dropped();
        const Clock::time_point a = Clock::now();
        slo.close_tick(row.time, row.mean_utilization);
        const Clock::time_point b = Clock::now();
        spans.add("traffic.slo_close", a, b, slo_root);
        close_us.push_back(Clock::seconds_between(a, b) * 1e6);
    }
    spans.end(slo_root);
    if (slo.completed() != engine.slo().completed()) out.fail("SLO replay lost completions");

    out.add("traffic.requests", static_cast<double>(requests), "count");
    out.add("traffic.advance_us_p50", quantile(advance_us, 0.5), "us");
    out.add("traffic.advance_us_p99", quantile(advance_us, 0.99), "us");
    out.add("traffic.busy_s", busy_s, "s");
    out.add("traffic.slo_close_us_p50", quantile(close_us, 0.5), "us");
    out.add("traffic.in_flight_max", static_cast<double>(in_flight_max), "count");
}

void trace_campaign(const Campaign& campaign, SpanRecorder& spans, Outcome& out) {
    const std::int32_t root = spans.begin("campaign");
    const CampaignRun run = run_campaign_once(campaign, &spans, root, out);
    spans.end(root);
    const TimingFs::Stats& io = run.io;
    const exp::CoordinatorReport& c = run.outcome.coordinator;
    std::size_t resends = 0;
    for (const exp::WorkerReport& w : run.outcome.workers) resends += w.resends;
    const double cells = static_cast<double>(campaign.reference.size());

    // The shard-protocol codec, replayed on the campaign's own cells.
    std::vector<double> encode_us;
    std::vector<double> decode_us;
    const std::vector<FaultCensus>& censuses = run.outcome.result.censuses;
    const std::int32_t codec = spans.begin("replay.codec.zdsp1");
    for (std::size_t i = 0; i < censuses.size(); ++i) {
        const Clock::time_point a = Clock::now();
        const std::string frame = exp::encode_cell(i, censuses[i]);
        const Clock::time_point b = Clock::now();
        const exp::Frame decoded = exp::decode_frame(frame);
        const Clock::time_point d = Clock::now();
        spans.add("codec.encode_cell", a, b, codec, static_cast<std::int64_t>(i));
        spans.add("codec.decode", b, d, codec, static_cast<std::int64_t>(i));
        encode_us.push_back(Clock::seconds_between(a, b) * 1e6);
        decode_us.push_back(Clock::seconds_between(b, d) * 1e6);
        if (decoded.type != exp::FrameType::kCell || decoded.cell.index != i ||
            census_line(i, decoded.cell.census) != campaign.reference[i]) {
            out.fail("zdsp1 cell frame did not round-trip at cell " + std::to_string(i));
        }
    }
    spans.end(codec);

    // The journal layer's public call, SweepJournal::record, replayed on the
    // campaign's cells in index order into a fresh in-memory journal: the
    // render of the whole file plus its tmp+rename, per record.
    MemFs disk;
    const std::filesystem::path path = "replay.journal";
    exp::SweepJournal journal(path, exp::ParallelCensus(campaign.plan).journal_key(), false,
                              &disk);
    std::vector<double> record_us;
    const std::int32_t journal_root = spans.begin("replay.journal");
    for (std::size_t i = 0; i < censuses.size(); ++i) {
        const Clock::time_point a = Clock::now();
        journal.record(i, censuses[i]);
        const Clock::time_point b = Clock::now();
        spans.add("journal.record", a, b, journal_root, static_cast<std::int64_t>(i));
        record_us.push_back(Clock::seconds_between(a, b) * 1e6);
    }
    spans.end(journal_root);
    if (disk.read_file(path) != run.merged_journal) {
        out.fail("journal replay: the replayed journal differs from the campaign's merged journal");
    }
    const double record_busy = spans.self_seconds()["journal.record"];

    const double recorded = static_cast<double>(c.cells_recorded);
    out.add("campaign.frames", static_cast<double>(c.frames), "count");
    out.add("campaign.frames_per_cell", static_cast<double>(c.frames) / cells, "count");
    out.add("campaign.leases", static_cast<double>(c.leases_granted), "count");
    out.add("campaign.duplicates", static_cast<double>(c.duplicates), "count");
    out.add("campaign.resends", static_cast<double>(resends), "count");
    out.add("campaign.useful_frac",
          recorded / std::max(1.0, recorded + static_cast<double>(c.duplicates)), "frac");
    out.add("campaign.cell_busy_s", spans.self_seconds()["campaign.run_cell"], "s");
    out.add("codec.encode_cell_us", median(encode_us), "us");
    out.add("codec.decode_us", median(decode_us), "us");
    out.add("journal.writes", static_cast<double>(io.writes), "count");
    out.add("journal.renames", static_cast<double>(io.renames), "count");
    out.add("journal.bytes_written", static_cast<double>(io.bytes), "bytes");
    out.add("journal.merged_bytes_written", static_cast<double>(io.merged_bytes), "bytes");
    out.add("journal.worker_bytes_written", static_cast<double>(io.worker_bytes), "bytes");
    out.add("journal.bytes_per_cell", static_cast<double>(io.bytes) / cells, "bytes");
    out.add("journal.write_us_p50", quantile(io.write_s, 0.5) * 1e6, "us");
    out.add("journal.write_us_p99", quantile(io.write_s, 0.99) * 1e6, "us");
    out.add("journal.busy_s", io.busy_s, "s");
    out.add("journal.record_us_p50", quantile(record_us, 0.5), "us");
    out.add("journal.record_us_p99", quantile(record_us, 0.99), "us");
    out.add("journal.record_busy_s", record_busy, "s");
    out.add("journal.record_share", record_busy / run.wall_s, "frac");
}

/// Alternate untraced and traced units of the workload until the budget is
/// spent; returns the median traced/untraced wall ratio minus 1.  Traced
/// seasons must give the untraced census exactly.
double tracing_overhead(const RunOptions& opts, const Campaign* campaign, WorkloadKind kind,
                        double budget_s, SpanRecorder& spans, std::vector<double>& setup_s,
                        Outcome& out) {
    std::vector<double> ratios;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; ratios.empty() || seconds_since(start) < budget_s; ++i) {
        double plain_s = 0.0;
        double traced_s = 0.0;
        if (campaign) {
            plain_s = run_campaign_once(*campaign, nullptr, -1, out).wall_s;
            const std::int32_t root = spans.begin("campaign");
            const Clock::time_point a = Clock::now();
            (void)run_campaign_once(*campaign, &spans, root, out);
            traced_s = seconds_since(a);
            spans.end(root);
        } else {
            out.attempted += 2;
            const ExperimentConfig config = season_config(kind, base_seed(opts.seed) + i);
            SeasonTiming timing;
            const FaultCensus plain = timed_season(config, 0.0, timing);
            plain_s = timing.cell_s;
            const Clock::time_point a = Clock::now();
            double setup = 0.0;
            const FaultCensus traced =
                traced_season(config, spans, static_cast<std::int64_t>(i), nullptr, setup);
            traced_s = seconds_since(a);
            setup_s.push_back(setup);
            if (census_line(i, plain) != census_line(i, traced)) {
                ++out.failed;
                out.fail("tracing changed the census of seed " +
                         std::to_string(config.master_seed));
            }
        }
        if (plain_s > 0.0) ratios.push_back(traced_s / plain_s);
    }
    std::cout << "trace.overhead_frac over " << ratios.size() << " traced/untraced pairs\n";
    return median(ratios) - 1.0;
}

}  // namespace

Outcome run_traced(const RunOptions& opts) {
    Outcome out;
    SpanRecorder spans;
    const Clock::time_point start = Clock::now();
    const WorkloadKind host_kind =
        opts.workload == Workload::kTrafficCensus ? WorkloadKind::kTraffic : WorkloadKind::kArchive;
    if (opts.workload != Workload::kCampaign) check_golden(host_kind, out);

    // The two probe seasons; the workload's own kind hosts the shares of the
    // layers every season runs (campaign cells stand in for archive seasons).
    const std::uint64_t seed = base_seed(opts.seed);
    SeasonRecord archive;
    SeasonRecord traffic;
    double setup = 0.0;
    std::vector<double> setup_s;
    for (SeasonRecord* rec : {&archive, &traffic}) {
        const WorkloadKind kind = rec == &archive ? WorkloadKind::kArchive : WorkloadKind::kTraffic;
        ++out.attempted;
        (void)traced_season(season_config(kind, seed), spans, SpanRecorder::kNoCell, rec, setup);
        check_cell(kind, seed, rec->census, out);
        if (kind == host_kind) setup_s.push_back(setup);
    }
    const SeasonRecord& host = host_kind == WorkloadKind::kArchive ? archive : traffic;

    replay_weather(host, spans, out);
    std::vector<double> step_us;
    replay_thermal(host, spans, step_us, out);
    replay_hazard(host, spans, out);
    double load_busy = 0.0;
    replay_load(archive, opts.load_delay_us, spans, load_busy, out);
    double traffic_busy = 0.0;
    replay_traffic(traffic, spans, traffic_busy, out);

    const Campaign campaign = make_campaign(opts);
    trace_campaign(campaign, spans, out);

    const double budget = opts.seconds - seconds_since(start);
    const double overhead =
        tracing_overhead(opts, opts.workload == Workload::kCampaign ? &campaign : nullptr,
                         host_kind, budget, spans, setup_s, out);

    // Shares of each layer's busy time in the wall time of the season that
    // runs it; the archive pipeline and the traffic engine each run in one
    // season kind only.
    std::map<std::string, double> self = spans.self_seconds();
    const double weather_s = self["weather.advance_to"];
    const double thermal_s = self["thermal.step"];
    const double faults_s = self["faults.hazard_tick"];
    const double weather_share = weather_s / host.season_s;
    const double thermal_share = thermal_s / host.season_s;
    const double faults_share = faults_s / host.season_s;
    const double load_share = load_busy / archive.season_s;
    const double traffic_share = traffic_busy / traffic.season_s;
    const double workload_share = host_kind == WorkloadKind::kArchive ? load_share : traffic_share;

    std::vector<double> tick_us;
    for (const double s : host.tick_s) tick_us.push_back(s * 1e6);
    out.add("experiment.ticks", static_cast<double>(host.ticks.size()), "count");
    out.add("experiment.tick_us_p50", quantile(tick_us, 0.5), "us");
    out.add("experiment.tick_us_p99", quantile(tick_us, 0.99), "us");
    out.add("experiment.season_s", host.season_s, "s");
    out.add("experiment.other_share",
            1.0 - (weather_share + thermal_share + faults_share + workload_share), "frac");
    out.add("experiment.setup_s", median(setup_s), "s");
    out.add("workload.load_share", load_share, "frac");
    out.add("traffic.share", traffic_share, "frac");
    out.add("faults.hazard_ns_per_eval",
            faults_s / static_cast<double>(std::max<std::size_t>(1, host.stress.size())) * 1e9,
            "ns");
    out.add("faults.share", faults_share, "frac");
    out.add("weather.busy_s", weather_s, "s");
    out.add("weather.share", weather_share, "frac");
    out.add("thermal.steps", static_cast<double>(step_us.size()), "count");
    out.add("thermal.step_us_p50", quantile(step_us, 0.5), "us");
    out.add("thermal.busy_s", thermal_s, "s");
    out.add("thermal.share", thermal_share, "frac");
    out.add("trace.overhead_frac", overhead, "frac");

    // Print layer by layer.
    const std::vector<std::string> layers = {"experiment.", "workload.", "traffic.",
                                             "faults.",     "weather.",  "thermal.",
                                             "campaign.",   "codec.",    "journal.", "trace."};
    const auto layer_of = [&](const Metric& m) {
        std::size_t i = 0;
        while (i < layers.size() && m.name.rfind(layers[i], 0) != 0) ++i;
        return i;
    };
    std::stable_sort(out.metrics.begin(), out.metrics.end(),
                     [&](const Metric& a, const Metric& b) { return layer_of(a) < layer_of(b); });

    const char* name = opts.workload == Workload::kArchiveCensus   ? "archive_census"
                       : opts.workload == Workload::kTrafficCensus ? "traffic_census"
                                                                  : "campaign";
    const std::filesystem::path path = opts.out_dir / (std::string("spans-") + name + ".json");
    spans.write_json(path);
    std::cout << "spans: " << spans.size() << " written to " << path.string() << "\n";
    return out;
}

}  // namespace zdbench
