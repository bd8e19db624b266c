// The traced run: per-layer metrics from spans recorded around each layer's
// public calls.
//
// It traces one archive and one traffic season tick by tick (run_until),
// recording each layer's inputs as it goes, then replays every layer's
// public calls on those inputs, each call under a span:
//   weather series             -> weather::WeatherModel::advance_to
//   weather + fleet power      -> thermal::TentModel / BasementModel::step
//   intake air, RH, age        -> faults::HostHazardModel::hazard_per_hour
//   the census load_runs count -> workload::LoadJob::run (+ frost/MD5/CRC rates)
//   the fleet's hosts          -> a standalone workload::TrafficEngine + SloTracker
// and runs one traced campaign (journal I/O through TimingFs, shard-protocol
// encode/decode replayed on its cells).  It ends by alternating traced and
// untraced units of the workload itself to measure the tracing overhead.
#pragma once

#include "common.hpp"

namespace zdbench {

[[nodiscard]] Outcome run_traced(const RunOptions& opts);

}  // namespace zdbench
