// End-to-end test of `zerodeg sweep`: real worker and coordinator processes
// talking over a real unix socket, lossy links via --net-faults, draining a
// locally buffered journal once the coordinator is back, and byte-identical
// convergence with a local `zerodeg census` run of the same campaign.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_test_util.hpp"

namespace {

namespace fs = std::filesystem;

zerodeg::test::CommandResult run_cli(const std::string& args) {
    return zerodeg::test::run_command(std::string(ZERODEG_CLI_PATH) + " " + args);
}

std::string slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// A scratch dir under /tmp — NOT TempDir(): AF_UNIX socket paths are
/// limited to ~108 bytes and ctest temp dirs can blow past that.
fs::path short_scratch(const std::string& name) {
    const fs::path dir =
        fs::path("/tmp") / ("zd_sweep_" + std::to_string(::getpid()) + "_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/// Launch coordinator + K lease-pulling workers as real processes, wait for
/// all, return each one's result (coordinator first).
std::vector<zerodeg::test::CommandResult> run_campaign(const fs::path& dir, std::size_t workers,
                                                       const std::string& common,
                                                       const std::string& worker_extra) {
    const std::string socket = (dir / "sweep.sock").string();
    std::vector<zerodeg::test::CommandResult> results(workers + 1);
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
        results[0] = run_cli("sweep --coordinator --socket " + socket + " --checkpoint " +
                             (dir / "merged.journal").string() + " --idle-timeout-ms 30000 " +
                             common);
    });
    for (std::size_t w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            results[w + 1] = run_cli("sweep --worker --socket " + socket + " --checkpoint " +
                                     (dir / ("w" + std::to_string(w) + ".journal")).string() +
                                     " " + common + " " + worker_extra);
        });
    }
    for (std::thread& t : threads) t.join();
    return results;
}

TEST(CliSweep, UsageErrors) {
    EXPECT_EQ(run_cli("sweep").exit_code, 2);  // neither role
    EXPECT_EQ(run_cli("sweep --coordinator --worker --socket /tmp/x --checkpoint /tmp/y")
                  .exit_code,
              2);  // both roles
    EXPECT_EQ(run_cli("sweep --coordinator --checkpoint /tmp/y").exit_code, 2);  // no socket
    EXPECT_EQ(run_cli("sweep --coordinator --socket /tmp/x").exit_code, 2);  // no checkpoint
    // --worker takes no value (no static I/K shard); the diagnostic points
    // at the bare flag.
    for (const char* value : {"0/2", "2/2", "banana"}) {
        const auto r = run_cli(std::string("sweep --worker ") + value +
                               " --socket /tmp/x --checkpoint /tmp/y");
        EXPECT_EQ(r.exit_code, 2) << value;
        EXPECT_NE(r.output.find("bare --worker"), std::string::npos) << r.output;
    }
    EXPECT_EQ(run_cli("sweep --worker --socket /tmp/x --checkpoint /tmp/y --torture").exit_code,
              2);  // census-only flag
    EXPECT_EQ(run_cli("sweep --worker --spawn-workers 2 --socket /tmp/x --checkpoint /tmp/y")
                  .exit_code,
              2);  // spawning is the coordinator's job
}

TEST(CliSweep, BareWorkerPullsLeases) {
    const fs::path dir = short_scratch("lease");
    const std::string socket = (dir / "sweep.sock").string();
    const std::string common = "--seeds 5 --synthetic";

    zerodeg::test::CommandResult coord;
    std::thread coordinator([&] {
        coord = run_cli("sweep --coordinator --socket " + socket + " --checkpoint " +
                        (dir / "merged.journal").string() + " --idle-timeout-ms 30000 " + common);
    });
    const auto worker = run_cli("sweep --worker --socket " + socket + " --checkpoint " +
                                (dir / "w0.journal").string() + " " + common);
    coordinator.join();
    ASSERT_EQ(coord.exit_code, 0) << coord.output;
    ASSERT_EQ(worker.exit_code, 0) << worker.output;
    // The worker asked for work instead of owning a static shard...
    EXPECT_NE(worker.output.find("lease mode"), std::string::npos) << worker.output;
    // ...and the coordinator granted leases and still prints the exact
    // local-census table.
    EXPECT_NE(coord.output.find("lease(s) granted"), std::string::npos) << coord.output;
    const auto local = run_cli("census " + common);
    ASSERT_EQ(local.exit_code, 0) << local.output;
    EXPECT_NE(coord.output.find(local.output), std::string::npos)
        << "coordinator output:\n"
        << coord.output << "\nlocal census output:\n"
        << local.output;
    fs::remove_all(dir);
}

TEST(CliSweep, SpawnWorkersRunsTheWholeCampaignInOneCommand) {
    const fs::path dir = short_scratch("spawn");
    const std::string common = "--seeds 6 --synthetic";

    const auto result =
        run_cli("sweep --coordinator --socket " + (dir / "sweep.sock").string() +
                " --checkpoint " + (dir / "merged.journal").string() +
                " --idle-timeout-ms 30000 --spawn-workers 2 " + common);
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("spawned 2 local worker(s)"), std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("lease(s) granted"), std::string::npos) << result.output;

    const auto local = run_cli("census " + common);
    ASSERT_EQ(local.exit_code, 0) << local.output;
    EXPECT_NE(result.output.find(local.output), std::string::npos)
        << "coordinator output:\n"
        << result.output << "\nlocal census output:\n"
        << local.output;

    // Each spawned worker journals locally next to the merged checkpoint.
    EXPECT_TRUE(fs::exists(dir / "merged.journal.worker0"));
    EXPECT_TRUE(fs::exists(dir / "merged.journal.worker1"));
    fs::remove_all(dir);
}

TEST(CliSweep, DistributedCampaignMatchesLocalCensusByteForByte) {
    const fs::path dir = short_scratch("match");
    const std::string common = "--seeds 5 --synthetic";

    const auto results = run_campaign(dir, 2, common, "");
    ASSERT_EQ(results[0].exit_code, 0) << results[0].output;
    ASSERT_EQ(results[1].exit_code, 0) << results[1].output;
    ASSERT_EQ(results[2].exit_code, 0) << results[2].output;

    // The coordinator's table is the local census's table, byte for byte
    // (the banner lines above it are coordinator-specific).
    const auto local = run_cli("census " + common);
    ASSERT_EQ(local.exit_code, 0) << local.output;
    EXPECT_NE(results[0].output.find(local.output), std::string::npos)
        << "coordinator output:\n"
        << results[0].output << "\nlocal census output:\n"
        << local.output;
    fs::remove_all(dir);
}

TEST(CliSweep, LossyLinksAreInvisibleInTheMergedJournal) {
    const fs::path clean_dir = short_scratch("lossless");
    const fs::path lossy_dir = short_scratch("lossy");
    const std::string common = "--seeds 6 --synthetic";

    const auto clean = run_campaign(clean_dir, 2, common, "");
    const auto lossy = run_campaign(lossy_dir, 2, common, "--net-faults 1234");
    for (const auto& r : clean) ASSERT_EQ(r.exit_code, 0) << r.output;
    for (const auto& r : lossy) ASSERT_EQ(r.exit_code, 0) << r.output;

    EXPECT_EQ(slurp(clean_dir / "merged.journal"), slurp(lossy_dir / "merged.journal"));
    // The frame/duplicate tallies in the banner legitimately differ; the
    // census table itself must not.
    const auto table = [](const std::string& out) {
        const std::size_t at = out.find("\nseed ");
        return at == std::string::npos ? out : out.substr(at);
    };
    EXPECT_EQ(table(clean[0].output), table(lossy[0].output));
    fs::remove_all(clean_dir);
    fs::remove_all(lossy_dir);
}

TEST(CliSweep, UnreachableCoordinatorDegradesToLocalBufferingThenDrains) {
    const fs::path dir = short_scratch("degraded");
    const std::string socket = (dir / "sweep.sock").string();
    const std::string journal = (dir / "w0.journal").string();
    const std::string common = "--seeds 4 --synthetic";

    // While no coordinator is reachable the cells are buffered in a local
    // journal: a local census checkpoint carries the same campaign key a
    // worker's own journal does.
    const auto local = run_cli("census --checkpoint " + journal + " " + common);
    ASSERT_EQ(local.exit_code, 0) << local.output;
    ASSERT_TRUE(fs::exists(journal));

    // The coordinator comes back; a worker over that journal streams the
    // buffered cells without re-simulating a thing.
    std::thread coordinator([&] {
        (void)run_cli("sweep --coordinator --socket " + socket + " --checkpoint " +
                      (dir / "merged.journal").string() + " --idle-timeout-ms 30000 " + common);
    });
    const auto drained = run_cli("sweep --worker --socket " + socket + " --checkpoint " +
                                 journal + " " + common);
    coordinator.join();
    ASSERT_EQ(drained.exit_code, 0) << drained.output;
    EXPECT_NE(drained.output.find("0 simulated, 4 reused"), std::string::npos) << drained.output;
    EXPECT_EQ(drained.output.find("degraded"), std::string::npos) << drained.output;
    fs::remove_all(dir);
}

TEST(CliSweep, ForeignCampaignWorkerIsRejected) {
    const fs::path dir = short_scratch("foreign");
    const std::string socket = (dir / "sweep.sock").string();

    std::thread coordinator([&] {
        (void)run_cli("sweep --coordinator --socket " + socket + " --checkpoint " +
                      (dir / "merged.journal").string() +
                      " --seeds 4 --synthetic --idle-timeout-ms 5000");
    });
    // Same cell count, different campaign shape (--end changes every cell's
    // config hash): the coordinator must turn the worker away loudly.
    const auto rejected = run_cli("sweep --worker --socket " + socket + " --checkpoint " +
                                  (dir / "w0.journal").string() +
                                  " --seeds 4 --synthetic --end 2010-02-20");
    EXPECT_EQ(rejected.exit_code, 1) << rejected.output;
    EXPECT_NE(rejected.output.find("rejected"), std::string::npos) << rejected.output;
    coordinator.join();
    fs::remove_all(dir);
}

}  // namespace
