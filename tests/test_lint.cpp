// Unit tests for tools/lint — one synthetic snippet per check id, plus the
// suppression grammar, the meta checks (ZD097/ZD098/ZD099), the baseline
// round-trip, and the whole-project pass (ZD015–ZD018) driven over in-memory
// fixture trees.  These exercise the checker API directly; the tree-wide
// gates are the separate `lint_tree`/`lint_project` CTests
// (tools/CMakeLists.txt).
#include "lint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "lint/project.hpp"

namespace zerodeg::lint {
namespace {

[[nodiscard]] std::vector<std::string> ids_of(const std::vector<Diagnostic>& diags) {
    std::vector<std::string> ids;
    ids.reserve(diags.size());
    for (const Diagnostic& d : diags) ids.push_back(d.id);
    return ids;
}

[[nodiscard]] bool has_id(const std::vector<Diagnostic>& diags, std::string_view id) {
    return std::any_of(diags.begin(), diags.end(),
                       [&](const Diagnostic& d) { return d.id == id; });
}

TEST(LintChecks, BannedCRand) {
    const auto diags = lint_source("src/faults/x.cpp", "int f() { return std::rand(); }\n");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].id, "ZD001");
    EXPECT_EQ(diags[0].line, 1u);
    EXPECT_EQ(diags[0].severity, Severity::kError);
}

TEST(LintChecks, RandomDevice) {
    const auto diags =
        lint_source("src/weather/x.cpp", "void f() {\n  std::random_device rd;\n}\n");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].id, "ZD002");
    EXPECT_EQ(diags[0].line, 2u);
}

TEST(LintChecks, WallClockBannedOutsideMonitoring) {
    const std::string src = "auto now() { return std::chrono::system_clock::now(); }\n";
    EXPECT_EQ(ids_of(lint_source("src/experiment/x.cpp", src)),
              std::vector<std::string>{"ZD003"});
    // monitoring owns real-telemetry timestamps: same code, no finding.
    EXPECT_TRUE(lint_source("src/monitoring/x.cpp", src).empty());
}

TEST(LintChecks, CTimeSpellings) {
    EXPECT_TRUE(has_id(lint_source("src/core/x.cpp", "long t = time(nullptr);\n"), "ZD003"));
    EXPECT_TRUE(has_id(lint_source("src/core/x.cpp", "long t = ::time(&out);\n"), "ZD003"));
    // Project APIs that happen to be named time() are not wall clocks.
    EXPECT_TRUE(lint_source("src/core/x.cpp", "auto t = clockobj.time(0);\n").empty());
}

TEST(LintChecks, BenchClockOnlyInBenchAndTools) {
    const std::string src = "auto t0 = zerodeg::core::bench_clock::now();\n";
    // Simulation code must not touch the benchmark timing seam.
    EXPECT_EQ(ids_of(lint_source("src/experiment/x.cpp", src)),
              std::vector<std::string>{"ZD013"});
    // The sanctioned consumers: bench targets and tools.
    EXPECT_TRUE(lint_source("bench/bench_tab_hashes.cpp", src).empty());
    EXPECT_TRUE(lint_source("tools/zerodeg_cli.cpp", src).empty());
}

TEST(LintChecks, BenchClockImplIsTheSanctionedSteadyClockRead) {
    // The seam's own translation unit may read steady_clock (ZD003 exempt)
    // and of course names bench_clock (ZD013 exempt).
    const std::string src =
        "auto n = std::chrono::steady_clock::now();\n"
        "bench_clock::time_point t;\n";
    EXPECT_TRUE(lint_source("src/core/bench_clock.cpp", src).empty());
    EXPECT_TRUE(lint_source("src/core/bench_clock.hpp",
                            "#pragma once\nclass bench_clock {};\n")
                    .empty());
    // Any other src/core file is still banned from both.
    EXPECT_TRUE(has_id(lint_source("src/core/x.cpp", src), "ZD003"));
    EXPECT_TRUE(has_id(lint_source("src/core/x.cpp", src), "ZD013"));
}

TEST(LintChecks, GetenvOnlyInTools) {
    const std::string src = "const char* v = std::getenv(\"ZERODEG_HOME\");\n";
    EXPECT_EQ(ids_of(lint_source("src/experiment/x.cpp", src)),
              std::vector<std::string>{"ZD004"});
    EXPECT_TRUE(lint_source("tools/zerodeg_cli.cpp", src).empty());
}

TEST(LintChecks, RawIpcOnlyInTheTransportSeam) {
    const std::string calls =
        "int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);\n"
        "FILE* p = popen(\"ls\", \"r\");\n"
        "int fds[2]; pipe(fds);\n";
    // Three lines, three findings — anywhere but the seam's own files.
    EXPECT_EQ(ids_of(lint_source("src/experiment/x.cpp", calls)),
              (std::vector<std::string>{"ZD014", "ZD014", "ZD014"}));
    EXPECT_TRUE(has_id(lint_source("tools/zerodeg_cli.cpp", calls), "ZD014"));
    EXPECT_TRUE(has_id(lint_source("tests/test_x.cpp", calls), "ZD014"));
    // The seam's implementation files are the sanctioned home.
    EXPECT_TRUE(lint_source("src/core/transport_unix.cpp", calls).empty());
    EXPECT_TRUE(lint_source("src/core/transport.cpp", calls).empty());
}

TEST(LintChecks, RawIpcMatchesCallSpellingsNotNames) {
    // Variables, members and string literals that merely mention sockets are
    // fine — only the primitives themselves are banned.
    const std::string benign =
        "std::string socket = flags.at(\"socket\");\n"
        "auto link = core::connect_unix(socket_path);\n"
        "out << \"AF_UNIX path too long\";\n"
        "void socket_banner();\n";
    EXPECT_TRUE(lint_source("src/experiment/x.cpp", benign).empty());
    // The sockaddr types are banned by token, call or no call.
    EXPECT_TRUE(has_id(lint_source("src/experiment/x.cpp", "struct sockaddr_un addr;\n"),
                       "ZD014"));
    // And a reasoned suppression still works, as for every other check.
    EXPECT_TRUE(lint_source("src/experiment/x.cpp",
                            "int fd = socket(2, 1, 0);  "
                            "// zerodeg-lint: allow(ZD014): legacy probe\n")
                    .empty());
}

TEST(LintChecks, UnorderedIterationFeedingWriterIsAnError) {
    const std::string src =
        "#include <unordered_map>\n"
        "std::unordered_map<std::string, int> counts;\n"
        "void dump(std::ostream& out) {\n"
        "  core::CsvWriter w(out);\n"
        "  for (const auto& kv : counts) {\n"
        "    w.write_row({kv.first});\n"
        "  }\n"
        "}\n";
    const auto diags = lint_source("src/experiment/x.cpp", src);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].id, "ZD005");
    EXPECT_EQ(diags[0].line, 5u);
    EXPECT_EQ(diags[0].severity, Severity::kError);
}

TEST(LintChecks, UnorderedIterationWithoutWriterIsAWarning) {
    const std::string src =
        "std::unordered_map<int, int> m;\n"
        "int total() {\n"
        "  int s = 0;\n"
        "  for (const auto& kv : m) s += kv.second;\n"
        "  return s;\n"
        "}\n";
    const auto diags = lint_source("src/experiment/x.cpp", src);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].id, "ZD005");
    EXPECT_EQ(diags[0].severity, Severity::kWarning);
}

TEST(LintChecks, OrderedMapIterationIsFine) {
    const std::string src =
        "std::map<std::string, int> counts;\n"
        "void dump(std::ostream& out) {\n"
        "  core::CsvWriter w(out);\n"
        "  for (const auto& kv : counts) w.write_row({kv.first});\n"
        "}\n";
    EXPECT_TRUE(lint_source("src/experiment/x.cpp", src).empty());
}

TEST(LintChecks, CountingLoopOverUnorderedSizeIsFine) {
    const std::string src =
        "std::unordered_map<int, int> m;\n"
        "int f() {\n"
        "  int s = 0;\n"
        "  for (std::size_t i = 0; i < m.size(); ++i) s += 1;\n"
        "  return s;\n"
        "}\n";
    EXPECT_TRUE(lint_source("src/experiment/x.cpp", src).empty());
}

TEST(LintChecks, UnorderedReductionPrimitives) {
    EXPECT_TRUE(has_id(
        lint_source("src/experiment/x.cpp",
                    "double s = std::reduce(v.begin(), v.end(), 0.0);\n"),
        "ZD006"));
    EXPECT_TRUE(has_id(
        lint_source("src/experiment/x.cpp",
                    "std::for_each(std::execution::par, v.begin(), v.end(), f);\n"),
        "ZD006"));
    EXPECT_TRUE(has_id(lint_source("src/experiment/x.cpp",
                                   "#pragma omp parallel for reduction(+:sum)\n"),
                       "ZD006"));
}

TEST(LintChecks, RawEngineOnlyInCore) {
    const std::string src = "std::mt19937 gen(42);\n";
    EXPECT_EQ(ids_of(lint_source("src/faults/x.cpp", src)), std::vector<std::string>{"ZD007"});
    EXPECT_TRUE(lint_source("src/core/rng.cpp", src).empty());
    EXPECT_TRUE(has_id(lint_source("tests/x.cpp", "std::normal_distribution<double> d;\n"),
                       "ZD007"));
}

TEST(LintChecks, HeaderMustStartWithPragmaOnce) {
    EXPECT_EQ(ids_of(lint_source("src/core/x.hpp", "#include <vector>\nint f();\n")),
              std::vector<std::string>{"ZD008"});
    // Comments before the pragma are fine.
    EXPECT_TRUE(
        lint_source("src/core/x.hpp", "// Long banner comment.\n#pragma once\nint f();\n")
            .empty());
    // Non-headers are exempt.
    EXPECT_TRUE(lint_source("src/core/x.cpp", "#include <vector>\nint f();\n").empty());
}

TEST(LintChecks, UsingNamespaceInHeader) {
    const std::string src = "#pragma once\nusing namespace std;\n";
    EXPECT_EQ(ids_of(lint_source("src/core/x.hpp", src)), std::vector<std::string>{"ZD009"});
    EXPECT_TRUE(lint_source("src/core/x.cpp", "using namespace std::chrono_literals;\n").empty());
}

TEST(LintChecks, ErrorCodeReturnNeedsNodiscard) {
    const auto diags = lint_source("src/monitoring/x.hpp",
                                   "#pragma once\nErrorCode flush_buffer(int attempts);\n");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].id, "ZD010");
    EXPECT_EQ(diags[0].severity, Severity::kWarning);
    EXPECT_TRUE(lint_source("src/monitoring/x.hpp",
                            "#pragma once\n[[nodiscard]] ErrorCode flush_buffer(int attempts);\n")
                    .empty());
    // Parameters and enum mentions are not return types.
    EXPECT_TRUE(lint_source("src/monitoring/x.hpp",
                            "#pragma once\nvoid log_failure(ErrorCode code);\n")
                    .empty());
}

TEST(LintChecks, ArithmeticOperatorNeedsNodiscardInHeaders) {
    const std::string src =
        "#pragma once\n"
        "class Celsius {\n"
        "  constexpr Celsius operator+(Celsius rhs) const;\n"
        "};\n";
    const auto diags = lint_source("src/core/x.hpp", src);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].id, "ZD011");
    EXPECT_EQ(diags[0].line, 3u);
    EXPECT_EQ(diags[0].severity, Severity::kWarning);
    // Marked operators, compound assignment, and reference returns are fine.
    EXPECT_TRUE(lint_source("src/core/x.hpp",
                            "#pragma once\n"
                            "class Celsius {\n"
                            "  [[nodiscard]] constexpr Celsius operator+(Celsius rhs) const;\n"
                            "  constexpr Celsius& operator+=(Celsius rhs);\n"
                            "  constexpr auto operator<=>(const Celsius&) const = default;\n"
                            "};\n")
                    .empty());
    // Non-headers are exempt (definitions there mirror a checked header).
    EXPECT_TRUE(
        lint_source("src/core/x.cpp", "Celsius Celsius::operator+(Celsius rhs) const {}\n")
            .empty());
}

TEST(LintChecks, DurableWriterModulesMustUseTheIoSeam) {
    const std::string ofs = "void f() { std::ofstream out(\"fig.csv\"); }\n";
    const std::string fop = "void f() { FILE* f = fopen(\"log.txt\", \"wb\"); }\n";
    // src/experiment/ and src/monitoring/ own the crash-surviving files, so
    // a direct write there escapes fault injection: error ZD012.
    EXPECT_EQ(ids_of(lint_source("src/experiment/figures.cpp", ofs)),
              std::vector<std::string>{"ZD012"});
    EXPECT_EQ(ids_of(lint_source("src/monitoring/datalogger.cpp", fop)),
              std::vector<std::string>{"ZD012"});
    EXPECT_EQ(lint_source("src/experiment/x.cpp", ofs)[0].severity, Severity::kError);
    // core/io (the seam itself), tools, tests, and other modules are exempt.
    EXPECT_TRUE(lint_source("src/core/io.cpp", fop).empty());
    EXPECT_TRUE(lint_source("tools/zerodeg_cli.cpp", ofs).empty());
    EXPECT_TRUE(lint_source("tests/test_figures.cpp", ofs).empty());
    EXPECT_TRUE(lint_source("src/weather/trace_io.cpp", ofs).empty());
    // Reads stay legal: the seam governs durable writes only.
    EXPECT_TRUE(
        lint_source("src/experiment/x.cpp", "void f() { std::ifstream in(\"t.csv\"); }\n")
            .empty());
    // Mentions in comments or strings are not code.
    EXPECT_TRUE(lint_source("src/experiment/x.cpp",
                            "// ofstream is banned here (ZD012)\n"
                            "const char* kHint = \"use ofstream elsewhere\";\n")
                    .empty());
}

TEST(LintSuppressions, TrailingAllowWithReasonSuppresses) {
    const std::string src =
        "void f() { std::random_device rd; }  "
        "// zerodeg-lint: allow(ZD002): synthetic example exercising entropy plumbing\n";
    EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(LintSuppressions, CommentOnOwnLineAppliesToNextLine) {
    const std::string src =
        "// zerodeg-lint: allow(ZD002): documented one-off seed probe\n"
        "void f() { std::random_device rd; }\n";
    EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(LintSuppressions, MissingReasonDoesNotSuppressAndIsFlagged) {
    const std::string src =
        "void f() { std::random_device rd; }  // zerodeg-lint: allow(ZD002)\n";
    const auto diags = lint_source("src/core/x.cpp", src);
    EXPECT_TRUE(has_id(diags, "ZD002"));  // the allowance is void without a reason
    EXPECT_TRUE(has_id(diags, "ZD098"));
}

TEST(LintSuppressions, UnknownCheckIdIsFlagged) {
    const std::string src =
        "int x = 1;  // zerodeg-lint: allow(ZD742): no such check\n";
    const auto diags = lint_source("src/core/x.cpp", src);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].id, "ZD099");
}

TEST(LintSuppressions, WrongIdDoesNotSuppress) {
    const std::string src =
        "void f() { std::random_device rd; }  "
        "// zerodeg-lint: allow(ZD001): suppresses the wrong check\n";
    EXPECT_TRUE(has_id(lint_source("src/core/x.cpp", src), "ZD002"));
}

TEST(LintLexer, TokensInsideLiteralsAndCommentsAreIgnored) {
    const std::string src =
        "const char* docs = \"never call std::random_device or time(nullptr)\";\n"
        "// std::rand() would be flagged if this comment were code\n"
        "/* std::mt19937 likewise */\n"
        "const char* raw = R\"(std::random_device)\";\n";
    EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(LintLexer, DigitSeparatorsAreNotCharLiterals) {
    // A naive lexer treats 657'000'000 as opening a char literal and blanks
    // the rest of the line — which would hide the random_device after it.
    const std::string src =
        "void f() { long n = 657'000'000; std::random_device rd; }\n";
    EXPECT_TRUE(has_id(lint_source("src/core/x.cpp", src), "ZD002"));
}

TEST(LintBaseline, RoundTripAndContains) {
    const auto diags = lint_source("src/faults/x.cpp", "int f() { return std::rand(); }\n");
    ASSERT_EQ(diags.size(), 1u);

    Baseline b;
    EXPECT_FALSE(b.contains(diags[0]));
    b.add(diags[0]);
    EXPECT_TRUE(b.contains(diags[0]));

    const Baseline reparsed = Baseline::parse(b.serialize());
    EXPECT_EQ(reparsed.size(), 1u);
    EXPECT_TRUE(reparsed.contains(diags[0]));
}

TEST(LintBaseline, FingerprintIsLineShiftStable) {
    const std::string line = "int f() { return std::rand(); }\n";
    const auto at_top = lint_source("src/faults/x.cpp", line);
    const auto shifted = lint_source("src/faults/x.cpp", "\n\n\n" + line);
    ASSERT_EQ(at_top.size(), 1u);
    ASSERT_EQ(shifted.size(), 1u);
    EXPECT_NE(at_top[0].line, shifted[0].line);
    EXPECT_EQ(at_top[0].fingerprint, shifted[0].fingerprint);

    Baseline b;
    b.add(at_top[0]);
    EXPECT_TRUE(b.contains(shifted[0]));
}

TEST(LintBaseline, MalformedEntryThrowsParseError) {
    EXPECT_THROW(static_cast<void>(Baseline::parse("ZD001 nothex src/x.cpp\n")),
                 core::ParseError);
    EXPECT_THROW(static_cast<void>(Baseline::parse("ZD742 0123456789abcdef src/x.cpp\n")),
                 core::ParseError);
    // Comments and blank lines are fine.
    EXPECT_EQ(Baseline::parse("# header\n\n").size(), 0u);
}

TEST(LintApi, CheckTableIsConsistent) {
    const auto& checks = known_checks();
    EXPECT_GE(checks.size(), 12u);
    for (const auto& c : checks) EXPECT_TRUE(is_known_check(c.id));
    EXPECT_FALSE(is_known_check("ZD742"));
    // Diagnostics always carry known ids.
    for (const Diagnostic& d :
         lint_source("src/core/x.cpp", "void f() { std::random_device rd; }\n")) {
        EXPECT_TRUE(is_known_check(d.id));
    }
}

TEST(LintSuppressions, StaleAllowanceIsFlaggedZD097) {
    // The line no longer triggers ZD002 (the random_device is gone), so the
    // reasoned waiver is stale and must fail rather than rot silently.
    const std::string src =
        "int x = 1;  // zerodeg-lint: allow(ZD002): was an entropy probe once\n";
    const auto diags = lint_source("src/core/x.cpp", src);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].id, "ZD097");
    EXPECT_EQ(diags[0].severity, Severity::kError);
}

TEST(LintSuppressions, InUseAllowanceIsNotStale) {
    // Same waiver, but the line really does trigger ZD002: no ZD097.
    const std::string src =
        "void f() { std::random_device rd; }  "
        "// zerodeg-lint: allow(ZD002): synthetic example exercising entropy plumbing\n";
    EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(LintSuppressions, ProjectCheckAllowancesAreLeftToTheProjectPass) {
    // The per-file pass cannot know whether ZD016 fires on this line — only
    // the whole-project pass sees the other files — so no ZD097 here.
    const std::string src =
        "auto s = core::RngStream{seed, \"x\"};  "
        "// zerodeg-lint: allow(ZD016): shared with the paired model on purpose\n";
    EXPECT_TRUE(lint_source("src/core/x.cpp", src).empty());
}

TEST(LintApi, FormatDiagnosticShape) {
    const auto diags = lint_source("src/faults/x.cpp", "int f() { return std::rand(); }\n");
    ASSERT_EQ(diags.size(), 1u);
    const std::string text = format_diagnostic(diags[0]);
    EXPECT_NE(text.find("src/faults/x.cpp:1:"), std::string::npos);
    EXPECT_NE(text.find("[ZD001]"), std::string::npos);
    EXPECT_NE(text.find("[error]"), std::string::npos);
    EXPECT_NE(text.find("hint:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Whole-project pass (tools/lint/project.hpp) on in-memory fixture trees.
// ---------------------------------------------------------------------------

[[nodiscard]] ProjectModel make_model(
    const std::vector<std::pair<std::string, std::string>>& files) {
    ProjectModel model;
    for (const auto& [path, content] : files) model.files.push_back(scan_file(path, content));
    resolve_includes(model);
    return model;
}

[[nodiscard]] std::vector<std::string> project_ids(const ProjectModel& model) {
    std::vector<std::string> ids;
    for (const Diagnostic& d : analyze_project(model).diagnostics) ids.push_back(d.id);
    return ids;
}

TEST(LintProject, ModuleOfClassifiesPaths) {
    EXPECT_EQ(module_of("src/core/rng.hpp"), "core");
    EXPECT_EQ(module_of("src/weather/weather_model.cpp"), "weather");
    EXPECT_EQ(module_of("tools/lint/main.cpp"), "tools");
    EXPECT_EQ(module_of("bench/bench_tab_hashes.cpp"), "bench");
    EXPECT_EQ(module_of("tests/test_lint.cpp"), "tests");
    EXPECT_EQ(module_of("examples/workload_pipeline.cpp"), "");
}

TEST(LintProject, LayerViolationCoreIncludingExperimentIsZD015) {
    const auto model = make_model({
        {"src/core/bad.hpp", "#pragma once\n#include \"experiment/runner.hpp\"\n"},
        {"src/experiment/runner.hpp", "#pragma once\n"},
    });
    const auto report = analyze_project(model);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].id, "ZD015");
    EXPECT_EQ(report.diagnostics[0].file, "src/core/bad.hpp");
    EXPECT_EQ(report.diagnostics[0].line, 2u);
    EXPECT_TRUE(report.graph.illegal.at("core").count("experiment") != 0);
}

TEST(LintProject, AllowedEdgesAreClean) {
    // hardware -> thermal -> weather -> core is the declared layering.
    const auto model = make_model({
        {"src/core/units.hpp", "#pragma once\n"},
        {"src/weather/model.hpp", "#pragma once\n#include \"core/units.hpp\"\n"},
        {"src/thermal/rc.hpp", "#pragma once\n#include \"weather/model.hpp\"\n"},
        {"src/hardware/server.hpp", "#pragma once\n#include \"thermal/rc.hpp\"\n"},
        {"tests/test_server.cpp", "#include \"hardware/server.hpp\"\n"},
    });
    EXPECT_TRUE(analyze_project(model).diagnostics.empty());
}

TEST(LintProject, IncludeCycleIsZD015) {
    const auto model = make_model({
        {"src/core/a.hpp", "#pragma once\n#include \"core/b.hpp\"\n"},
        {"src/core/b.hpp", "#pragma once\n#include \"core/a.hpp\"\n"},
    });
    const auto report = analyze_project(model);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].id, "ZD015");
    EXPECT_NE(report.diagnostics[0].message.find("cycle"), std::string::npos);
    ASSERT_EQ(report.graph.cycles.size(), 1u);
    EXPECT_EQ(report.graph.cycles[0].size(), 2u);
}

TEST(LintProject, UndeclaredSrcModuleIsZD015) {
    // A new src/ subsystem must be added to the layer table deliberately.
    const auto model = make_model({
        {"src/core/units.hpp", "#pragma once\n"},
        {"src/quantum/solver.hpp", "#pragma once\n#include \"core/units.hpp\"\n"},
    });
    const auto report = analyze_project(model);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].id, "ZD015");
    EXPECT_NE(report.diagnostics[0].message.find("not declared"), std::string::npos);
}

TEST(LintProject, StreamCollisionAcrossFilesIsZD016) {
    const auto model = make_model({
        {"src/weather/w.cpp",
         "void f(std::uint64_t seed) { auto s = core::RngStream{seed, \"shared\"}; }\n"},
        {"src/faults/g.cpp",
         "void g(std::uint64_t seed) { core::RngStream s(seed, \"shared\"); }\n"},
    });
    // Both ends of the collision are reported so either site can be renamed.
    EXPECT_EQ(project_ids(model), (std::vector<std::string>{"ZD016", "ZD016"}));
}

TEST(LintProject, StreamReuseWithinOneOwningFileIsFine) {
    const auto model = make_model({
        {"src/weather/w.cpp",
         "void f(std::uint64_t seed) {\n"
         "  auto a = core::RngStream{seed, \"wind\"};\n"
         "  auto b = core::RngStream{seed, \"wind\"};\n"
         "}\n"},
    });
    EXPECT_TRUE(analyze_project(model).diagnostics.empty());
}

TEST(LintProject, MultilineStreamConstructionIsStillKeyed) {
    // clang-format wraps long constructions; the literal lands on the next
    // line but belongs to the same balanced span.
    const auto model = make_model({
        {"src/experiment/r.cpp",
         "void f(std::uint64_t seed) {\n"
         "  auto s = core::RngStream{seed,\n"
         "                           \"switch.spare\"};\n"
         "}\n"},
        {"src/hardware/h.cpp",
         "void g(std::uint64_t seed) { core::RngStream s(seed, \"switch.spare\"); }\n"},
    });
    EXPECT_EQ(project_ids(model), (std::vector<std::string>{"ZD016", "ZD016"}));
}

TEST(LintProject, TestStreamNamesDoNotCollide) {
    // tests/ reuse throwaway names ("m", "p") by design; only src/ competes
    // for the global stream namespace.
    const auto model = make_model({
        {"tests/test_a.cpp", "void f() { core::RngStream s(1, \"m\"); }\n"},
        {"tests/test_b.cpp", "void g() { core::RngStream s(1, \"m\"); }\n"},
    });
    EXPECT_TRUE(analyze_project(model).diagnostics.empty());
}

TEST(LintProject, DiscardedErrorCodeCallIsZD017) {
    const auto model = make_model({
        {"src/monitoring/collector.hpp",
         "#pragma once\n[[nodiscard]] ErrorCode flush_buffer(int attempts);\n"},
        {"src/experiment/runner.cpp",
         "void run() {\n"
         "  flush_buffer(3);\n"
         "  const auto rc = flush_buffer(3);\n"
         "  if (flush_buffer(3) != ErrorCode::kOk) { return; }\n"
         "}\n"},
    });
    const auto report = analyze_project(model);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].id, "ZD017");
    EXPECT_EQ(report.diagnostics[0].line, 2u);  // only the bare statement
    EXPECT_NE(report.diagnostics[0].message.find("flush_buffer"), std::string::npos);
}

TEST(LintProject, MemberCallDiscardIsAlsoZD017) {
    const auto model = make_model({
        {"src/core/error.hpp", "#pragma once\n[[nodiscard]] ErrorCode code() const;\n"},
        {"src/experiment/x.cpp", "void f(const Error& e) { e.code(); }\n"},
    });
    EXPECT_EQ(project_ids(model), (std::vector<std::string>{"ZD017"}));
}

TEST(LintProject, UnknownCalleesAreNotZD017) {
    const auto model = make_model({
        {"src/core/error.hpp", "#pragma once\n[[nodiscard]] ErrorCode code() const;\n"},
        {"src/experiment/x.cpp", "void f() { log_line(); cleanup_scratch(); }\n"},
    });
    EXPECT_TRUE(analyze_project(model).diagnostics.empty());
}

TEST(LintProject, FloatAccumulateOutsideParallelSeamIsZD018) {
    const auto model = make_model({
        {"src/energy/pue.cpp",
         "double f(const std::vector<double>& v) {\n"
         "  return std::accumulate(v.begin(), v.end(), 0.0);\n"
         "}\n"},
    });
    const auto report = analyze_project(model);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].id, "ZD018");
    EXPECT_EQ(report.diagnostics[0].line, 2u);
}

TEST(LintProject, ParallelSeamAndIntegerAccumulateAreExempt) {
    const auto model = make_model({
        // The ordered-reduce seam itself may spell the primitive.
        {"src/core/parallel.hpp",
         "#pragma once\n"
         "double reduce(const std::vector<double>& v) {\n"
         "  return std::accumulate(v.begin(), v.end(), 0.0);\n"
         "}\n"},
        // Integer accumulation is associative: fine anywhere.
        {"src/energy/count.cpp",
         "long f(const std::vector<long>& v) {\n"
         "  return std::accumulate(v.begin(), v.end(), 0L);\n"
         "}\n"},
        // A project method merely *named* accumulate is not the primitive.
        {"src/faults/census.cpp", "void g() { stats.accumulate(1.5); }\n"},
    });
    EXPECT_TRUE(analyze_project(model).diagnostics.empty());
}

TEST(LintProject, ReasonedSuppressionSilencesProjectChecks) {
    const auto model = make_model({
        {"src/weather/w.cpp",
         "void f(std::uint64_t seed) { auto s = core::RngStream{seed, \"shared\"}; }  "
         "// zerodeg-lint: allow(ZD016): twin models share draws by design\n"},
        {"src/faults/g.cpp",
         "void g(std::uint64_t seed) { core::RngStream s(seed, \"shared\"); }  "
         "// zerodeg-lint: allow(ZD016): twin models share draws by design\n"},
    });
    EXPECT_TRUE(analyze_project(model).diagnostics.empty());
}

TEST(LintProject, StaleProjectSuppressionIsZD097) {
    // The waiver names ZD016 but nothing collides: the project pass (the
    // only pass that can judge project ids) reports it stale.
    const auto model = make_model({
        {"src/weather/w.cpp",
         "void f(std::uint64_t seed) { auto s = core::RngStream{seed, \"only\"}; }  "
         "// zerodeg-lint: allow(ZD016): leftover from a renamed twin\n"},
    });
    const auto report = analyze_project(model);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].id, "ZD097");
}

TEST(LintProject, DotExportNamesModulesAndColorsIllegalEdges) {
    const auto model = make_model({
        {"src/core/bad.hpp", "#pragma once\n#include \"experiment/runner.hpp\"\n"},
        {"src/experiment/runner.hpp", "#pragma once\n#include \"core/bad.hpp\"\n"},
    });
    const auto report = analyze_project(model);
    const std::string dot = render_dot(report.graph);
    EXPECT_EQ(dot.rfind("digraph zerodeg_layers {", 0), 0u);
    EXPECT_NE(dot.find("\"core\" -> \"experiment\""), std::string::npos);
    EXPECT_NE(dot.find("color=red"), std::string::npos);
    EXPECT_EQ(dot.back(), '\n');

    const std::string summary = render_architecture_report(report.graph);
    EXPECT_NE(summary.find("fan-out"), std::string::npos);
    EXPECT_NE(summary.find("include cycles: 1"), std::string::npos);
}

TEST(LintProject, TreeLayerDagMatchesTheDesignDoc) {
    const auto& dag = layer_dag();
    EXPECT_TRUE(dag.at("core").empty());
    EXPECT_TRUE(dag.at("hardware").count("thermal") != 0);
    EXPECT_TRUE(dag.at("experiment").count("monitoring") != 0);
    // Nothing may depend on experiment (it is the top of the src/ stack).
    for (const auto& [module, deps] : dag) {
        if (module == "experiment") continue;
        EXPECT_EQ(deps.count("experiment"), 0u) << module;
    }
}

TEST(LintApi, JsonDiagnosticShapeAndEscaping) {
    Diagnostic d;
    d.file = "src/core/x.cpp";
    d.line = 3;
    d.id = "ZD001";
    d.severity = Severity::kError;
    d.message = "bad \"quote\" and\nnewline";
    const std::string json = format_diagnostic_json(d);
    EXPECT_EQ(json.rfind("{\"file\":\"src/core/x.cpp\",\"line\":3,\"id\":\"ZD001\"", 0), 0u);
    EXPECT_NE(json.find("\\\"quote\\\""), std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
    EXPECT_EQ(json.find("hint"), std::string::npos);  // empty hint omitted
}

}  // namespace
}  // namespace zerodeg::lint
