#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "workload/archive.hpp"
#include "workload/corpus.hpp"

namespace zerodeg::workload {
namespace {

TEST(Corpus, DeterministicForSeed) {
    const SyntheticCorpus a(CorpusConfig{}, 2010);
    const SyntheticCorpus b(CorpusConfig{}, 2010);
    ASSERT_EQ(a.file_count(), b.file_count());
    for (std::size_t i = 0; i < a.file_count(); ++i) {
        EXPECT_EQ(a.files()[i].path, b.files()[i].path);
        EXPECT_EQ(a.files()[i].contents, b.files()[i].contents);
    }
}

TEST(Corpus, DifferentSeedsDiffer) {
    const SyntheticCorpus a(CorpusConfig{}, 1);
    const SyntheticCorpus b(CorpusConfig{}, 2);
    EXPECT_NE(a.files()[0].contents, b.files()[0].contents);
}

TEST(Corpus, MeetsSizeTarget) {
    CorpusConfig cfg;
    cfg.total_bytes = 512 * 1024;
    const SyntheticCorpus c(cfg, 7);
    EXPECT_GE(c.total_bytes(), cfg.total_bytes);
    EXPECT_LT(c.total_bytes(), cfg.total_bytes + 2 * cfg.mean_file_bytes);
    EXPECT_GT(c.file_count(), 10u);
}

TEST(Corpus, PathsAreUnique) {
    const SyntheticCorpus c(CorpusConfig{}, 3);
    std::set<std::string> paths;
    for (const CorpusFile& f : c.files()) paths.insert(f.path);
    EXPECT_EQ(paths.size(), c.file_count());
}

TEST(Corpus, LooksLikeSource) {
    const SyntheticCorpus c(CorpusConfig{}, 3);
    const std::string text(c.files()[0].contents.begin(), c.files()[0].contents.end());
    EXPECT_NE(text.find("#include"), std::string::npos);
    EXPECT_NE(text.find("static"), std::string::npos);
    EXPECT_NE(text.find("return"), std::string::npos);
}

TEST(Corpus, Validation) {
    CorpusConfig cfg;
    cfg.total_bytes = 0;
    EXPECT_THROW(SyntheticCorpus(cfg, 1), core::InvalidArgument);
}

// --- the generator against its first form ----------------------------------

// SyntheticCorpus as first written, verbatim: lines built as operator+
// chains of picks, a function name from two picks passed to snprintf.  C++
// leaves the order of those draws unspecified; this file is compiled by
// the same compiler as the library, and on GCC (right to left) the
// sequenced generator must reproduce it exactly.  The compiler-independent
// pin is GoldenClaims.LoadJobReferenceBytes.
namespace reference {

const char* const kDirs[] = {"arch",  "block", "crypto", "drivers", "fs",    "kernel",
                             "lib",   "mm",    "net",    "sound",   "init",  "ipc"};
const char* const kTypes[] = {"int", "long", "void", "char *", "size_t", "u32", "u64",
                              "struct page *", "struct inode *", "unsigned int"};
const char* const kIdents[] = {
    "buf",   "len",    "ret",   "err",   "flags", "offset", "page",  "inode", "dev",
    "state", "lock",   "count", "index", "entry", "head",   "queue", "mask",  "addr",
    "size",  "status", "ctx",   "req",   "tmp",   "node",   "data",  "pos"};
const char* const kCalls[] = {"kmalloc", "kfree",  "spin_lock",  "spin_unlock", "memcpy",
                              "memset",  "printk", "list_add",   "list_del",    "wait_event",
                              "schedule", "mutex_lock", "mutex_unlock", "atomic_inc"};

std::string pick(core::RngStream& rng, const char* const* list, std::size_t n) {
    return list[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))];
}

template <std::size_t N>
std::string pick(core::RngStream& rng, const char* const (&list)[N]) {
    return pick(rng, list, N);
}

void emit_function(core::RngStream& rng, std::string& out, int index) {
    char name[64];
    std::snprintf(name, sizeof name, "%s_%s_%d", pick(rng, kIdents).c_str(),
                  pick(rng, kCalls).c_str(), index);
    out += "static " + pick(rng, kTypes) + " " + name + "(";
    const int args = static_cast<int>(rng.uniform_int(0, 3));
    for (int i = 0; i < args; ++i) {
        if (i) out += ", ";
        out += pick(rng, kTypes) + " " + pick(rng, kIdents);
    }
    out += ")\n{\n";
    const int stmts = static_cast<int>(rng.uniform_int(3, 18));
    for (int i = 0; i < stmts; ++i) {
        const int kind = static_cast<int>(rng.uniform_int(0, 4));
        switch (kind) {
            case 0:
                out += "\t" + pick(rng, kTypes) + " " + pick(rng, kIdents) + " = " +
                       std::to_string(rng.uniform_int(0, 4096)) + ";\n";
                break;
            case 1:
                out += "\t" + pick(rng, kIdents) + " = " + pick(rng, kCalls) + "(" +
                       pick(rng, kIdents) + ");\n";
                break;
            case 2:
                out += "\tif (" + pick(rng, kIdents) + " < " + pick(rng, kIdents) +
                       ")\n\t\treturn -EINVAL;\n";
                break;
            case 3:
                out += "\t/* " + pick(rng, kIdents) + " must hold " + pick(rng, kIdents) +
                       " across this call */\n";
                break;
            default:
                out += "\tfor (" + pick(rng, kIdents) + " = 0; " + pick(rng, kIdents) + " < " +
                       pick(rng, kIdents) + "; ++" + pick(rng, kIdents) + ")\n\t\t" +
                       pick(rng, kCalls) + "(" + pick(rng, kIdents) + ");\n";
                break;
        }
    }
    out += "\treturn 0;\n}\n\n";
}

std::vector<CorpusFile> generate(CorpusConfig config, std::uint64_t seed) {
    std::vector<CorpusFile> files;
    std::size_t total_bytes = 0;
    core::RngStream rng{seed, "corpus"};
    const std::size_t dir_count =
        std::min(config.top_level_dirs, sizeof(kDirs) / sizeof(kDirs[0]));
    int file_index = 0;
    while (total_bytes < config.total_bytes) {
        CorpusFile f;
        const std::string dir = pick(rng, kDirs, dir_count);
        char path[128];
        std::snprintf(path, sizeof path, "%s/%s_%04d.c", dir.c_str(),
                      pick(rng, kIdents).c_str(), file_index++);
        f.path = path;
        std::string text = "/* auto-generated corpus file: " + f.path + " */\n";
        text += "#include <linux/kernel.h>\n#include <linux/module.h>\n\n";
        const auto target = static_cast<std::size_t>(
            static_cast<double>(config.mean_file_bytes) * rng.uniform(0.5, 1.5));
        int fn = 0;
        while (text.size() < target) emit_function(rng, text, fn++);
        f.contents.assign(text.begin(), text.end());
        total_bytes += f.contents.size();
        files.push_back(std::move(f));
    }
    return files;
}

}  // namespace reference

TEST(CorpusOracle, FiftySeedsMatchTheFirstGenerator) {
    CorpusConfig cfg;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        // Vary the shape too: file sizes and directory fan-out.
        cfg.total_bytes = 128 * 1024 + 4096 * seed;
        cfg.mean_file_bytes = 2048 + 512 * (seed % 16);
        cfg.top_level_dirs = 1 + seed % 14;
        const SyntheticCorpus corpus(cfg, seed);
        const std::vector<CorpusFile> want = reference::generate(cfg, seed);
        ASSERT_EQ(corpus.file_count(), want.size()) << seed;
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(corpus.files()[i].path, want[i].path) << seed;
            ASSERT_EQ(corpus.files()[i].contents, want[i].contents) << seed << " " << want[i].path;
        }
    }
    // The paper-default corpus of the default season, whole.
    const SyntheticCorpus full(CorpusConfig{}, 20100219);
    const std::vector<CorpusFile> want = reference::generate(CorpusConfig{}, 20100219);
    ASSERT_EQ(full.file_count(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(full.files()[i].path, want[i].path);
        EXPECT_EQ(full.files()[i].contents, want[i].contents);
    }
}

CorpusConfig small_config() {
    CorpusConfig cfg;
    cfg.total_bytes = 64 * 1024;
    cfg.mean_file_bytes = 8 * 1024;
    return cfg;
}

TEST(Archive, RoundTrip) {
    const SyntheticCorpus corpus(small_config(), 5);
    const auto bytes = write_archive(corpus.files());
    // Structure: multiple of the record size.
    EXPECT_EQ(bytes.size() % kRecordSize, 0u);
    const auto files = read_archive(bytes);
    ASSERT_EQ(files.size(), corpus.file_count());
    for (std::size_t i = 0; i < files.size(); ++i) {
        EXPECT_EQ(files[i].path, corpus.files()[i].path);
        EXPECT_EQ(files[i].contents, corpus.files()[i].contents);
    }
}

TEST(Archive, EmptyFileList) {
    const auto bytes = write_archive({});
    EXPECT_EQ(bytes.size(), 2 * kRecordSize);  // just the end marker
    EXPECT_TRUE(read_archive(bytes).empty());
    EXPECT_TRUE(archive_intact(bytes));
}

TEST(Archive, EmptyFileContents) {
    std::vector<CorpusFile> files{{"empty.c", {}}};
    const auto bytes = write_archive(files);
    const auto back = read_archive(bytes);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_TRUE(back[0].contents.empty());
}

TEST(Archive, HeaderCorruptionDetected) {
    const SyntheticCorpus corpus(small_config(), 5);
    auto bytes = write_archive(corpus.files());
    bytes[5] ^= 0xff;  // inside the first header's name field
    EXPECT_THROW((void)read_archive(bytes), core::CorruptData);
    EXPECT_FALSE(archive_intact(bytes));
}

TEST(Archive, ContentCorruptionInvisibleToHeaders) {
    // A flipped content byte does NOT trip the header checksums — that is
    // exactly why the paper's md5sum step exists.
    const SyntheticCorpus corpus(small_config(), 5);
    auto bytes = write_archive(corpus.files());
    bytes[kRecordSize + 10] ^= 0x01;  // first file's contents
    EXPECT_TRUE(archive_intact(bytes));
    EXPECT_NO_THROW((void)read_archive(bytes));
}

TEST(Archive, TruncationDetected) {
    const SyntheticCorpus corpus(small_config(), 5);
    auto bytes = write_archive(corpus.files());
    bytes.resize(bytes.size() / 2);
    EXPECT_THROW((void)read_archive(bytes), core::CorruptData);
}

TEST(Archive, MissingEndMarker) {
    const SyntheticCorpus corpus(small_config(), 5);
    auto bytes = write_archive(corpus.files());
    bytes.resize(bytes.size() - 2 * kRecordSize);
    EXPECT_THROW((void)read_archive(bytes), core::CorruptData);
}

TEST(Archive, OverlongPathRejected) {
    std::vector<CorpusFile> files{{std::string(150, 'p'), {1, 2, 3}}};
    EXPECT_THROW((void)write_archive(files), core::InvalidArgument);
}

}  // namespace
}  // namespace zerodeg::workload
