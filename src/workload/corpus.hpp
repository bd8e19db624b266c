// Synthetic source-tree corpus.
//
// The paper's load compresses a Linux kernel source directory.  We cannot
// ship one, so this generates a deterministic tree of C-like source files
// with realistic statistics (token repetition, indentation, comments) —
// compressible the way source code is — at a configurable total size.
//
// Every RNG draw is its own statement, in a fixed documented order (see
// emit_function), so the corpus does not depend on the order in which a
// compiler evaluates operands.  Lines are appended from string_view picks
// into one reused text buffer, with no per-token string temporaries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hpp"

namespace zerodeg::workload {

struct CorpusFile {
    std::string path;
    std::vector<std::uint8_t> contents;
};

struct CorpusConfig {
    /// Approximate total bytes across all files.
    std::size_t total_bytes = 2 * 1024 * 1024;
    /// Approximate bytes per file.
    std::size_t mean_file_bytes = 16 * 1024;
    /// Directory fan-out flavor ("drivers", "fs", "net", ...).
    std::size_t top_level_dirs = 8;
};

/// Deterministic for a given (config, seed).
class SyntheticCorpus {
public:
    SyntheticCorpus(CorpusConfig config, std::uint64_t seed);

    [[nodiscard]] const std::vector<CorpusFile>& files() const { return files_; }
    [[nodiscard]] std::size_t total_bytes() const { return total_bytes_; }
    [[nodiscard]] std::size_t file_count() const { return files_.size(); }

private:
    std::vector<CorpusFile> files_;
    std::size_t total_bytes_ = 0;
};

}  // namespace zerodeg::workload
