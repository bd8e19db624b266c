#include "workload/corpus.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <span>
#include <string_view>

#include "core/error.hpp"

namespace zerodeg::workload {

namespace {

constexpr std::string_view kDirs[] = {"arch", "block", "crypto", "drivers", "fs",   "kernel",
                                      "lib",  "mm",    "net",    "sound",   "init", "ipc"};

constexpr std::string_view kTypes[] = {"int", "long", "void", "char *", "size_t", "u32", "u64",
                                       "struct page *", "struct inode *", "unsigned int"};

constexpr std::string_view kIdents[] = {
    "buf",   "len",    "ret",   "err",   "flags", "offset", "page",  "inode", "dev",
    "state", "lock",   "count", "index", "entry", "head",   "queue", "mask",  "addr",
    "size",  "status", "ctx",   "req",   "tmp",   "node",   "data",  "pos"};

constexpr std::string_view kCalls[] = {"kmalloc", "kfree", "spin_lock", "spin_unlock", "memcpy",
                                       "memset", "printk", "list_add", "list_del", "wait_event",
                                       "schedule", "mutex_lock", "mutex_unlock", "atomic_inc"};

std::string_view pick(core::RngStream& rng, std::span<const std::string_view> list) {
    return list[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(list.size()) - 1))];
}

template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
    (out.append(parts), ...);
}

// Draw order.  Every RNG draw is its own statement: C++ leaves unspecified
// the order in which a call's arguments or an operator's operands are
// evaluated, so drawing inside one expression would let the compiler choose
// the corpus.  The order below is the one GCC used when the pinned corpus,
// container and census digests were made — right to left within a line, so
// a line's last pick is drawn first — and changing it changes them all.
void emit_function(core::RngStream& rng, std::string& out, int index) {
    const std::string_view name_call = pick(rng, kCalls);
    const std::string_view name_ident = pick(rng, kIdents);
    const std::string_view type = pick(rng, kTypes);
    append(out, "static ", type, " ", name_ident, "_", name_call, "_", std::to_string(index), "(");
    const int args = static_cast<int>(rng.uniform_int(0, 3));
    for (int i = 0; i < args; ++i) {
        if (i) out += ", ";
        const std::string_view arg = pick(rng, kIdents);
        const std::string_view arg_type = pick(rng, kTypes);
        append(out, arg_type, " ", arg);
    }
    out += ")\n{\n";
    const int stmts = static_cast<int>(rng.uniform_int(3, 18));
    for (int i = 0; i < stmts; ++i) {
        const int kind = static_cast<int>(rng.uniform_int(0, 4));
        switch (kind) {
            case 0: {
                const std::int64_t value = rng.uniform_int(0, 4096);
                const std::string_view var = pick(rng, kIdents);
                const std::string_view var_type = pick(rng, kTypes);
                append(out, "\t", var_type, " ", var, " = ", std::to_string(value), ";\n");
                break;
            }
            case 1: {
                const std::string_view arg = pick(rng, kIdents);
                const std::string_view call = pick(rng, kCalls);
                const std::string_view var = pick(rng, kIdents);
                append(out, "\t", var, " = ", call, "(", arg, ");\n");
                break;
            }
            case 2: {
                const std::string_view rhs = pick(rng, kIdents);
                const std::string_view lhs = pick(rng, kIdents);
                append(out, "\tif (", lhs, " < ", rhs, ")\n\t\treturn -EINVAL;\n");
                break;
            }
            case 3: {
                const std::string_view held = pick(rng, kIdents);
                const std::string_view holder = pick(rng, kIdents);
                append(out, "\t/* ", holder, " must hold ", held, " across this call */\n");
                break;
            }
            default: {
                const std::string_view arg = pick(rng, kIdents);
                const std::string_view call = pick(rng, kCalls);
                const std::string_view step = pick(rng, kIdents);
                const std::string_view bound = pick(rng, kIdents);
                const std::string_view test = pick(rng, kIdents);
                const std::string_view init = pick(rng, kIdents);
                append(out, "\tfor (", init, " = 0; ", test, " < ", bound, "; ++", step,
                       ")\n\t\t", call, "(", arg, ");\n");
                break;
            }
        }
    }
    out += "\treturn 0;\n}\n\n";
}

}  // namespace

SyntheticCorpus::SyntheticCorpus(CorpusConfig config, std::uint64_t seed) {
    if (config.total_bytes == 0 || config.mean_file_bytes == 0) {
        throw core::InvalidArgument("SyntheticCorpus: sizes must be positive");
    }
    core::RngStream rng{seed, "corpus"};
    const std::span<const std::string_view> dirs =
        std::span(kDirs).first(std::min(config.top_level_dirs, std::size(kDirs)));

    std::string text;  // one file at a time, reused
    int file_index = 0;
    while (total_bytes_ < config.total_bytes) {
        CorpusFile f;
        const std::string_view dir = pick(rng, dirs);
        const std::string_view stem = pick(rng, kIdents);
        char path[128];
        std::snprintf(path, sizeof path, "%.*s/%.*s_%04d.c", static_cast<int>(dir.size()),
                      dir.data(), static_cast<int>(stem.size()), stem.data(), file_index++);
        f.path = path;

        text.clear();
        append(text, "/* auto-generated corpus file: ", f.path, " */\n",
               "#include <linux/kernel.h>\n#include <linux/module.h>\n\n");
        // Target size jitters around the mean by +/- 50%.
        const auto target = static_cast<std::size_t>(
            static_cast<double>(config.mean_file_bytes) * rng.uniform(0.5, 1.5));
        int fn = 0;
        while (text.size() < target) emit_function(rng, text, fn++);

        f.contents.assign(text.begin(), text.end());
        total_bytes_ += f.contents.size();
        files_.push_back(std::move(f));
    }
}

}  // namespace zerodeg::workload
