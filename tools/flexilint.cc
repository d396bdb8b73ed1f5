/**
 * @file
 * flexilint: static analysis over the shipped netlists and over
 * assembled programs, for CI and for bring-up of new kernels.
 *
 * Usage:
 *   flexilint [options] [--netlist fc4|fc8|ext|ls]...
 *             [--program <isa> <file.s>]... [--kernels]
 *
 * With no subjects, lints everything built in: all four netlists
 * plus every benchmark kernel on every ISA that supports it.
 *
 * Options:
 *   --json          machine-readable output (one JSON array)
 *   --werror        treat warnings as errors for the exit code
 *   --equiv         formally verify each netlist subject: plan vs
 *                   gate-level reference, and netlist vs behavioral
 *                   ISA spec (SAT-based CEC)
 *   --timing        path-level static timing on each netlist subject
 *   --dataflow      fixed-point ternary dataflow analysis on each
 *                   netlist subject (dead-gate, x-after-reset,
 *                   constant-output)
 *   --prune         SAT-certified prune of each netlist subject;
 *                   reports removed logic and the certification
 *   --seq-prune     sequential prune (BMC/induction-certified merge
 *                   of state-correlated logic the ternary engine
 *                   cannot see) of each netlist subject; reports
 *                   the improvement over --prune's baseline
 *   --hash          canonical structural hash of each netlist
 *                   subject (the DSE sweep's cache key)
 *   --bmc <K>       bounded model checking to depth K on each
 *                   netlist subject (property catalog below)
 *   --induct <K>    k-induction proof attempt up to k = K, with BMC
 *                   fallback for falsification
 *   --prop <spec>   property to check (repeatable; see
 *                   src/analysis/mc/property.hh for the grammar:
 *                   assert:<net>=<0|1>, bound:<bus>/<w>/<limit>,
 *                   watchdog[:N], mmu-page, xfree[:K]). Without
 *                   --prop, the default catalog runs.
 *   --mc-program <isa> <file.s>
 *                   close the sequential model over this program
 *                   for matching netlist subjects (enables the
 *                   watchdog / mmu-page properties)
 *   --trace-vcd <path>
 *                   dump the first confirmed counterexample trace
 *                   as a VCD file
 *   --vdd <volts>   supply for --timing slack (default nominal 4.5)
 *   --paths <k>     top-K critical paths for --timing (default 8)
 *   --suppress <rule[,rule...]>
 *                   drop findings for the named rules before
 *                   rendering and before the exit-code count
 *
 * Exit codes (pinned; tests/CMakeLists.txt asserts them end to
 * end): 0 = clean (notes/warnings allowed unless --werror), 1 =
 * findings at error severity (or warnings under --werror) — this
 * includes falsified properties (prop-cex) and failed prune
 * certifications, 2 = usage error (unknown flag, malformed
 * --prop spec, unreadable file, assembly failure).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dataflow/dataflow.hh"
#include "analysis/dataflow/prune.hh"
#include "analysis/dataflow/struct_hash.hh"
#include "analysis/equiv.hh"
#include "analysis/mc/mc_lint.hh"
#include "analysis/mc/property.hh"
#include "analysis/mc/seq_prune.hh"
#include "analysis/netlist_lint.hh"
#include "analysis/program_lint.hh"
#include "analysis/timing.hh"
#include "tech/technology.hh"
#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "common/parse_number.hh"
#include "kernels/fc8_programs.hh"
#include "kernels/kernels.hh"
#include "netlist/flexicore_netlist.hh"

using namespace flexi;

namespace
{

struct IsaAlias
{
    const char *name;
    IsaKind isa;
};

constexpr IsaAlias kIsaAliases[] = {
    {"fc4", IsaKind::FlexiCore4},
    {"fc8", IsaKind::FlexiCore8},
    {"ext", IsaKind::ExtAcc4},
    {"ls", IsaKind::LoadStore4},
};

bool
parseIsa(const char *name, IsaKind &out)
{
    for (const auto &a : kIsaAliases) {
        if (std::strcmp(name, a.name) == 0) {
            out = a.isa;
            return true;
        }
    }
    return false;
}

std::unique_ptr<Netlist>
buildNetlist(IsaKind isa)
{
    switch (isa) {
      case IsaKind::FlexiCore4: return buildFlexiCore4Netlist();
      case IsaKind::FlexiCore8: return buildFlexiCore8Netlist();
      case IsaKind::ExtAcc4: return buildExtAcc4Netlist();
      case IsaKind::LoadStore4: return buildLoadStore4Netlist();
    }
    fatal("bad IsaKind");
}

int
usage()
{
    std::fprintf(stderr,
        "usage: flexilint [--json] [--werror] [--equiv] [--timing]\n"
        "                 [--dataflow] [--prune] [--seq-prune]\n"
        "                 [--hash] [--bmc <K>] [--induct <K>]\n"
        "                 [--prop <spec>]...\n"
        "                 [--mc-program fc4|fc8|ext|ls <file.s>]...\n"
        "                 [--trace-vcd <path>]\n"
        "                 [--vdd <volts>] [--paths <k>]\n"
        "                 [--suppress <rule[,rule...]>]\n"
        "                 [--netlist fc4|fc8|ext|ls]...\n"
        "                 [--program fc4|fc8|ext|ls <file.s>]...\n"
        "                 [--kernels]\n"
        "with no subjects, lints all netlists and all kernels\n"
        "exit codes: 0 clean, 1 errors (or warnings under\n"
        "--werror), 2 usage error\n");
    return 2;
}

/** One linted subject: its name and its report. */
struct Result
{
    std::string subject;
    LintReport report;
};

/** Split a comma-separated rule list. */
std::vector<std::string>
splitRules(const std::string &arg)
{
    std::vector<std::string> rules;
    std::string cur;
    for (char c : arg) {
        if (c == ',') {
            if (!cur.empty())
                rules.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        rules.push_back(cur);
    return rules;
}

/** A copy of @p report without the suppressed rules. */
LintReport
filterReport(const LintReport &report,
             const std::vector<std::string> &suppressed)
{
    LintReport out;
    for (const Diagnostic &d : report.diagnostics()) {
        bool drop = false;
        for (const std::string &rule : suppressed)
            if (d.rule == rule)
                drop = true;
        if (!drop)
            out.add(d);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    bool werror = false;
    bool kernels = false;
    bool equiv = false;
    bool timing = false;
    bool dataflow = false;
    bool do_prune = false;
    bool do_seq_prune = false;
    bool do_hash = false;
    unsigned bmc_depth = 0;
    unsigned induct_depth = 0;
    std::vector<std::string> prop_specs;
    std::vector<std::pair<IsaKind, std::string>> mc_programs;
    std::string vcd_path;
    double vdd = kVddNominal;
    size_t top_paths = 8;
    std::vector<std::string> suppressed;
    std::vector<IsaKind> netlists;
    std::vector<std::pair<IsaKind, std::string>> programs;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--werror") {
            werror = true;
        } else if (arg == "--kernels") {
            kernels = true;
        } else if (arg == "--equiv") {
            equiv = true;
        } else if (arg == "--timing") {
            timing = true;
        } else if (arg == "--dataflow") {
            dataflow = true;
        } else if (arg == "--prune") {
            do_prune = true;
        } else if (arg == "--seq-prune") {
            do_seq_prune = true;
        } else if (arg == "--hash") {
            do_hash = true;
        } else if (arg == "--bmc") {
            std::optional<unsigned> n;
            if (++i >= argc || !(n = parseUnsigned<unsigned>(argv[i], 1)))
                return usage();
            bmc_depth = *n;
        } else if (arg == "--induct") {
            std::optional<unsigned> n;
            if (++i >= argc || !(n = parseUnsigned<unsigned>(argv[i], 1)))
                return usage();
            induct_depth = *n;
        } else if (arg == "--prop") {
            if (++i >= argc)
                return usage();
            // Malformed specs are usage errors, caught before any
            // solving starts; netlist-dependent validation (names
            // resolve, model is closed) stays a prop-invalid
            // diagnostic per subject.
            McProperty parsed;
            std::string err;
            if (!parsePropertySpec(argv[i], parsed, &err)) {
                std::fprintf(stderr, "flexilint: bad --prop %s: %s\n",
                             argv[i], err.c_str());
                return usage();
            }
            prop_specs.push_back(argv[i]);
        } else if (arg == "--mc-program") {
            IsaKind isa;
            if (i + 2 >= argc || !parseIsa(argv[i + 1], isa))
                return usage();
            mc_programs.emplace_back(isa, argv[i + 2]);
            i += 2;
        } else if (arg == "--trace-vcd") {
            if (++i >= argc)
                return usage();
            vcd_path = argv[i];
        } else if (arg == "--vdd") {
            std::optional<double> v;
            if (++i >= argc ||
                !(v = parseReal(argv[i],
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max())))
                return usage();
            vdd = *v;
        } else if (arg == "--paths") {
            std::optional<size_t> n;
            if (++i >= argc || !(n = parseUnsigned<size_t>(argv[i], 1)))
                return usage();
            top_paths = *n;
        } else if (arg == "--suppress") {
            if (++i >= argc)
                return usage();
            for (std::string &rule : splitRules(argv[i]))
                suppressed.push_back(std::move(rule));
        } else if (arg == "--netlist") {
            IsaKind isa;
            if (++i >= argc || !parseIsa(argv[i], isa))
                return usage();
            netlists.push_back(isa);
        } else if (arg == "--program") {
            IsaKind isa;
            if (i + 2 >= argc || !parseIsa(argv[i + 1], isa))
                return usage();
            programs.emplace_back(isa, argv[i + 2]);
            i += 2;
        } else {
            return usage();
        }
    }

    // Default: everything built in.
    if (netlists.empty() && programs.empty() && !kernels) {
        for (const auto &a : kIsaAliases)
            netlists.push_back(a.isa);
        kernels = true;
    }

    bool model_check =
        bmc_depth > 0 || induct_depth > 0 || !prop_specs.empty();
    bool vcd_written = false;

    std::vector<Result> results;

    try {
        for (IsaKind isa : netlists) {
            auto nl = buildNetlist(isa);
            LintReport report = lintNetlist(*nl);
            if (equiv)
                report.append(equivLint(*nl, isa));
            if (timing) {
                Technology tech;
                report.append(
                    timingLint(*nl, tech, vdd, top_paths));
            }
            if (dataflow)
                report.append(dataflowLint(*nl));
            if (do_hash) {
                Diagnostic d;
                d.severity = Severity::Note;
                d.rule = "netlist-hash";
                d.module = "core";
                d.message = strfmt(
                    "canonical structural hash %s",
                    canonicalNetlistHashHex(*nl).c_str());
                report.add(std::move(d));
            }
            if (do_prune) {
                PruneResult pr = prune(*nl);
                if (!pr.ok) {
                    Diagnostic d;
                    d.severity = Severity::Error;
                    d.rule = "prune-failed";
                    d.module = "core";
                    d.message = pr.detail;
                    report.add(std::move(d));
                } else {
                    Diagnostic d;
                    d.severity = Severity::Note;
                    d.rule = "prune-summary";
                    d.module = "core";
                    d.message = strfmt(
                        "%zu -> %zu cells, %zu -> %zu state bits, "
                        "%.1f NAND2-equivalents saved "
                        "(%zu dead, %zu const, %zu const state)",
                        pr.stats.cellsBefore, pr.stats.cellsAfter,
                        pr.stats.dffsBefore, pr.stats.dffsAfter,
                        pr.stats.nand2AreaSaved(),
                        pr.stats.deadCells, pr.stats.constCells,
                        pr.stats.constDffs);
                    report.add(std::move(d));
                    Diagnostic c;
                    c.module = "core";
                    if (pr.certified) {
                        c.severity = Severity::Note;
                        c.rule = "prune-certified";
                        c.message = strfmt(
                            "SAT-certified equivalent on all "
                            "observable cones (%zu solver calls)",
                            static_cast<size_t>(
                                pr.certification.solves));
                    } else {
                        c.severity = Severity::Error;
                        c.rule = "prune-uncertified";
                        c.message = pr.certification.detail.empty()
                                        ? "certification failed"
                                        : pr.certification.detail;
                    }
                    report.add(std::move(c));
                }
            }
            if (do_seq_prune) {
                SeqPruneResult sp = seqPrune(*nl);
                if (!sp.ok) {
                    Diagnostic d;
                    d.severity = Severity::Error;
                    d.rule = "seq-prune-failed";
                    d.module = "mc";
                    d.message = sp.detail;
                    report.add(std::move(d));
                } else {
                    Diagnostic d;
                    d.severity = Severity::Note;
                    d.rule = "seq-prune-summary";
                    d.module = "mc";
                    d.message = strfmt(
                        "%zu -> %zu cells (ternary prune alone "
                        "%zu), %zu -> %zu state bits, %.1f NAND2-"
                        "equivalents saved (%.1f beyond ternary: "
                        "%zu merged drivers, %zu INV rewrites, "
                        "%zu const DFFs, %zu pair DFFs)",
                        sp.stats.cellsBefore, sp.stats.cellsAfter,
                        sp.baseline.cellsAfter,
                        sp.stats.dffsBefore, sp.stats.dffsAfter,
                        sp.stats.nand2AreaSaved(),
                        sp.stats.nand2AreaSaved() -
                            sp.baseline.nand2AreaSaved(),
                        sp.seq.mergedNets, sp.seq.invDrivers,
                        sp.seq.constDffs, sp.seq.pairDffs);
                    report.add(std::move(d));
                    Diagnostic c;
                    c.module = "mc";
                    if (sp.certified) {
                        c.severity = Severity::Note;
                        c.rule = "seq-prune-certified";
                        c.message = strfmt(
                            "SAT-certified: invariants proved by "
                            "induction, observable cones "
                            "equivalent (%zu solver calls)",
                            static_cast<size_t>(
                                sp.certification.solves));
                    } else {
                        c.severity = Severity::Error;
                        c.rule = "seq-prune-uncertified";
                        c.message =
                            sp.certification.detail.empty()
                                ? "certification failed"
                                : sp.certification.detail;
                    }
                    report.add(std::move(c));
                }
            }
            if (model_check) {
                McLintOptions mo;
                if (bmc_depth > 0)
                    mo.bmcDepth = bmc_depth;
                mo.inductDepth = induct_depth;
                mo.props = prop_specs;
                Program mc_prog(isa);
                for (const auto &[pisa, path] : mc_programs) {
                    if (pisa != isa)
                        continue;
                    std::ifstream in(path);
                    if (!in)
                        fatal("cannot open %s", path.c_str());
                    std::ostringstream src;
                    src << in.rdbuf();
                    mc_prog = assemble(isa, src.str());
                    mo.model.program = &mc_prog;
                    break;
                }
                McLintOutcome out = mcLint(*nl, mo);
                report.append(out.report);
                if (!vcd_path.empty() && !vcd_written &&
                    !out.traces.empty()) {
                    std::ofstream vf(vcd_path);
                    if (!vf)
                        fatal("cannot write %s", vcd_path.c_str());
                    vf << out.traces.front().vcd();
                    vcd_written = true;
                }
            }
            results.push_back({nl->name(), std::move(report)});
        }
        if (kernels) {
            for (KernelId id : allKernels()) {
                for (IsaKind isa : {IsaKind::FlexiCore4,
                                    IsaKind::ExtAcc4,
                                    IsaKind::LoadStore4}) {
                    Program prog =
                        assemble(isa, kernelSource(id, isa));
                    results.push_back(
                        {strfmt("%s/%s", kernelName(id),
                                isaName(isa)),
                         lintProgram(prog)});
                }
            }
            for (size_t i = 0; i < kNumFc8Programs; ++i) {
                auto id = static_cast<Fc8Program>(i);
                Program prog = assemble(IsaKind::FlexiCore8,
                                        fc8ProgramSource(id));
                results.push_back(
                    {strfmt("%s/%s", fc8ProgramName(id),
                            isaName(IsaKind::FlexiCore8)),
                     lintProgram(prog)});
            }
        }
        for (const auto &[isa, path] : programs) {
            std::ifstream in(path);
            if (!in) {
                std::fprintf(stderr, "flexilint: cannot open %s\n",
                             path.c_str());
                return 2;
            }
            std::ostringstream src;
            src << in.rdbuf();
            Program prog = assemble(isa, src.str());
            results.push_back({path, lintProgram(prog)});
        }
    } catch (const FatalError &err) {
        std::fprintf(stderr, "flexilint: %s\n", err.what());
        return 2;
    }

    if (!suppressed.empty())
        for (auto &res : results)
            res.report = filterReport(res.report, suppressed);

    // Byte-stable output: canonical order, duplicates dropped.
    for (auto &res : results)
        res.report.normalize();

    size_t num_errors = 0, num_warnings = 0;
    if (json)
        std::printf("[");
    bool first = true;
    for (const auto &res : results) {
        num_errors += res.report.errors();
        num_warnings += res.report.warnings();
        if (json) {
            // Flatten all subjects into one array: re-emit each
            // report's array contents without its brackets.
            std::string body = res.report.json(res.subject);
            size_t open = body.find('[');
            size_t close = body.rfind(']');
            std::string inner =
                body.substr(open + 1, close - open - 1);
            // Trim trailing whitespace/newlines.
            while (!inner.empty() &&
                   (inner.back() == '\n' || inner.back() == ' '))
                inner.pop_back();
            if (inner.empty())
                continue;
            if (!first)
                std::printf(",");
            std::printf("%s", inner.c_str());
            first = false;
        } else {
            std::fputs(res.report.text(res.subject).c_str(), stdout);
        }
    }
    if (json) {
        std::printf("\n]\n");
    } else {
        std::printf("flexilint: %zu subject(s), %zu error(s), "
                    "%zu warning(s)\n",
                    results.size(), num_errors, num_warnings);
    }

    bool fail = num_errors > 0 || (werror && num_warnings > 0);
    return fail ? 1 : 0;
}
