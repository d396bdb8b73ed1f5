/**
 * @file
 * Simulation replay of a combinational equivalence counterexample,
 * shared by the formal and ATPG suites: the independent oracle that
 * a SAT model really separates two netlist instances.
 */

#ifndef FLEXI_TESTS_EQUIV_REPLAY_HH
#define FLEXI_TESTS_EQUIV_REPLAY_HH

#include <gtest/gtest.h>

#include "analysis/equiv.hh"
#include "netlist/netlist.hh"

namespace flexi
{

/**
 * Replay @p cex on clones of @p a and @p b: drive its inputs, force
 * its state bits (state forces ride on the fault machinery; a net
 * that is genuinely faulted keeps its fault), evaluate, and report
 * whether a primary output or an effective captured next-state bit
 * differs between the two.
 */
inline bool
cexReplaysAsMismatch(const Netlist &a, const Netlist &b,
                     const EquivCounterexample &cex)
{
    auto drive = [&](Netlist &nl) {
        for (const auto &[name, value] : cex.assignment) {
            NetId net = nl.findNet(name);
            EXPECT_NE(net, kNoNet) << name;
            if (net == kNoNet)
                continue;
            if (nl.primaryInputs().count(name)) {
                nl.setInput(name, value);
                continue;
            }
            bool already_faulted = false;
            for (const StuckFault &f : nl.faults())
                already_faulted |= f.net == net;
            if (!already_faulted)
                nl.injectFault({net, value});
        }
        nl.evaluate();
    };
    auto a_run = a.clone();
    auto b_run = b.clone();
    // Genuine defects (as opposed to the state forces drive() adds).
    auto a_defects = a_run->faults();
    auto b_defects = b_run->faults();
    drive(*a_run);
    drive(*b_run);

    // Effective captured value: the D cone, unless a *genuine* fault
    // forces Q (the state forces only model "the state currently
    // holds this value"; they do not persist across the edge).
    auto captured = [](const Netlist &nl,
                       const std::vector<StuckFault> &defects,
                       const Netlist::DffInfo &d) {
        for (const StuckFault &f : defects)
            if (f.net == d.q)
                return f.value;
        return nl.netValue(d.d);
    };
    bool differs = false;
    for (const auto &[name, net] : a_run->primaryOutputs())
        differs |= a_run->output(name) != b_run->output(name);
    auto a_dffs = a_run->dffs();
    auto b_dffs = b_run->dffs();
    EXPECT_EQ(a_dffs.size(), b_dffs.size());
    for (size_t i = 0; i < a_dffs.size() && i < b_dffs.size(); ++i)
        differs |= captured(*a_run, a_defects, a_dffs[i]) !=
                   captured(*b_run, b_defects, b_dffs[i]);
    return differs;
}

} // namespace flexi

#endif // FLEXI_TESTS_EQUIV_REPLAY_HH
