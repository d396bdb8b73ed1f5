/**
 * @file
 * Formal engine tests: the CDCL SAT solver (unit + differential
 * against brute force), the plan-vs-reference equivalence sweep on
 * all four cores, counterexample extraction on a deliberately broken
 * netlist (replayed in simulation to prove the cex is real), the
 * clone/fault identity checks, and the per-instruction ISA proofs.
 */

#include <cstdlib>
#include <memory>

#include <gtest/gtest.h>

#include "analysis/cnf_encoder.hh"
#include "analysis/equiv.hh"
#include "analysis/sat.hh"
#include "equiv_replay.hh"
#include "netlist/flexicore_netlist.hh"
#include "netlist/netlist.hh"

namespace flexi
{
namespace
{

using Result = SatSolver::Result;

// ---------------------------------------------------------------
// SAT solver unit tests.

TEST(Sat, TrivialSatAndModel)
{
    SatSolver s;
    SatVar a = s.newVar();
    SatVar b = s.newVar();
    ASSERT_TRUE(s.addClause({SatLit::make(a), SatLit::make(b)}));
    ASSERT_TRUE(s.addClause({SatLit::make(a, true)}));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_FALSE(s.modelValue(a));
    EXPECT_TRUE(s.modelValue(b));
}

TEST(Sat, EmptyClauseIsUnsat)
{
    SatSolver s;
    SatVar a = s.newVar();
    (void)a;
    EXPECT_FALSE(s.addClause({}));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Sat, ContradictoryUnitsAreUnsat)
{
    SatSolver s;
    SatVar a = s.newVar();
    ASSERT_TRUE(s.addClause({SatLit::make(a)}));
    EXPECT_FALSE(s.addClause({SatLit::make(a, true)}));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Sat, PigeonholeThreeIntoTwoIsUnsat)
{
    // 3 pigeons, 2 holes: classic small UNSAT instance that needs
    // real conflict analysis, not just propagation.
    SatSolver s;
    SatLit p[3][2];
    for (auto &pigeon : p)
        for (auto &lit : pigeon)
            lit = SatLit::make(s.newVar());
    for (auto &pigeon : p)
        ASSERT_TRUE(s.addClause({pigeon[0], pigeon[1]}));
    for (int h = 0; h < 2; ++h)
        for (int i = 0; i < 3; ++i)
            for (int j = i + 1; j < 3; ++j)
                ASSERT_TRUE(s.addClause({~p[i][h], ~p[j][h]}));
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Sat, AssumptionsDoNotPoisonLaterSolves)
{
    SatSolver s;
    SatVar a = s.newVar();
    SatVar b = s.newVar();
    ASSERT_TRUE(s.addClause({SatLit::make(a), SatLit::make(b)}));
    // a=0, b=0 assumed: Unsat under assumptions only.
    EXPECT_EQ(s.solve({SatLit::make(a, true), SatLit::make(b, true)}),
              Result::Unsat);
    // The formula itself is still satisfiable.
    EXPECT_EQ(s.solve(), Result::Sat);
    EXPECT_EQ(s.solve({SatLit::make(a, true)}), Result::Sat);
    EXPECT_TRUE(s.modelValue(b));
}

TEST(Sat, ContradictoryAssumptionsRejectedCleanly)
{
    // {a, ~a} in one assumption list is Unsat on its face; the
    // solver must notice when placing the second pseudo-decision
    // and must not mark the formula itself unsatisfiable.
    SatSolver s;
    SatVar a = s.newVar();
    SatVar b = s.newVar();
    ASSERT_TRUE(s.addClause({SatLit::make(a), SatLit::make(b)}));
    EXPECT_EQ(s.solve({SatLit::make(a), SatLit::make(a, true)}),
              Result::Unsat);
    EXPECT_EQ(s.solve(), Result::Sat);
    EXPECT_EQ(s.solve({SatLit::make(a)}), Result::Sat);
    EXPECT_TRUE(s.modelValue(a));
}

/** Pigeonhole instance with every clause guarded by ~sel, so the
 *  contradiction only activates under the `sel` assumption. */
void
addGuardedPigeonhole(SatSolver &s, int pigeons, int holes,
                     SatLit sel)
{
    std::vector<std::vector<SatLit>> p(pigeons);
    for (auto &pigeon : p)
        for (int h = 0; h < holes; ++h)
            pigeon.push_back(SatLit::make(s.newVar()));
    for (auto &pigeon : p) {
        std::vector<SatLit> cl = pigeon;
        cl.push_back(~sel);
        ASSERT_TRUE(s.addClause(cl));
    }
    for (int h = 0; h < holes; ++h)
        for (int i = 0; i < pigeons; ++i)
            for (int j = i + 1; j < pigeons; ++j)
                ASSERT_TRUE(
                    s.addClause({~p[i][h], ~p[j][h], ~sel}));
}

TEST(Sat, IncrementalAssumptionReuseKeepsLearnedClauses)
{
    // The miter loop solves the same CNF under one activation
    // assumption per query. Clauses learned refuting the first
    // query must carry over: re-solving under the same assumption
    // may not redo the full search.
    SatSolver s;
    SatLit sel = SatLit::make(s.newVar());
    addGuardedPigeonhole(s, 4, 3, sel);

    ASSERT_EQ(s.solve({sel}), Result::Unsat);
    uint64_t first = s.stats().conflicts;
    EXPECT_GT(first, 0u);

    ASSERT_EQ(s.solve({sel}), Result::Unsat);
    uint64_t extra = s.stats().conflicts - first;
    EXPECT_LT(extra, first);

    // Deactivated, the instance is satisfiable — the learned
    // clauses (all implied) must not over-constrain it.
    EXPECT_EQ(s.solve({~sel}), Result::Sat);
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Sat, RestartPathIsExercised)
{
    // A pigeonhole instance big enough to outlive the first Luby
    // budget: the Unsat proof must survive restarts (and the
    // learned clauses that persist across them).
    SatSolver s;
    SatLit p[7][6];
    for (auto &pigeon : p)
        for (auto &lit : pigeon)
            lit = SatLit::make(s.newVar());
    for (auto &pigeon : p) {
        std::vector<SatLit> cl(pigeon, pigeon + 6);
        ASSERT_TRUE(s.addClause(cl));
    }
    for (int h = 0; h < 6; ++h)
        for (int i = 0; i < 7; ++i)
            for (int j = i + 1; j < 7; ++j)
                ASSERT_TRUE(s.addClause({~p[i][h], ~p[j][h]}));
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_GT(s.stats().restarts, 0u);
    EXPECT_GT(s.stats().conflicts, 100u);
}

TEST(Sat, TriviallyTrueCnf)
{
    // No clauses at all: every assignment is a model.
    SatSolver empty;
    empty.newVar();
    EXPECT_EQ(empty.solve(), Result::Sat);

    // Tautologies and root-satisfied clauses are absorbed without
    // being stored; the formula stays equivalent to the remaining
    // unit.
    SatSolver s;
    SatVar x = s.newVar();
    SatVar y = s.newVar();
    ASSERT_TRUE(s.addClause({SatLit::make(x), SatLit::make(x, true)}));
    ASSERT_TRUE(s.addClause({SatLit::make(y)}));
    ASSERT_TRUE(s.addClause({SatLit::make(y), SatLit::make(x)}));
    ASSERT_TRUE(s.addClause({SatLit::make(y), SatLit::make(y)}));
    EXPECT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.modelValue(y));
    EXPECT_EQ(s.solve({SatLit::make(x, true)}), Result::Sat);
    EXPECT_FALSE(s.modelValue(x));
    EXPECT_TRUE(s.modelValue(y));
}

/** xorshift PRNG so the differential test is reproducible. */
uint32_t
nextRand(uint32_t &state)
{
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    return state;
}

TEST(Sat, DifferentialAgainstBruteForce)
{
    // Random 3-CNF instances near the phase transition, checked
    // against exhaustive enumeration: same Sat/Unsat verdict, and
    // every returned model actually satisfies the formula.
    uint32_t rng = 0xf1ec5u;
    for (int iter = 0; iter < 200; ++iter) {
        int num_vars = 4 + static_cast<int>(nextRand(rng) % 7);
        int num_clauses =
            static_cast<int>(nextRand(rng) % (4 * num_vars + 1));
        std::vector<std::vector<SatLit>> clauses;
        for (int c = 0; c < num_clauses; ++c) {
            std::vector<SatLit> cl;
            int width = 1 + static_cast<int>(nextRand(rng) % 3);
            for (int k = 0; k < width; ++k)
                cl.push_back(SatLit::make(
                    static_cast<int>(nextRand(rng) % num_vars),
                    (nextRand(rng) & 1) != 0));
            clauses.push_back(cl);
        }

        bool brute_sat = false;
        for (uint32_t m = 0; m < (1u << num_vars) && !brute_sat;
             ++m) {
            bool ok = true;
            for (const auto &cl : clauses) {
                bool any = false;
                for (SatLit l : cl)
                    any |= ((m >> l.var()) & 1u) !=
                           (l.negated() ? 1u : 0u);
                ok &= any;
            }
            brute_sat = ok;
        }

        SatSolver s;
        for (int v = 0; v < num_vars; ++v)
            s.newVar();
        bool trivially_unsat = false;
        for (auto &cl : clauses)
            trivially_unsat |= !s.addClause(cl);
        Result r = s.solve();
        ASSERT_EQ(r == Result::Sat, brute_sat)
            << "iter " << iter << " vars " << num_vars << " clauses "
            << num_clauses;
        if (trivially_unsat)
            ASSERT_EQ(r, Result::Unsat);
        if (r == Result::Sat) {
            for (const auto &cl : clauses) {
                bool any = false;
                for (SatLit l : cl)
                    any |= s.modelValue(l);
                ASSERT_TRUE(any) << "model violates a clause";
            }
        }
    }
}

// ---------------------------------------------------------------
// CNF builder sanity.

TEST(CnfBuilder, AdderMatchesArithmetic)
{
    SatSolver s;
    CnfBuilder cnf(s);
    CnfBuilder::Word a = cnf.freshWord(4);
    CnfBuilder::Word b = cnf.freshWord(4);
    SatLit cout;
    CnfBuilder::Word sum = cnf.add(a, b, cnf.constFalse(), &cout);
    for (unsigned x = 0; x < 16; ++x) {
        for (unsigned y = 0; y < 16; ++y) {
            std::vector<SatLit> assume;
            for (unsigned i = 0; i < 4; ++i) {
                assume.push_back(((x >> i) & 1) != 0 ? a[i] : ~a[i]);
                assume.push_back(((y >> i) & 1) != 0 ? b[i] : ~b[i]);
            }
            ASSERT_EQ(s.solve(assume), Result::Sat);
            unsigned got = static_cast<unsigned>(cnf.modelWord(sum)) |
                           (s.modelValue(cout) ? 16u : 0u);
            ASSERT_EQ(got, x + y);
        }
    }
}

// ---------------------------------------------------------------
// Plan-vs-reference equivalence (tentpole claim (a)).

std::unique_ptr<Netlist>
buildCore(int which)
{
    switch (which) {
      case 0: return buildFlexiCore4Netlist();
      case 1: return buildFlexiCore8Netlist();
      case 2: return buildExtAcc4Netlist();
      default: return buildLoadStore4Netlist();
    }
}

TEST(PlanEquiv, AllFourCoresProvenEqual)
{
    for (int which = 0; which < 4; ++which) {
        auto nl = buildCore(which);
        EquivResult res = checkPlanEquivalence(*nl);
        EXPECT_TRUE(res.proven)
            << nl->name() << ": "
            << (res.hasCex ? res.cex.text() : res.detail);
        EXPECT_GT(res.solves, 0u) << nl->name();
    }
}

TEST(PlanEquiv, FaultedInstanceStillSelfConsistent)
{
    // evaluate() and evaluateReference() must agree on a faulted die
    // too (both apply the same force masks); the plan proof covers
    // the faulted semantics.
    auto nl = buildFlexiCore4Netlist();
    nl->injectFault({nl->findNet("acc2"), true});
    EquivResult res = checkPlanEquivalence(*nl);
    EXPECT_TRUE(res.proven)
        << (res.hasCex ? res.cex.text() : res.detail);
}

// ---------------------------------------------------------------
// A deliberately broken netlist must yield a concrete, replayable
// counterexample (acceptance requirement).

TEST(NetlistEquiv, BrokenTwinYieldsReplayableCounterexample)
{
    auto a = buildFlexiCore4Netlist();
    auto b = a->clone();

    // Break the clone: stuck-at-1 on an accumulator bit.
    NetId acc1 = b->findNet("acc1");
    ASSERT_NE(acc1, kNoNet);
    b->injectFault({acc1, true});

    EquivResult res = checkNetlistEquivalence(*a, *b);
    ASSERT_FALSE(res.proven);
    ASSERT_TRUE(res.hasCex) << res.detail;
    ASSERT_FALSE(res.cex.mismatched.empty());
    ASSERT_FALSE(res.cex.assignment.empty());
    // The rendering is a concrete input assignment.
    EXPECT_NE(res.cex.text().find("instr="), std::string::npos)
        << res.cex.text();

    // Replay the counterexample in simulation: a real difference in
    // the outputs or the effective captured next-state.
    EXPECT_TRUE(cexReplaysAsMismatch(*a, *b, res.cex))
        << "counterexample did not reproduce in simulation: "
        << res.cex.text();
}

TEST(NetlistEquiv, RewiredGateIsCaught)
{
    // Two builds of the same toy state machine, one with a mux
    // select rewired to constant 1 before elaboration; the checker
    // must find a separating input.
    auto make = [](bool broken) {
        Netlist nl("toy");
        NetId a = nl.addInput("a");
        NetId b = nl.addInput("b");
        NetId c = nl.addInput("c");
        size_t mux = nl.numCells();
        NetId x = nl.addCell(CellType::MUX2, {a, b, c}, "m");
        if (broken)
            nl.rewireCellInput(mux, 2, nl.one());
        nl.addOutput("y", x);
        NetId q = nl.addDff(x, "state");
        nl.nameNet(q, "s0");
        nl.elaborate();
        return nl;
    };
    Netlist good = make(false);
    Netlist bad = make(true);

    EquivResult res = checkNetlistEquivalence(good, bad);
    ASSERT_FALSE(res.proven);
    ASSERT_TRUE(res.hasCex) << res.detail;
    // Separating input: sel=0 and a != b.
    bool a_val = false;
    bool b_val = false;
    bool c_val = true;
    for (const auto &[name, v] : res.cex.assignment) {
        if (name == "a")
            a_val = v;
        else if (name == "b")
            b_val = v;
        else if (name == "c")
            c_val = v;
    }
    EXPECT_FALSE(c_val);
    EXPECT_NE(a_val, b_val);
}

// ---------------------------------------------------------------
// Clone / fault identity (satellite: cloned fault-free die is
// formally identical to its template).

TEST(NetlistEquiv, CloneIsFormallyIdenticalToTemplate)
{
    for (int which = 0; which < 4; ++which) {
        auto nl = buildCore(which);
        auto die = nl->clone();
        EquivResult res = checkNetlistEquivalence(*nl, *die);
        EXPECT_TRUE(res.proven)
            << nl->name() << ": "
            << (res.hasCex ? res.cex.text() : res.detail);
        EXPECT_EQ(res.solves, 1u) << nl->name();
    }
}

TEST(NetlistEquiv, FaultsOnEitherSideAreHonored)
{
    // Two separate builds share one structure, so the miter halves
    // share every fault-free cone; a fault on the template side
    // alone must still separate them, and the same fault on both
    // sides is no difference at all. The faulted net is the D input
    // of accumulator bit 5: combinational, so only a dirty mask
    // seeded from both sides keeps b from reusing a's constant.
    auto a = buildFlexiCore8Netlist();
    auto b = buildFlexiCore8Netlist();
    StuckFault acc5_d{kNoNet, false};
    for (const Netlist::DffInfo &d : a->dffs())
        if (d.q == a->findNet("acc5"))
            acc5_d.net = d.d;
    ASSERT_NE(acc5_d.net, kNoNet);
    a->injectFault(acc5_d);
    EquivResult res = checkNetlistEquivalence(*a, *b);
    ASSERT_TRUE(res.hasCex) << res.detail;
    EXPECT_TRUE(cexReplaysAsMismatch(*a, *b, res.cex))
        << res.cex.text();
    b->injectFault(acc5_d);
    EXPECT_TRUE(checkNetlistEquivalence(*a, *b).proven);
}

TEST(NetlistEquiv, PrimaryInputFaultIsCaughtInBothOrders)
{
    // A stuck-at on a primary input overrides that side's literal
    // only: the other half of the miter must still read the free
    // input variable, whichever argument carries the fault.
    auto golden = buildFlexiCore4Netlist();
    auto faulty = golden->clone();
    faulty->injectFault({faulty->findNet("instr0"), true});
    auto clean = golden->clone();
    for (auto [a, b] : {std::pair{faulty.get(), clean.get()},
                        std::pair{clean.get(), faulty.get()}}) {
        EquivResult res = checkNetlistEquivalence(*a, *b);
        EXPECT_FALSE(res.proven);
        ASSERT_TRUE(res.hasCex) << res.detail;
        EXPECT_TRUE(cexReplaysAsMismatch(*a, *b, res.cex))
            << res.cex.text();
    }
    // Stuck on both sides is no difference.
    clean->injectFault({clean->findNet("instr0"), true});
    EXPECT_TRUE(checkNetlistEquivalence(*faulty, *clean).proven);
}

TEST(NetlistEquiv, FaultyDieIsNotIdenticalButClearedDieIs)
{
    auto nl = buildFlexiCore8Netlist();
    auto die = nl->clone();
    die->injectFault({die->findNet("acc5"), false});
    EXPECT_FALSE(checkNetlistEquivalence(*nl, *die).proven);
    die->clearFaults();
    EXPECT_TRUE(checkNetlistEquivalence(*nl, *die).proven);
}

// ---------------------------------------------------------------
// ISA equivalence (tentpole claim (b)).

class IsaEquiv : public ::testing::TestWithParam<int>
{
};

TEST_P(IsaEquiv, NetlistImplementsBehavioralSpec)
{
    static const IsaKind kinds[] = {
        IsaKind::FlexiCore4, IsaKind::FlexiCore8, IsaKind::ExtAcc4,
        IsaKind::LoadStore4};
    int which = GetParam();
    auto nl = buildCore(which);
    IsaEquivResult res = checkIsaEquivalence(*nl, kinds[which]);
    ASSERT_TRUE(res.detail.empty()) << res.detail;
    for (const IsaClassCheck &chk : res.classes)
        EXPECT_TRUE(chk.proven)
            << nl->name() << " class '" << chk.name
            << "': " << chk.cex.text();
    EXPECT_TRUE(res.proven);
    // One class per named instruction plus the whole-space "*".
    EXPECT_GE(res.classes.size(), 11u);
    EXPECT_EQ(res.classes.back().name, "*");
}

INSTANTIATE_TEST_SUITE_P(AllCores, IsaEquiv,
                         ::testing::Values(0, 1, 2, 3));

TEST(IsaEquivNegative, FaultedDieBlamesTheCorruptedState)
{
    // A die with pc bit 0 stuck at 1 cannot fetch sequentially; the
    // ISA proof must fail and the counterexample must blame the PC.
    auto broken = buildFlexiCore4Netlist();
    NetId pc0 = broken->findNet("pc_q0");
    ASSERT_NE(pc0, kNoNet);
    broken->injectFault({pc0, true});

    IsaEquivResult res =
        checkIsaEquivalence(*broken, IsaKind::FlexiCore4);
    ASSERT_TRUE(res.detail.empty()) << res.detail;
    EXPECT_FALSE(res.proven);
    bool blamed_pc = false;
    for (const IsaClassCheck &chk : res.classes) {
        if (chk.proven)
            continue;
        for (const std::string &m : chk.cex.mismatched)
            blamed_pc |= m == "pc_q0";
    }
    EXPECT_TRUE(blamed_pc);
}

// ---------------------------------------------------------------
// The lint wrapper.

TEST(EquivLint, CleanCoreIsProvenAndRendered)
{
    auto nl = buildExtAcc4Netlist();
    LintReport rep = equivLint(*nl, IsaKind::ExtAcc4);
    EXPECT_TRUE(rep.clean());
    EXPECT_TRUE(rep.fires("equiv-proven"));
    EXPECT_FALSE(rep.fires("equiv-mismatch"));
}

TEST(EquivLint, FaultedCoreReportsError)
{
    auto nl = buildFlexiCore4Netlist();
    nl->injectFault({nl->findNet("acc0"), false});
    LintReport rep = equivLint(*nl, IsaKind::FlexiCore4);
    EXPECT_FALSE(rep.clean());
    EXPECT_TRUE(rep.fires("equiv-mismatch"));
}

} // namespace
} // namespace flexi
