/**
 * @file
 * Tseitin CNF construction over elaborated netlists.
 *
 * CnfBuilder is a thin circuit-construction layer on top of the SAT
 * solver: fresh literals, constant literals, standard gates with
 * constant folding, and little-endian word helpers (ripple adders,
 * muxes) used by the behavioral ISA specifications.
 *
 * encodeNetlist() turns a netlist into CNF in one of three
 * deliberately independent ways:
 *
 *  - Reference: clauses derived from each CellInst's gate semantics
 *    (NAND2 becomes the three NAND clauses, and so on) — the same
 *    semantics evaluateReference() interprets;
 *  - Plan: clauses derived from the compiled evaluation plan's 8-bit
 *    truth tables and padded input slots — the artifact evaluate()
 *    executes;
 *  - WordPlan: clauses derived by walking the fused-run program
 *    (Netlist::planRuns()) with each step encoded from its WordOp's
 *    gate semantics — the exact straight-line program the wide-lane
 *    compiled backend (LaneGroup) dispatches.
 *
 * A miter between encodings (shared primary-input and DFF-Q
 * variables) therefore proves the compiled plan — and the fused
 * word-op dispatch program — bit-equal to the reference interpreter
 * for every cell cone.
 */

#ifndef FLEXI_ANALYSIS_CNF_ENCODER_HH
#define FLEXI_ANALYSIS_CNF_ENCODER_HH

#include <cstdint>
#include <vector>

#include "analysis/sat.hh"
#include "netlist/netlist.hh"

namespace flexi
{

class CnfBuilder
{
  public:
    /** A little-endian vector of literals. */
    using Word = std::vector<SatLit>;

    explicit CnfBuilder(SatSolver &solver) : solver_(solver) {}

    SatSolver &solver() { return solver_; }

    SatLit fresh();
    SatLit constTrue();
    SatLit constFalse() { return ~constTrue(); }
    SatLit constant(bool b) { return b ? constTrue() : constFalse(); }
    bool isConstTrue(SatLit l);
    bool isConstFalse(SatLit l);

    void addClause(std::vector<SatLit> lits);
    void assertLit(SatLit l) { addClause({l}); }

    /** Gates (with constant folding). */
    SatLit mkAnd(SatLit a, SatLit b);
    SatLit mkOr(SatLit a, SatLit b);
    SatLit mkNand(SatLit a, SatLit b) { return ~mkAnd(a, b); }
    SatLit mkNor(SatLit a, SatLit b) { return ~mkOr(a, b); }
    SatLit mkXor(SatLit a, SatLit b);
    SatLit mkXnor(SatLit a, SatLit b) { return ~mkXor(a, b); }
    /** sel ? b : a (matching the MUX2 cell's input order a, b, sel). */
    SatLit mkMux(SatLit a, SatLit b, SatLit sel);
    SatLit mkAndN(const std::vector<SatLit> &lits);
    SatLit mkOrN(const std::vector<SatLit> &lits);

    /** @name Word helpers (LSB first) */
    ///@{
    Word freshWord(unsigned width);
    Word constWord(uint64_t value, unsigned width);
    /** Ripple-carry a + b + cin; optionally yields the carry out. */
    Word add(const Word &a, const Word &b, SatLit cin,
             SatLit *cout = nullptr);
    Word mux(const Word &a, const Word &b, SatLit sel);
    Word invert(const Word &a);
    SatLit equalsConst(const Word &w, uint64_t value);
    /** Unsigned w < value (the sequential checker's bound props). */
    SatLit lessThanConst(const Word &w, uint64_t value);
    /** Bitwise equality of two same-width words. */
    SatLit equalWords(const Word &a, const Word &b);
    /** Constrain two literals equal (two binary clauses). */
    void bindEqual(SatLit a, SatLit b);
    SatLit orReduce(const Word &w);
    SatLit norReduce(const Word &w) { return ~orReduce(w); }
    ///@}

    /** Read a word back from the solver model (after Sat). */
    uint64_t modelWord(const Word &w) const;

  private:
    SatSolver &solver_;
    SatLit const_;   ///< lazily created root-asserted true literal
    bool haveConst_ = false;
};

/**
 * One netlist rendered to CNF: a literal per net plus the DFF D/Q
 * literals in DFF commit order. dffD holds the *effective* captured
 * value (a fault forcing a Q net overrides the D cone, exactly as
 * clockEdge() does).
 */
struct NetlistEncoding
{
    std::vector<SatLit> net;   ///< per NetId; invalid if unused
    /**
     * Per NetId of a primary input: its free variable, which a
     * stuck-at on the input overrides in `net` (as dffQ keeps the
     * variable of a faulted Q net); invalid elsewhere.
     */
    std::vector<SatLit> input;
    std::vector<SatLit> dffD;
    std::vector<SatLit> dffQ;

    bool hasLit(NetId n) const
    {
        return n < net.size() && net[n].code >= 0;
    }
    SatLit lit(NetId n) const { return net[n]; }
};

enum class NetlistEncodeMode { Reference, Plan, WordPlan };

struct NetlistEncodeOptions
{
    NetlistEncodeMode mode = NetlistEncodeMode::Reference;
    /** Honor the instance's injected stuck-at faults. */
    bool applyFaults = false;
    /**
     * Share primary-input variables (matched by input name against
     * @p shareWith) and DFF state variables (matched by DFF commit
     * order) with a previous encoding, making the two encodings two
     * halves of a miter. The shared variables are the free ones, so
     * a stuck-at on either side stays on that side.
     */
    const NetlistEncoding *share = nullptr;
    const Netlist *shareWith = nullptr;
    /**
     * With `share`, for a netlist structurally identical to
     * @p shareWith (same cells, nets and interface; the caller
     * checks): every net outside the fan-out of the stuck-at faults
     * of both instances reuses the shared literal and emits no
     * clauses. Such a net is the same function of the same shared
     * variables on both sides, so a miter over the two encodings has
     * exactly the satisfiability of two full copies; only the
     * faults' cones are copied.
     */
    bool shareFaultFreeCones = false;
    /**
     * Bind every DFF Q literal (commit order) to the given literal
     * instead of a fresh variable. The sequential unroller stitches
     * timestep t+1 to timestep t by binding the new frame's Q nets
     * to the previous frame's effective dffD literals. Mutually
     * exclusive with `share`.
     */
    const std::vector<SatLit> *bindQ = nullptr;
};

NetlistEncoding encodeNetlist(CnfBuilder &cnf, const Netlist &nl,
                              const NetlistEncodeOptions &opts = {});

} // namespace flexi

#endif // FLEXI_ANALYSIS_CNF_ENCODER_HH
