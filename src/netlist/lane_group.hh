/**
 * @file
 * Wide-lane compiled netlist evaluator: structure-of-arrays lane
 * groups of W uint64_t words per net (W = 1/4/8 -> 64/256/512
 * lanes) executed through the fused-run program compiled at
 * elaborate() time.
 *
 * A LaneGroup packs one die per bit lane, past the 64 lanes of a
 * single machine word. Net values become lane *groups* — W contiguous
 * uint64_t words per net, laid out `val[net * W + w]` so bit L of
 * word w is the value of net N in lane w*64 + L — and the per-step
 * inner loop strides the W words of each net at unit distance, which
 * the compiler auto-vectorizes. Force-mask blending, DFF commits,
 * and toggle counting all run over the same unit-stride groups.
 *
 * Dispatch is compiled, not interpreted: elaborate() fuses adjacent
 * same-WordOp plan steps into straight-line runs (EvalPlan::runBegin
 * / runOp), and the evaluator threads between per-op code blocks via
 * computed goto (GCC/Clang `&&label`), falling back to an
 * indirect-threaded function table on other compilers. Per-step op
 * classification — a switch executed once per plan step — disappears
 * entirely; the formal checker's word-plan encoding
 * (NetlistEncodeMode::WordPlan) proves the fused-run program cone-
 * equivalent to the CellInst reference semantics, so the dispatch
 * path itself is inside the SAT proof.
 *
 * State semantics mirror the scalar Netlist exactly, at bit
 * granularity: per-lane stuck/transient force groups blended
 * with `v = (v & ~m) | (fval & m)`, DFF state committed with the
 * force-masked blend on the Q net, opt-in per-lane toggle counts
 * bit-identical to a scalar run of the same faulted instance, and a
 * trailing always-zero scratch group backing the plan's padded input
 * slots. Differential tests pit this evaluator against the scalar
 * compiled plan and evaluateReference().
 *
 * Lanes above lanes() exist physically but are dead: their fault
 * state can't be set, their values are never read, and the lane
 * masks keep toggle counting away from them.
 */

#ifndef FLEXI_NETLIST_LANE_GROUP_HH
#define FLEXI_NETLIST_LANE_GROUP_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netlist/netlist.hh"

namespace flexi
{

class LaneGroup
{
  public:
    /** Lanes per uint64_t word. */
    static constexpr unsigned kWordLanes = 64;
    /** Supported group widths, in words per net. */
    static constexpr unsigned kMaxWords = 8;
    static constexpr unsigned kMaxLanes = kWordLanes * kMaxWords;

    /**
     * Words per net for a lane count: the smallest supported group
     * width (1, 4, or 8 words -> 64, 256, 512 lanes) that covers
     * @p lanes. Fatal on 0 or above kMaxLanes.
     */
    static unsigned wordsFor(unsigned lanes);

    /**
     * Build a group of @p lanes lanes (1..512) over the structure of
     * @p golden, which must be elaborated. Fault state starts empty;
     * the group is reset() to power-on values.
     */
    explicit LaneGroup(const Netlist &golden,
                       unsigned lanes = kMaxLanes);

    unsigned lanes() const { return lanes_; }
    /** Group width in words per net (1, 4, or 8). */
    unsigned words() const { return words_; }
    /** Live-lane mask of word @p w (bit L = lane w*64 + L bound). */
    uint64_t laneMaskWord(unsigned w) const { return laneMask_[w]; }
    /** Clock edges seen since construction (monotonic, as scalar). */
    uint64_t cycle() const { return cycle_; }
    size_t numNets() const { return s_->nextNet; }
    size_t numDffs() const { return s_->dffCells.size(); }

    /** @name Per-lane fault state (mirrors Netlist exactly) */
    ///@{
    void injectFault(unsigned lane, const StuckFault &fault);
    void clearFaults();
    void injectTransient(unsigned lane, const TransientFault &fault);
    void clearTransients();
    /** Flip the stored state bit of DFF @p index in one lane. */
    void flipDff(unsigned lane, size_t index);
    ///@}

    /** @name Per-lane state snapshot (mirrors Netlist exactly) */
    ///@{
    /**
     * Snapshot / restore one lane's architectural state (all DFF
     * bits) in the scalar saveDffState() layout — one byte per DFF,
     * commit order — so a lane snapshot restores into a scalar clone
     * and vice versa. restoreDffState() leaves the lane's
     * combinational nets stale (drive inputs and evaluate() before
     * sampling); faults, toggle counters, and cycle() are not part
     * of the snapshot, exactly as in the scalar API.
     */
    std::vector<uint8_t> saveDffState(unsigned lane) const;
    void restoreDffState(unsigned lane,
                         const std::vector<uint8_t> &state);
    ///@}

    /** @name Simulation */
    ///@{
    /** All lanes back to power-on state; cycle() keeps counting. */
    void reset();
    void evaluate();
    void clockEdge();
    ///@}

    /**
     * The compiled-plan fan-in cone of a set of output buses,
     * recompiled as a self-contained mini-program: the cone's steps
     * (in execution order) with their operands copied out into
     * contiguous arrays, re-fused into same-op runs, plus the DFF
     * indices whose Q nets the cone (or the pads themselves) read.
     * Pure function of the shared structure; build once per driver.
     */
    struct PadCone
    {
        /** Plan-step indices of the cone, in execution order. */
        std::vector<uint32_t> steps;
        /** @name Compiled cone program (parallel to steps) */
        ///@{
        std::vector<NetId> in;   ///< 3 slots per cone step
        std::vector<NetId> out;
        std::vector<uint8_t> lut;
        std::vector<uint32_t> runBegin;
        std::vector<uint8_t> runOp;
        ///@}
        /** DFFs whose Q net feeds a cone step or is itself a pad. */
        std::vector<uint32_t> dffs;
    };
    PadCone padCone(const std::vector<const BusHandle *> &buses) const;

    /**
     * Partial post-clock evaluate: re-expose the DFF state the cone
     * reads and recompute only the steps of @p cone, leaving every
     * other net stale. For the cone's nets this is bit-identical to a full
     * evaluate() (same force refresh, same Q-expose, same step
     * semantics in the same order) at a fraction of the cost — the
     * lockstep drivers use it between clockEdge() and the PC/OPORT
     * pad sample, where nothing else is read before the next full
     * evaluate() overwrites all combinational state anyway. Fatal
     * when toggle counting is enabled: per-lane toggle totals are
     * only defined against full evaluation passes.
     */
    void exposeState(const PadCone &cone);

    /** @name Bus drive / sample */
    ///@{
    /** Drive the same value into an input bus on every lane. */
    void setBus(const BusHandle &bus, unsigned value);
    /**
     * Drive one named primary input with a different bit per lane
     * (bit L of word w = lane w*64+L's value; @p lane_words has
     * words() entries). Name-map lookup per call — differential-test
     * convenience, not a hot path.
     */
    void setInputLanes(const std::string &name,
                       const uint64_t *lane_words);
    /**
     * Drive a different value per lane (values[0..lanes()-1]); dead
     * lanes are driven with 0.
     */
    void setBusLanes(const BusHandle &bus, const uint32_t *values);
    /**
     * Byte fast path of setBusLanes for buses at most 8 bits wide:
     * one lane value per byte, so a block of 8 lanes loads as a
     * single word and one transpose scatters it. Bits of a value at
     * or above the bus width are ignored (as in setBusLanes).
     */
    void setBusLanesBytes(const BusHandle &bus,
                          const uint8_t *values);
    /** Sample a bus in one lane. */
    unsigned bus(const BusHandle &bus, unsigned lane) const;
    /** Sample a bus across all lanes into out[0..lanes()-1]. */
    void gatherBus(const BusHandle &bus, uint32_t *out) const;
    /** Byte fast path of gatherBus for buses at most 8 bits wide. */
    void gatherBusBytes(const BusHandle &bus, uint8_t *out) const;
    /**
     * Per-lane indexed drive: set @p data_bus in every lane to
     * `table[a]` where `a` is that lane's current @p addr_bus value
     * — the instruction-fetch pattern of the lockstep drivers, fused
     * so the address gather, table lookup, and data scatter share
     * one pass over each 8-lane block instead of a gather call, a
     * per-lane loop, and a scatter call. Both buses must be at most
     * 8 bits wide and share no nets (address pads are outputs, data
     * pads inputs, so they never do); @p table must hold
     * `1 << addr_width` entries — pad the backing store up to that
     * power of two so no per-lane bounds check is needed.
     */
    void driveBusFromTable(const BusHandle &addr_bus,
                           const BusHandle &data_bus,
                           const uint8_t *table);
    /**
     * Per-word mask of live lanes whose bus value differs from
     * @p value: bit L of diff[w] is set iff lane w*64+L reads a
     * value != @p value. Writes words() entries of @p diff. The
     * bit-domain equivalent of gatherBus + a per-lane compare, at a
     * few XORs per bus bit.
     */
    void busMismatch(const BusHandle &bus, unsigned value,
                     uint64_t *diff) const;
    bool netValue(NetId net, unsigned lane) const;
    ///@}

    /** @name Per-lane toggle counting (opt-in) */
    ///@{
    /**
     * Enable/disable per-lane toggle accumulation. Off by default:
     * the population studies don't consume per-die activity, and
     * counting costs a popcount loop per toggled cell. Enabling
     * (re)zeroes the counters.
     */
    void enableToggles(bool on);
    /**
     * Toggle counts of one lane, per cell, in the same layout as
     * Netlist::toggleCounts(). Requires enableToggles(true).
     */
    std::vector<uint64_t> toggleCounts(unsigned lane) const;
    ///@}

  private:
    template <unsigned W, bool kToggles> void evaluateImpl();
    template <unsigned W, bool kToggles> void clockEdgeImpl();
    template <unsigned W> void exposeStateImpl(const PadCone &cone);
    void applyFaultForces();
    void rebuildForceIndex();
    void checkLane(unsigned lane) const;

    /** One lane's stuck-at / transient fault record. */
    struct LaneFault
    {
        unsigned lane;
        StuckFault f;
    };
    struct LaneTransient
    {
        unsigned lane;
        TransientFault f;
    };

    std::shared_ptr<const Netlist::Structure> s_;
    unsigned lanes_;
    unsigned words_;
    std::array<uint64_t, kMaxWords> laneMask_{};

    /** SoA lane groups: W words per net, `vec[net * W + w]`. */
    std::vector<uint64_t> val_;    ///< per net + trailing scratch 0s
    std::vector<uint64_t> dffState_;
    std::vector<uint64_t> mask_;   ///< lane bit set where forced
    std::vector<uint64_t> fval_;
    std::vector<LaneFault> faults_;
    std::vector<LaneTransient> transients_;

    /**
     * Sparse force index, rebuilt lazily whenever the force masks
     * change. A net is blend-covered when a plan step produces it or
     * it is a DFF Q — its forces are applied by the per-step /
     * per-commit blends, so only faults on the remaining (primary)
     * nets need the direct value writes in applyFaultForces, and
     * only DFFs with a forced Q need the Q-expose blend at all.
     */
    std::vector<uint8_t> covered_;          ///< per net
    std::vector<uint8_t> qForced_;          ///< per DFF
    std::vector<uint32_t> qForcedList_;     ///< DFFs with forced Q
    std::vector<uint32_t> qFreeList_;       ///< DFFs without
    std::vector<uint32_t> primaryFaults_;   ///< indices into faults_
    std::vector<uint32_t> primaryTransients_;
    /**
     * Force-split run program: the shared fused runs re-split so
     * that only steps whose output group carries a force bit
     * dispatch to a blending kernel; every other step runs
     * blend-free. Codes 0..kNumWordOps-1 blend, +kNumWordOps don't.
     */
    std::vector<uint32_t> fsRunBegin_;
    std::vector<uint8_t> fsRunOp_;
    /** Last seen in-window state per transient (change detector). */
    std::vector<uint8_t> transientActive_;
    bool forceDirty_ = true;

    uint64_t cycle_ = 0;
    bool countToggles_ = false;
    std::vector<uint64_t> toggles_;   ///< [cell * words()*64 + lane]
};

} // namespace flexi

#endif // FLEXI_NETLIST_LANE_GROUP_HH
