#include "lockstep.hh"

#include <algorithm>

#include "common/logging.hh"
#include "isa/encoding.hh"
#include "sim/core_sim.hh"
#include "sim/environment.hh"

namespace flexi
{

namespace
{

/** Environment returning a value chosen by the harness per step. */
class HeldInputEnv : public Environment
{
  public:
    uint8_t readInput() override { return held; }
    void
    writeOutput(uint8_t value) override
    {
        outputs.push_back(value);
    }

    uint8_t held = 0;
    std::vector<uint8_t> outputs;
};

/** Does this instruction architecturally sample the input bus? */
bool
readsInput(const Instruction &inst)
{
    return inst.mode == Mode::Mem && inst.op != Op::Store &&
           inst.operand == kInputPortAddr;
}

/**
 * The exact periodic fast-forward of runLockstepGroup (soundness
 * argument on its declaration), fed once per compared instruction
 * after the inputs are spent:
 *  1. Brent's cycle detection on CoreSim::archState() finds the
 *     golden period P (the held input is constant by then, so the
 *     core state alone is the golden key); the instruction it is
 *     found at is boundary 0. Only one golden state is stored.
 *  2. Every open lane records, per boundary i, its packed DFF state,
 *     its error count err[i] and its count errR[i] r instructions
 *     later, where r = (budget - boundary 0) mod P is the phase of the
 *     budget's end.
 *  3. At boundary k a lane whose state equals, by value, its state at
 *     an earlier boundary j is periodic with l = k - j boundaries
 *     from j on. With R = budget - t, its count at the budget is
 *     err(t) + (R div lP) * (err(t) - err[j]) + errR[j + b] - err[j],
 *     b = (R div P) mod l: the run's remaining R mod lP = bP + r
 *     instructions replay those after boundary j. The lane's count is
 *     final at once and its history is freed.
 *  4. Once every counting lane is final, the run's instructions and
 *     cycles are extrapolated from the cycles of one golden period.
 * The recorded histories of a group are bounded by kMaxHistoryWords;
 * past that the fast-forward gives up and the run steps to the end.
 */
class PeriodicTail
{
  public:
    PeriodicTail(const LaneGroup &group, uint64_t budget,
                 bool early_exit)
        : group_(group), budget_(budget), earlyExit_(early_exit),
          stateWords_((group.numDffs() + 63) / 64)
    {
    }

    /**
     * Observe the state after instruction res.instructions. Returns
     * true, with res extrapolated to the budget, once every counting
     * lane is final.
     */
    bool observe(const CoreSim &golden, LockstepGroupResult &res);

  private:
    /** Bound on the recorded snapshots of one group. */
    static constexpr size_t kMaxHistoryWords = size_t(1) << 16;

    /** Lanes of word @p wd whose count the run still reports. */
    uint64_t
    counting(unsigned wd, const LockstepGroupResult &res) const
    {
        return earlyExit_ ? res.activeMask[wd]
                          : group_.laneMaskWord(wd);
    }

    /** Snapshot words per boundary: DFF state, err[i], errR[i]. */
    size_t stride() const { return stateWords_ + 2; }
    void boundary(uint64_t k, LockstepGroupResult &res);
    /** Cycles from boundary 0 through instruction @p i (>= start_). */
    uint64_t cyclesTo(uint64_t i) const;

    const LaneGroup &group_;
    const uint64_t budget_;
    const bool earlyExit_;

    CoreSim::ArchState goldenTort_;
    uint64_t tortAt_ = 0;   ///< instruction of the golden tortoise
    uint64_t power_ = 0;    ///< Brent's current power of two; 0: unset
    uint64_t period_ = 0;   ///< golden period P; 0 until found
    uint64_t start_ = 0;    ///< instruction of boundary 0
    uint64_t tailPhase_ = 0;   ///< r = (budget - start_) mod P
    /** Run cycles after instruction start_ + o, o in [0, P]. */
    std::vector<uint64_t> periodCycles_;

    const size_t stateWords_;   ///< packed DFF state words
    /** Per lane, stride() words per boundary 0, 1, ... until matched. */
    std::vector<std::vector<uint64_t>> history_;
    size_t historyWords_ = 0;   ///< over all lanes
    bool gaveUp_ = false;       ///< history bound hit
    /**
     * Lanes with a final count, and that count per lane. A done lane
     * is still stepped and counted, as the run may yet go to the
     * budget; its final count is written only when the run stops.
     */
    std::array<uint64_t, LaneGroup::kMaxWords> done_{};
    std::vector<uint64_t> final_;
};

bool
PeriodicTail::observe(const CoreSim &golden, LockstepGroupResult &res)
{
    const uint64_t now = res.instructions;
    if (gaveUp_)
        return false;
    if (period_ == 0) {
        // Brent: the tortoise jumps to the newest state whenever its
        // distance behind reaches the next power of two.
        CoreSim::ArchState state = golden.archState();
        if (power_ == 0 || state != goldenTort_) {
            if (power_ == 0 || now - tortAt_ == power_) {
                goldenTort_ = state;
                tortAt_ = now;
                power_ = power_ ? power_ * 2 : 1;
            }
            return false;
        }
        period_ = now - tortAt_;
        start_ = now;
        tailPhase_ = (budget_ - start_) % period_;
        history_.resize(group_.lanes());
        final_.resize(group_.lanes());
    }

    const uint64_t since = now - start_;
    if (since <= period_)
        periodCycles_.push_back(res.cycles);
    if (since % period_ == 0)
        boundary(since / period_, res);
    if (since % period_ == tailPhase_) {
        for (unsigned lane = 0; lane < history_.size(); ++lane)
            if (!history_[lane].empty())
                history_[lane].back() = res.errors[lane];
    }

    if (since < period_ || gaveUp_)
        return false;
    for (unsigned wd = 0; wd < group_.words(); ++wd)
        if (counting(wd, res) & ~done_[wd])
            return false;
    for (unsigned wd = 0; wd < group_.words(); ++wd)
        for (uint64_t d = done_[wd]; d; d &= d - 1) {
            unsigned lane = wd * 64 + __builtin_ctzll(d);
            res.errors[lane] = final_[lane];
        }
    res.steppedInstructions = now;
    res.cycles += cyclesTo(budget_) - cyclesTo(now);
    res.instructions = budget_;
    return true;
}

void
PeriodicTail::boundary(uint64_t k, LockstepGroupResult &res)
{
    const uint64_t rest = budget_ - res.instructions;
    const size_t stride = this->stride();
    std::vector<uint64_t> snap(stride);
    for (unsigned wd = 0; wd < group_.words(); ++wd) {
        for (uint64_t open = counting(wd, res) & ~done_[wd]; open;
             open &= open - 1) {
            unsigned lane = wd * 64 + __builtin_ctzll(open);
            std::fill(snap.begin(), snap.end(), 0);
            std::vector<uint8_t> bits = group_.saveDffState(lane);
            for (size_t i = 0; i < bits.size(); ++i)
                snap[i / 64] |= uint64_t(bits[i]) << (i % 64);
            snap[stateWords_] = res.errors[lane];

            std::vector<uint64_t> &hist = history_[lane];
            size_t at = 0;
            while (at < hist.size() &&
                   !std::equal(snap.begin(), snap.begin() + stateWords_,
                               hist.begin() + at))
                at += stride;
            if (at == hist.size()) {
                if (historyWords_ + stride > kMaxHistoryWords) {
                    // Too long to track: step every lane to the end.
                    gaveUp_ = true;
                    history_ = {};
                    return;
                }
                hist.insert(hist.end(), snap.begin(), snap.end());
                historyWords_ += stride;
                continue;
            }
            const uint64_t j = at / stride;
            const uint64_t l = k - j;
            const uint64_t err_j = hist[at + stateWords_];
            const uint64_t err_tail =
                hist[(j + rest / period_ % l) * stride + stateWords_ + 1];
            final_[lane] = res.errors[lane] +
                           rest / (l * period_) *
                               (res.errors[lane] - err_j) +
                           err_tail - err_j;
            done_[wd] |= 1ull << (lane % 64);
            historyWords_ -= hist.size();
            hist.clear();
            hist.shrink_to_fit();
        }
    }
}

uint64_t
PeriodicTail::cyclesTo(uint64_t i) const
{
    const uint64_t since = i - start_;
    const uint64_t base = periodCycles_[0];
    return since / period_ * (periodCycles_[period_] - base) +
           (periodCycles_[since % period_] - base);
}

} // namespace

LockstepResult
runLockstep(Netlist &netlist, IsaKind isa, const Program &prog,
            const std::vector<uint8_t> &inputs,
            uint64_t max_instructions)
{
    if (!netlist.elaborated())
        fatal("netlist must be elaborated");

    // The DSE single-cycle netlists have the wide 16-bit program
    // bus: both bytes of an instruction arrive at once and every
    // instruction takes one cycle. LoadStore4's PC counts words.
    bool wide_bus = isa == IsaKind::ExtAcc4 ||
                    isa == IsaKind::LoadStore4;
    bool word_pc = isa == IsaKind::LoadStore4;

    unsigned w = isaDataWidth(isa);
    const std::vector<uint8_t> &image = prog.page(0);
    auto fetch = [&](unsigned pc) -> uint8_t {
        return pc < image.size() ? image[pc] : 0;
    };

    // Resolve every pad bus once; the per-cycle loop below then
    // never touches a name map or builds a string.
    BusHandle pc_bus = netlist.outputBus("pc", 7);
    BusHandle instr_bus = netlist.inputBus("instr", wide_bus ? 16 : 8);
    BusHandle iport_bus = netlist.inputBus("iport", w);
    BusHandle oport_bus = netlist.outputBus("oport", w);

    HeldInputEnv env;
    TimingConfig cfg;
    cfg.isa = isa;
    CoreSim golden(cfg, prog, env);

    netlist.reset();

    LockstepResult res;
    size_t input_idx = 0;

    while (res.instructions < max_instructions && !golden.halted()) {
        // Decode at the *golden* PC to know whether this instruction
        // samples the input bus; both models then see the same value.
        DecodeResult dec = decodeAt(isa, image, golden.pc());
        if (readsInput(dec.inst) && input_idx < inputs.size())
            env.held = inputs[input_idx++] &
                       static_cast<uint8_t>((1u << w) - 1u);

        // Drive the die for as many cycles as the instruction takes,
        // fetching from the netlist's own PC pads.
        unsigned cycles = wide_bus ? 1 : dec.bytes;
        for (unsigned c = 0; c < cycles; ++c) {
            unsigned die_pc = netlist.bus(pc_bus);
            if (wide_bus) {
                unsigned base = word_pc ? die_pc * 2 : die_pc;
                netlist.setBus(instr_bus,
                               fetch(base) | (fetch(base + 1) << 8));
            } else {
                netlist.setBus(instr_bus, fetch(die_pc));
            }
            netlist.setBus(iport_bus, env.held);
            netlist.evaluate();
            netlist.clockEdge();
            netlist.evaluate();   // expose new state on the pads
            ++res.cycles;
        }

        golden.step();
        ++res.instructions;

        if (netlist.bus(pc_bus) != golden.pc())
            ++res.errors;
        if (netlist.bus(oport_bus) != golden.outputLatch())
            ++res.errors;
    }

    res.outputs = std::move(env.outputs);
    return res;
}

LockstepGroupResult
runLockstepGroup(LaneGroup &group, const Netlist &golden_netlist,
                 IsaKind isa, const Program &prog,
                 const std::vector<uint8_t> &inputs,
                 uint64_t max_instructions, bool early_exit)
{
    if (!golden_netlist.elaborated())
        fatal("netlist must be elaborated");
    if (isa != IsaKind::FlexiCore4 && isa != IsaKind::FlexiCore8)
        fatal("lane lockstep drives the fabricated cores' 8-bit "
              "program bus, not %s", isaName(isa));

    unsigned w = isaDataWidth(isa);
    const std::vector<uint8_t> &image = prog.page(0);

    BusHandle pc_bus = golden_netlist.outputBus("pc", 7);
    BusHandle instr_bus = golden_netlist.inputBus("instr", 8);
    BusHandle iport_bus = golden_netlist.inputBus("iport", w);
    BusHandle oport_bus = golden_netlist.outputBus("oport", w);

    // Between clockEdge() and the pad sample only the PC/OPORT pads
    // are read, so the post-edge evaluate is narrowed to their
    // fan-in cones — exact for those nets, and a fraction of the
    // full plan.
    LaneGroup::PadCone pad_cone =
        group.padCone({&pc_bus, &oport_bus});

    // Each lane fetches one byte at its own PC every cycle: exactly
    // LaneGroup's fused indexed drive. Pad the image to the PC pads'
    // full address space (out-of-image fetches read 0, as the scalar
    // fetch lambda) so no lane needs a bounds check.
    std::vector<uint8_t> fetch_table(size_t(1) << pc_bus.width(), 0);
    for (size_t a = 0; a < fetch_table.size() && a < image.size(); ++a)
        fetch_table[a] = image[a];

    // Memoized per-address decode of the golden program: the driver
    // only consumes the instruction length and whether the input bus
    // is sampled, and the golden core revisits the same handful of
    // addresses for hundreds of instructions.
    struct DecodeMemo
    {
        uint8_t bytes = 0;
        bool readsIn = false;
        bool init = false;
    };
    std::vector<DecodeMemo> decode_memo(size_t(1) << pc_bus.width());

    HeldInputEnv env;
    TimingConfig cfg;
    cfg.isa = isa;
    CoreSim golden(cfg, prog, env);

    group.reset();

    LockstepGroupResult res;
    unsigned lanes = group.lanes();
    unsigned words = group.words();
    for (unsigned lane = 0; lane < lanes; ++lane)
        res.activeMask[lane / 64] |= 1ull << (lane % 64);
    size_t input_idx = 0;

    auto any_active = [&]() {
        for (uint64_t m : res.activeMask)
            if (m)
                return true;
        return false;
    };

    // Drive the input bus once up front and again only when the held
    // value changes: between changes the pads already carry it.
    uint8_t iport_prev = env.held;
    group.setBus(iport_bus, env.held);

    // Once the inputs are spent, a group without transient windows is
    // a closed system and the tail may fast-forward it (toggle
    // counting never gets here: exposeState refuses it).
    const bool closed = !group.hasTransients();
    PeriodicTail tail(group, max_instructions, early_exit);

    while (res.instructions < max_instructions && !golden.halted()) {
        DecodeMemo &memo =
            decode_memo[golden.pc() & (decode_memo.size() - 1)];
        if (!memo.init) {
            DecodeResult dec = decodeAt(isa, image, golden.pc());
            memo.bytes = static_cast<uint8_t>(dec.bytes);
            memo.readsIn = readsInput(dec.inst);
            memo.init = true;
        }
        if (memo.readsIn && input_idx < inputs.size())
            env.held = inputs[input_idx++] &
                       static_cast<uint8_t>((1u << w) - 1u);
        if (env.held != iport_prev) {
            group.setBus(iport_bus, env.held);
            iport_prev = env.held;
        }

        for (unsigned c = 0; c < memo.bytes; ++c) {
            group.driveBusFromTable(pc_bus, instr_bus,
                                    fetch_table.data());
            group.evaluate();
            group.clockEdge();
            group.exposeState(pad_cone);
            ++res.cycles;
        }

        golden.step();
        ++res.instructions;

        // Compare both pads against the golden core in the bit
        // domain: a handful of XORs per bus bit replaces a per-lane
        // gather, and the mismatch masks drive the per-lane error
        // counts and the early-exit mask directly.
        std::array<uint64_t, LaneGroup::kMaxWords> pc_diff;
        std::array<uint64_t, LaneGroup::kMaxWords> op_diff;
        group.busMismatch(pc_bus, golden.pc(), pc_diff.data());
        group.busMismatch(oport_bus, golden.outputLatch(),
                          op_diff.data());
        for (unsigned wd = 0; wd < words; ++wd) {
            uint64_t live = early_exit ? res.activeMask[wd] : ~0ull;
            uint64_t pd = pc_diff[wd] & live;
            uint64_t od = op_diff[wd] & live;
            uint64_t any = pd | od;
            while (pd) {
                res.errors[wd * 64 + __builtin_ctzll(pd)] += 1;
                pd &= pd - 1;
            }
            while (od) {
                res.errors[wd * 64 + __builtin_ctzll(od)] += 1;
                od &= od - 1;
            }
            res.activeMask[wd] &= ~any;
        }
        if (early_exit && !any_active())
            break;
        if (closed && input_idx == inputs.size() &&
            tail.observe(golden, res))
            return res;
    }
    res.steppedInstructions = res.instructions;
    return res;
}

} // namespace flexi
