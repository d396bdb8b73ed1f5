#include "lockstep.hh"

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
    }
    return res;
}

} // namespace flexi
