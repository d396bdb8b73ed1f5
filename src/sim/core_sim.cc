#include "core_sim.hh"

#include "common/bitops.hh"
#include "common/logging.hh"
#include "isa/encoding.hh"

namespace flexi
{

double
SimStats::cpi() const
{
    return instructions
        ? static_cast<double>(cycles) / static_cast<double>(instructions)
        : 0.0;
}

CoreSim::CoreSim(const TimingConfig &cfg, const Program &prog,
                 Environment &env)
    : cfg_(cfg), prog_(prog), env_(env),
      dataWidth_(isaDataWidth(cfg.isa)),
      dataMask_(static_cast<uint8_t>((1u << dataWidth_) - 1u)),
      memWords_(isaMemWords(cfg.isa))
{
    if (cfg_.isa != prog_.isa())
        fatal("program assembled for %s but core is %s",
              isaName(prog_.isa()), isaName(cfg_.isa));
    validateTimingConfig(cfg_);
}

uint8_t
CoreSim::mem(unsigned addr) const
{
    if (addr >= memWords_)
        fatal("mem address %u out of range", addr);
    return mem_[addr];
}

void
CoreSim::setAcc(uint8_t v)
{
    acc_ = v & dataMask_;
}

void
CoreSim::setMem(unsigned addr, uint8_t v)
{
    if (addr >= memWords_)
        fatal("mem address %u out of range", addr);
    mem_[addr] = v & dataMask_;
}

CoreSim::ArchState
CoreSim::archState() const
{
    return {pc_,      page_, acc_,      carry_, retReg_,
            flagsVal_, mem_, outLatch_, halted_};
}

uint8_t
CoreSim::memRead(unsigned addr)
{
    addr %= memWords_;
    if (addr == kInputPortAddr) {
        ++stats_.ioReads;
        return env_.readInput() & dataMask_;
    }
    if (addr == kOutputPortAddr)
        return outLatch_;
    ++stats_.memReads;
    return mem_[addr];
}

void
CoreSim::memWrite(unsigned addr, uint8_t value)
{
    addr %= memWords_;
    value &= dataMask_;
    if (addr == kInputPortAddr) {
        // The input bus register is not writeable; the store is a
        // no-op on the fabricated parts.
        return;
    }
    if (addr == kOutputPortAddr) {
        outLatch_ = value;
        ++stats_.ioWrites;
        env_.writeOutput(value);
        return;
    }
    ++stats_.memWrites;
    mem_[addr] = value;
}

uint8_t
CoreSim::readOperand(const Instruction &inst)
{
    if (inst.mode == Mode::Mem) {
        if (cfg_.isa == IsaKind::LoadStore4)
            return memRead(inst.operand);   // register read
        return memRead(inst.operand);
    }
    if (inst.mode == Mode::Imm) {
        uint8_t raw = inst.operand;
        switch (cfg_.isa) {
          case IsaKind::FlexiCore4:
            return raw & 0x0F;
          case IsaKind::FlexiCore8:
            if (inst.op == Op::Ldb)
                return raw;
            // 4-bit immediates are sign-extended to the octet.
            return static_cast<uint8_t>(signExtend(raw, 4)) & 0xFF;
          case IsaKind::ExtAcc4:
            // addi/adci take signed 3-bit immediates; the logical and
            // shift immediates are zero-extended.
            if (inst.op == Op::Add || inst.op == Op::Adc)
                return static_cast<uint8_t>(signExtend(raw, 3)) &
                       dataMask_;
            return raw & 0x07;
          case IsaKind::LoadStore4:
            return raw & dataMask_;
        }
    }
    return 0;
}

bool
CoreSim::condHolds(uint8_t cond, uint8_t value) const
{
    bool n = bit(value, dataWidth_ - 1);
    bool z = (value & dataMask_) == 0;
    bool p = !n && !z;
    // An all-zero mask never fires (hardware AND-mask semantics; the
    // encoders never emit it, but raw program bytes can).
    return ((cond & kCondN) && n) || ((cond & kCondZ) && z) ||
           ((cond & kCondP) && p);
}

void
CoreSim::redirect(unsigned target, unsigned self_addr)
{
    int new_page = env_.pageSwitchOnBranch();
    if (new_page >= 0) {
        page_ = static_cast<unsigned>(new_page);
    } else if (target == self_addr) {
        // A taken branch to itself is the halt idiom: the core spins
        // until power-off. (Only a halt when no page switch fired.)
        halted_ = true;
    }
    pc_ = target & (kPageSize - 1);
}

void
CoreSim::execute(const Instruction &inst)
{
    bool load_store = cfg_.isa == IsaKind::LoadStore4;
    unsigned w = dataWidth_;
    uint8_t m = dataMask_;

    // First ALU input: accumulator, or rd on the load-store machine.
    auto readFirst = [&]() -> uint8_t {
        return load_store ? memRead(inst.rd) : acc_;
    };
    // Result writeback: accumulator or rd. Updates NZP source.
    auto writeResult = [&](unsigned value) {
        uint8_t v = static_cast<uint8_t>(value) & m;
        if (load_store) {
            memWrite(inst.rd, v);
            flagsVal_ = v;
        } else {
            acc_ = v;
        }
    };
    auto addLike = [&](uint8_t b, unsigned cin) {
        unsigned sum = (readFirst() & m) + (b & m) + cin;
        carry_ = (sum >> w) & 1u;
        writeResult(sum);
    };

    switch (inst.op) {
      case Op::Add:
        addLike(readOperand(inst), 0);
        break;
      case Op::Adc:
        addLike(readOperand(inst), carry_ ? 1 : 0);
        break;
      case Op::Sub:
        addLike(static_cast<uint8_t>(~readOperand(inst)), 1);
        break;
      case Op::Swb:
        addLike(static_cast<uint8_t>(~readOperand(inst)),
                carry_ ? 1 : 0);
        break;
      case Op::Nand:
        writeResult(static_cast<uint8_t>(
            ~(readFirst() & readOperand(inst))));
        break;
      case Op::And:
        writeResult(readFirst() & readOperand(inst));
        break;
      case Op::Or:
        writeResult(readFirst() | readOperand(inst));
        break;
      case Op::Xor:
        writeResult(readFirst() ^ readOperand(inst));
        break;
      case Op::Neg: {
        uint8_t a = readFirst() & m;
        carry_ = a == 0;   // 0 - a borrows unless a == 0
        writeResult(static_cast<unsigned>(-static_cast<int>(a)));
        break;
      }
      case Op::Asr:
      case Op::Lsr: {
        uint8_t a = readFirst() & m;
        unsigned amount = inst.mode == Mode::None
            ? 1u : (readOperand(inst) & 0x7);
        bool sign = bit(a, w - 1);
        unsigned v = a;
        for (unsigned i = 0; i < amount; ++i) {
            carry_ = v & 1u;
            v >>= 1;
            if (inst.op == Op::Asr && sign)
                v |= 1u << (w - 1);
        }
        writeResult(v);
        break;
      }
      case Op::Li:
        writeResult(readOperand(inst));
        break;
      case Op::Ldb:
        acc_ = inst.operand;   // full octet, FlexiCore8 only
        break;
      case Op::Load:
        acc_ = memRead(inst.operand) & m;
        break;
      case Op::Store:
        memWrite(inst.operand, acc_);
        break;
      case Op::Xch: {
        uint8_t v = memRead(inst.operand) & m;
        memWrite(inst.operand, acc_);
        acc_ = v;
        break;
      }
      case Op::Mov:
        writeResult(readOperand(inst));
        break;
      case Op::Br:
      case Op::Call:
      case Op::Ret:
        panic("control flow handled in step()");
      case Op::Invalid:
        // Reserved encoding on a DSE core: architected as a no-op.
        break;
    }
}

bool
CoreSim::step()
{
    if (halted_)
        return false;

    // A fetch from a page with no content reads an idle bus (zeros).
    static const std::vector<uint8_t> empty_page;
    const std::vector<uint8_t> &image =
        page_ < prog_.numPages() ? prog_.page(page_) : empty_page;
    DecodeResult dec = decodeAt(cfg_.isa, image, pc_);
    const Instruction &inst = dec.inst;

    TraceRecord rec;
    if (trace_) {
        rec.index = stats_.instructions;
        rec.page = page_;
        rec.pc = pc_;
        rec.inst = inst;
        rec.accBefore = acc_;
    }

    unsigned self = pc_;
    unsigned next = cfg_.isa == IsaKind::LoadStore4
        ? (pc_ + 1) & (kPageSize - 1)
        : (pc_ + dec.bytes) & (kPageSize - 1);

    bool taken = false;
    switch (inst.op) {
      case Op::Br: {
        ++stats_.branches;
        uint8_t test = cfg_.isa == IsaKind::LoadStore4
            ? flagsVal_ : acc_;
        if (condHolds(inst.cond, test)) {
            taken = true;
            ++stats_.takenBranches;
            redirect(inst.target, self);
        } else {
            pc_ = next;
        }
        break;
      }
      case Op::Call:
        ++stats_.branches;
        ++stats_.takenBranches;
        taken = true;
        retReg_ = static_cast<uint8_t>(next);
        redirect(inst.target, self);
        break;
      case Op::Ret:
        ++stats_.branches;
        ++stats_.takenBranches;
        taken = true;
        redirect(retReg_, self);
        break;
      default:
        execute(inst);
        pc_ = next;
        break;
    }

    ++stats_.instructions;
    stats_.fetchedBytes += cfg_.isa == IsaKind::LoadStore4
        ? 2 : dec.bytes;
    stats_.cycles += instructionCycles(cfg_, inst, taken);

    if (trace_) {
        rec.cycle = stats_.cycles;
        rec.accAfter = acc_;
        rec.carryAfter = carry_;
        rec.taken = taken;
        trace_(rec);
    }
    return !halted_;
}

StopReason
CoreSim::run(uint64_t max_instructions)
{
    while (!halted_ && stats_.instructions < max_instructions)
        step();
    return halted_ ? StopReason::Halted : StopReason::Budget;
}

} // namespace flexi
