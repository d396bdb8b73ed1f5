/**
 * @file
 * Instruction-level simulator for all four FlexiCore-family cores.
 *
 * The simulator is architecturally faithful (the same golden model
 * that the paper's wafer test compares dies against) and carries a
 * cycle-accurate timing model for each microarchitecture so that the
 * DSE experiments (Figures 11-13) can be regenerated.
 */

#ifndef FLEXI_SIM_CORE_SIM_HH
#define FLEXI_SIM_CORE_SIM_HH

#include <array>
#include <cstdint>

#include "assembler/program.hh"
#include "isa/isa.hh"
#include "sim/environment.hh"
#include "sim/timing.hh"
#include "sim/trace.hh"

namespace flexi
{

/** Execution statistics for one run. */
struct SimStats
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t branches = 0;
    uint64_t takenBranches = 0;
    uint64_t ioReads = 0;
    uint64_t ioWrites = 0;
    uint64_t memReads = 0;     ///< non-IO data-memory reads
    uint64_t memWrites = 0;    ///< non-IO data-memory writes
    uint64_t fetchedBytes = 0;

    double cpi() const;
};

/** Why a run() returned. */
enum class StopReason
{
    Halted,         ///< spin branch (taken branch to itself)
    Budget,         ///< instruction budget exhausted
    OutputTarget,   ///< requested number of outputs produced
};

/**
 * The core simulator. Architectural state (Section 3.3): 7-bit PC,
 * accumulator, the small data memory with IO mapped at addresses
 * 0/1, and for the DSE ISAs a carry flag and return register.
 */
class CoreSim
{
  public:
    /**
     * @param cfg ISA / microarchitecture / bus configuration
     * @param prog assembled program (fetched page-wise)
     * @param env peripheral environment (IO buses, pager)
     */
    CoreSim(const TimingConfig &cfg, const Program &prog,
            Environment &env);

    /** Execute one instruction. Returns false once halted. */
    bool step();

    /** Run until halt or @p max_instructions. */
    StopReason run(uint64_t max_instructions);

    /**
     * Run until the environment has produced @p target_outputs
     * outputs (checked via a caller-supplied counter), halt, or
     * budget. Useful for streaming kernels.
     */
    template <typename OutputCount>
    StopReason
    runUntilOutputs(OutputCount &&count, size_t target_outputs,
                    uint64_t max_instructions)
    {
        while (!halted_ && stats_.instructions < max_instructions) {
            if (count() >= target_outputs)
                return StopReason::OutputTarget;
            step();
        }
        if (count() >= target_outputs)
            return StopReason::OutputTarget;
        return halted_ ? StopReason::Halted : StopReason::Budget;
    }

    const SimStats &stats() const { return stats_; }
    bool halted() const { return halted_; }

    /** Install (or clear, with nullptr) an execution trace sink. */
    void setTraceSink(TraceSink sink) { trace_ = std::move(sink); }

    /** @name Architectural state access (for tests / tracing). */
    ///@{
    unsigned pc() const { return pc_; }
    unsigned page() const { return page_; }
    uint8_t acc() const { return acc_; }
    bool carry() const { return carry_; }
    uint8_t mem(unsigned addr) const;
    /** Value last driven onto the output bus. */
    uint8_t outputLatch() const { return outLatch_; }
    void setAcc(uint8_t v);
    void setMem(unsigned addr, uint8_t v);
    ///@}

    /**
     * Everything step() reads: PC, page, accumulator, carry, return
     * register, the LoadStore4 flags source, data memory and output
     * latch, plus the halted flag. Two cores of one configuration and
     * program with equal snapshots, in environments that answer
     * alike, step identically. SimStats are not part of it.
     */
    struct ArchState
    {
        unsigned pc = 0;
        unsigned page = 0;
        uint8_t acc = 0;
        bool carry = false;
        uint8_t retReg = 0;
        uint8_t flagsVal = 0;
        std::array<uint8_t, 8> mem{};
        uint8_t outLatch = 0;
        bool halted = false;

        bool operator==(const ArchState &) const = default;
    };
    ArchState archState() const;

  private:
    uint8_t readOperand(const Instruction &inst);
    uint8_t memRead(unsigned addr);
    void memWrite(unsigned addr, uint8_t value);
    void execute(const Instruction &inst);
    void redirect(unsigned target, unsigned self_addr);
    bool condHolds(uint8_t cond, uint8_t value) const;

    TimingConfig cfg_;
    const Program &prog_;
    Environment &env_;

    unsigned dataWidth_;
    uint8_t dataMask_;
    unsigned memWords_;

    unsigned pc_ = 0;
    unsigned page_ = 0;
    uint8_t acc_ = 0;
    bool carry_ = false;
    uint8_t retReg_ = 0;
    uint8_t flagsVal_ = 0;   ///< LoadStore4: last written value
    std::array<uint8_t, 8> mem_{};
    uint8_t outLatch_ = 0;

    bool halted_ = false;
    SimStats stats_;
    TraceSink trace_;
};

} // namespace flexi

#endif // FLEXI_SIM_CORE_SIM_HH
