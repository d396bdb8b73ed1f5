#include "cnf_encoder.hh"

#include <algorithm>

#include "common/logging.hh"

namespace flexi
{

SatLit
CnfBuilder::fresh()
{
    return SatLit::make(solver_.newVar());
}

SatLit
CnfBuilder::constTrue()
{
    if (!haveConst_) {
        const_ = fresh();
        solver_.addClause({const_});
        haveConst_ = true;
    }
    return const_;
}

bool
CnfBuilder::isConstTrue(SatLit l)
{
    return haveConst_ && l == const_;
}

bool
CnfBuilder::isConstFalse(SatLit l)
{
    return haveConst_ && l == ~const_;
}

void
CnfBuilder::addClause(std::vector<SatLit> lits)
{
    solver_.addClause(std::move(lits));
}

SatLit
CnfBuilder::mkAnd(SatLit a, SatLit b)
{
    if (isConstFalse(a) || isConstFalse(b))
        return constFalse();
    if (isConstTrue(a))
        return b;
    if (isConstTrue(b))
        return a;
    if (a == b)
        return a;
    if (a == ~b)
        return constFalse();
    SatLit o = fresh();
    addClause({~o, a});
    addClause({~o, b});
    addClause({o, ~a, ~b});
    return o;
}

SatLit
CnfBuilder::mkOr(SatLit a, SatLit b)
{
    return ~mkAnd(~a, ~b);
}

SatLit
CnfBuilder::mkXor(SatLit a, SatLit b)
{
    if (isConstFalse(a))
        return b;
    if (isConstFalse(b))
        return a;
    if (isConstTrue(a))
        return ~b;
    if (isConstTrue(b))
        return ~a;
    if (a == b)
        return constFalse();
    if (a == ~b)
        return constTrue();
    SatLit o = fresh();
    addClause({~o, a, b});
    addClause({~o, ~a, ~b});
    addClause({o, ~a, b});
    addClause({o, a, ~b});
    return o;
}

SatLit
CnfBuilder::mkMux(SatLit a, SatLit b, SatLit sel)
{
    if (isConstFalse(sel))
        return a;
    if (isConstTrue(sel))
        return b;
    if (a == b)
        return a;
    SatLit o = fresh();
    addClause({sel, ~o, a});
    addClause({sel, o, ~a});
    addClause({~sel, ~o, b});
    addClause({~sel, o, ~b});
    return o;
}

SatLit
CnfBuilder::mkAndN(const std::vector<SatLit> &lits)
{
    std::vector<SatLit> ins;
    for (SatLit l : lits) {
        if (isConstFalse(l))
            return constFalse();
        if (isConstTrue(l))
            continue;
        ins.push_back(l);
    }
    if (ins.empty())
        return constTrue();
    if (ins.size() == 1)
        return ins[0];
    SatLit o = fresh();
    std::vector<SatLit> big{o};
    for (SatLit l : ins) {
        addClause({~o, l});
        big.push_back(~l);
    }
    addClause(std::move(big));
    return o;
}

SatLit
CnfBuilder::mkOrN(const std::vector<SatLit> &lits)
{
    std::vector<SatLit> inv;
    inv.reserve(lits.size());
    for (SatLit l : lits)
        inv.push_back(~l);
    return ~mkAndN(inv);
}

CnfBuilder::Word
CnfBuilder::freshWord(unsigned width)
{
    Word w(width);
    for (auto &l : w)
        l = fresh();
    return w;
}

CnfBuilder::Word
CnfBuilder::constWord(uint64_t value, unsigned width)
{
    Word w(width);
    for (unsigned i = 0; i < width; ++i)
        w[i] = constant((value >> i) & 1u);
    return w;
}

CnfBuilder::Word
CnfBuilder::add(const Word &a, const Word &b, SatLit cin,
                SatLit *cout)
{
    if (a.size() != b.size())
        panic("CnfBuilder::add: width mismatch");
    Word sum(a.size());
    SatLit carry = cin;
    for (size_t i = 0; i < a.size(); ++i) {
        SatLit axb = mkXor(a[i], b[i]);
        sum[i] = mkXor(axb, carry);
        carry = mkOr(mkAnd(a[i], b[i]), mkAnd(axb, carry));
    }
    if (cout)
        *cout = carry;
    return sum;
}

CnfBuilder::Word
CnfBuilder::mux(const Word &a, const Word &b, SatLit sel)
{
    if (a.size() != b.size())
        panic("CnfBuilder::mux: width mismatch");
    Word out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = mkMux(a[i], b[i], sel);
    return out;
}

CnfBuilder::Word
CnfBuilder::invert(const Word &a)
{
    Word out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = ~a[i];
    return out;
}

SatLit
CnfBuilder::equalsConst(const Word &w, uint64_t value)
{
    std::vector<SatLit> bits;
    bits.reserve(w.size());
    for (size_t i = 0; i < w.size(); ++i)
        bits.push_back(((value >> i) & 1u) ? w[i] : ~w[i]);
    return mkAndN(bits);
}

SatLit
CnfBuilder::orReduce(const Word &w)
{
    return mkOrN(w);
}

SatLit
CnfBuilder::lessThanConst(const Word &w, uint64_t value)
{
    if (value == 0)
        return constFalse();
    if (w.empty() || value >= (uint64_t{1} << w.size()))
        return constTrue();
    // MSB-down: strictly less as soon as a 1-bit of the constant
    // meets a 0-bit of the word with an equal prefix above it.
    SatLit lt = constFalse();
    SatLit eq = constTrue();
    for (size_t i = w.size(); i-- > 0;) {
        bool vbit = (value >> i) & 1u;
        if (vbit)
            lt = mkOr(lt, mkAnd(eq, ~w[i]));
        eq = mkAnd(eq, vbit ? w[i] : ~w[i]);
    }
    return lt;
}

SatLit
CnfBuilder::equalWords(const Word &a, const Word &b)
{
    if (a.size() != b.size())
        panic("CnfBuilder::equalWords: width mismatch");
    std::vector<SatLit> bits;
    bits.reserve(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        bits.push_back(mkXnor(a[i], b[i]));
    return mkAndN(bits);
}

void
CnfBuilder::bindEqual(SatLit a, SatLit b)
{
    if (a == b)
        return;
    addClause({~a, b});
    addClause({a, ~b});
}

uint64_t
CnfBuilder::modelWord(const Word &w) const
{
    uint64_t v = 0;
    for (size_t i = 0; i < w.size(); ++i)
        if (solver_.modelValue(w[i]))
            v |= 1ull << i;
    return v;
}

namespace
{

/**
 * Clauses for one standard cell from its gate semantics. This is the
 * Reference half of the checker: derived from the cell library's
 * boolean functions, not from the compiled truth tables.
 */
void
addGateClauses(CnfBuilder &cnf, CellType type, SatLit o, SatLit a,
               SatLit b, SatLit c)
{
    switch (type) {
      case CellType::INV_X1:
      case CellType::INV_X2:
        cnf.addClause({~o, ~a});
        cnf.addClause({o, a});
        break;
      case CellType::BUF_X1:
      case CellType::BUF_X2:
        cnf.addClause({~o, a});
        cnf.addClause({o, ~a});
        break;
      case CellType::NAND2:
        cnf.addClause({o, a});
        cnf.addClause({o, b});
        cnf.addClause({~o, ~a, ~b});
        break;
      case CellType::NAND3:
        cnf.addClause({o, a});
        cnf.addClause({o, b});
        cnf.addClause({o, c});
        cnf.addClause({~o, ~a, ~b, ~c});
        break;
      case CellType::NOR2:
        cnf.addClause({~o, ~a});
        cnf.addClause({~o, ~b});
        cnf.addClause({o, a, b});
        break;
      case CellType::NOR3:
        cnf.addClause({~o, ~a});
        cnf.addClause({~o, ~b});
        cnf.addClause({~o, ~c});
        cnf.addClause({o, a, b, c});
        break;
      case CellType::XOR2:
        cnf.addClause({~o, a, b});
        cnf.addClause({~o, ~a, ~b});
        cnf.addClause({o, ~a, b});
        cnf.addClause({o, a, ~b});
        break;
      case CellType::XNOR2:
        cnf.addClause({o, a, b});
        cnf.addClause({o, ~a, ~b});
        cnf.addClause({~o, ~a, b});
        cnf.addClause({~o, a, ~b});
        break;
      case CellType::MUX2:
        // inputs {a, b, sel=c}: o = sel ? b : a
        cnf.addClause({c, ~o, a});
        cnf.addClause({c, o, ~a});
        cnf.addClause({~c, ~o, b});
        cnf.addClause({~c, o, ~b});
        break;
      default:
        panic("addGateClauses: unexpected cell type");
    }
}

} // namespace

NetlistEncoding
encodeNetlist(CnfBuilder &cnf, const Netlist &nl,
              const NetlistEncodeOptions &opts)
{
    if (!nl.elaborated())
        panic("encodeNetlist: netlist '%s' not elaborated",
              nl.name().c_str());

    NetlistEncoding enc;
    // One slot per net plus the plan's scratch net (always 0).
    enc.net.assign(nl.numNets() + 1, SatLit{});
    enc.net[nl.zero()] = cnf.constFalse();
    enc.net[nl.one()] = cnf.constTrue();
    enc.net[nl.scratchNet()] = cnf.constFalse();

    auto getLit = [&](NetId n) {
        if (enc.net[n].code < 0)
            enc.net[n] = cnf.fresh();
        return enc.net[n];
    };

    // Primary inputs: shared with a previous encoding (by name) or
    // fresh.
    for (const auto &[name, net] : nl.primaryInputs()) {
        if (opts.share) {
            auto it = opts.shareWith->primaryInputs().find(name);
            if (it == opts.shareWith->primaryInputs().end())
                panic("encodeNetlist: '%s' lacks shared input '%s'",
                      opts.shareWith->name().c_str(), name.c_str());
            enc.net[net] = opts.share->lit(it->second);
        } else {
            enc.net[net] = cnf.fresh();
        }
    }

    // DFF state: Q nets are free variables of the combinational
    // problem, shared across a miter by DFF commit order.
    auto dffs = nl.dffs();
    if (opts.share && opts.share->dffQ.size() != dffs.size())
        panic("encodeNetlist: DFF count mismatch (%zu vs %zu)",
              opts.share->dffQ.size(), dffs.size());
    if (opts.bindQ && opts.bindQ->size() != dffs.size())
        panic("encodeNetlist: bindQ count mismatch (%zu vs %zu)",
              opts.bindQ->size(), dffs.size());
    enc.dffQ.resize(dffs.size());
    for (size_t i = 0; i < dffs.size(); ++i) {
        if (opts.share)
            enc.net[dffs[i].q] = opts.share->dffQ[i];
        else if (opts.bindQ)
            enc.net[dffs[i].q] = (*opts.bindQ)[i];
        else
            enc.net[dffs[i].q] = getLit(dffs[i].q);
        enc.dffQ[i] = enc.net[dffs[i].q];
    }

    // Stuck-at faults force a net to a constant for every consumer;
    // the faulted net's driver cone is left unconstrained, exactly
    // like the force-mask blend in the evaluators.
    std::vector<uint8_t> faulted(nl.numNets() + 1, 0);
    if (opts.applyFaults) {
        for (const StuckFault &f : nl.faults()) {
            enc.net[f.net] = cnf.constant(f.value);
            faulted[f.net] = 1;
        }
    }

    // Fault-free cones: a net is dirty if either instance faults it
    // or a plan step (topological order) reads a dirty net; every
    // other net takes the shared literal and loses its driver.
    std::vector<uint8_t> reused(nl.numNets() + 1, 0);
    if (opts.shareFaultFreeCones) {
        if (!opts.share || opts.shareWith->numNets() != nl.numNets())
            panic("encodeNetlist: shareFaultFreeCones needs a shared "
                  "encoding of a structurally identical netlist");
        std::vector<uint8_t> dirty(nl.numNets() + 1, 0);
        for (const StuckFault &f : nl.faults())
            dirty[f.net] = 1;
        for (const StuckFault &f : opts.shareWith->faults())
            dirty[f.net] = 1;
        for (const auto &step : nl.planSteps())
            dirty[step.out] |= dirty[step.in[0]] | dirty[step.in[1]] |
                               dirty[step.in[2]];
        for (NetId n = 0; n < nl.numNets(); ++n) {
            if (!dirty[n] && opts.share->hasLit(n)) {
                enc.net[n] = opts.share->lit(n);
                reused[n] = 1;
            }
        }
    }
    auto preset = [&](NetId n) { return faulted[n] || reused[n]; };

    if (opts.mode == NetlistEncodeMode::Reference) {
        // Gate semantics straight from the CellInst records, in
        // construction order (creation order is causal for every
        // builder; forward references would get a free literal that
        // the later driver then constrains via getLit).
        const auto &cells = nl.cells();
        for (const auto &cell : cells) {
            if (isSequential(cell.type))
                continue;
            if (preset(cell.output))
                continue;   // forced or shared: drop the driver
            SatLit a = getLit(cell.inputs[0]);
            SatLit b = cell.inputs.size() > 1 ? getLit(cell.inputs[1])
                                              : SatLit{};
            SatLit c = cell.inputs.size() > 2 ? getLit(cell.inputs[2])
                                              : SatLit{};
            addGateClauses(cnf, cell.type, getLit(cell.output), a, b,
                           c);
        }
    } else if (opts.mode == NetlistEncodeMode::Plan) {
        // The compiled plan: one 8-bit truth table per step, padded
        // input slots reading the scratch net.
        for (const auto &step : nl.planSteps()) {
            if (preset(step.out))
                continue;
            SatLit in[3] = {getLit(step.in[0]), getLit(step.in[1]),
                            getLit(step.in[2])};
            SatLit out = getLit(step.out);
            for (unsigned idx = 0; idx < 8; ++idx) {
                bool v = (step.lut >> idx) & 1;
                std::vector<SatLit> clause;
                for (unsigned k = 0; k < 3; ++k)
                    clause.push_back((idx >> k) & 1 ? ~in[k]
                                                    : in[k]);
                clause.push_back(v ? out : ~out);
                cnf.addClause(std::move(clause));
            }
        }
    } else {
        // The fused-run word program: walk the exact straight-line
        // program the wide-lane backend dispatches (planRuns()),
        // encoding each step from its WordOp's gate semantics — the
        // kernel bodies, not the truth tables — so the fusion and
        // the per-op word kernels are both inside the proof.
        const auto steps = nl.planSteps();
        for (const auto &run : nl.planRuns()) {
            for (uint32_t s = run.begin; s < run.end; ++s) {
                const auto &step = steps[s];
                if (preset(step.out))
                    continue;
                SatLit a = getLit(step.in[0]);
                SatLit b = getLit(step.in[1]);
                SatLit c = getLit(step.in[2]);
                SatLit o;
                switch (run.op) {
                  case WordOp::Buf:
                    o = a;
                    break;
                  case WordOp::Inv:
                    o = ~a;
                    break;
                  case WordOp::Nand2:
                    o = cnf.mkNand(a, b);
                    break;
                  case WordOp::Nand3:
                    o = ~cnf.mkAndN({a, b, c});
                    break;
                  case WordOp::Nor2:
                    o = cnf.mkNor(a, b);
                    break;
                  case WordOp::Nor3:
                    o = ~cnf.mkOrN({a, b, c});
                    break;
                  case WordOp::Xor2:
                    o = cnf.mkXor(a, b);
                    break;
                  case WordOp::Xnor2:
                    o = cnf.mkXnor(a, b);
                    break;
                  case WordOp::Mux2:
                    o = cnf.mkMux(a, b, c);
                    break;
                  case WordOp::Lut: {
                    // lutWord(): OR over the set minterms of the
                    // 8-bit table.
                    std::vector<SatLit> terms;
                    for (unsigned idx = 0; idx < 8; ++idx)
                        if ((step.lut >> idx) & 1)
                            terms.push_back(
                                cnf.mkAndN({(idx & 1) ? a : ~a,
                                            (idx & 2) ? b : ~b,
                                            (idx & 4) ? c : ~c}));
                    o = cnf.mkOrN(terms);
                    break;
                  }
                  default:
                    panic("encodeNetlist: unexpected word op");
                }
                if (enc.net[step.out].code < 0) {
                    enc.net[step.out] = o;
                } else {
                    // A pre-existing literal (e.g. a shared Q net
                    // can't be a plan output, but stay defensive):
                    // constrain equality instead of clobbering.
                    SatLit prev = enc.net[step.out];
                    cnf.addClause({~prev, o});
                    cnf.addClause({prev, ~o});
                }
            }
        }
    }

    // Effective captured DFF values: the D cone, unless a fault on
    // the Q net overrides the capture (clockEdge() semantics).
    enc.dffD.resize(dffs.size());
    for (size_t i = 0; i < dffs.size(); ++i)
        enc.dffD[i] =
            faulted[dffs[i].q] ? enc.net[dffs[i].q]
                               : getLit(dffs[i].d);
    return enc;
}

} // namespace flexi
