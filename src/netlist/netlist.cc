#include "netlist.hh"

#include <algorithm>
#include <queue>

#include "common/logging.hh"

namespace flexi
{

namespace
{

/** Cell semantics as an 8-bit truth table over (in0, in1, in2). */
bool
combValue(CellType type, bool a, bool b, bool c)
{
    switch (type) {
      case CellType::INV_X1:
      case CellType::INV_X2:
        return !a;
      case CellType::BUF_X1:
      case CellType::BUF_X2:
        return a;
      case CellType::NAND2:
        return !(a && b);
      case CellType::NAND3:
        return !(a && b && c);
      case CellType::NOR2:
        return !(a || b);
      case CellType::NOR3:
        return !(a || b || c);
      case CellType::XOR2:
        return a != b;
      case CellType::XNOR2:
        return a == b;
      case CellType::MUX2:
        // inputs: {a, b, sel} -> sel ? b : a
        return c ? b : a;
      default:
        panic("combValue: unexpected cell type");
    }
}

uint8_t
lutFor(CellType type)
{
    uint8_t lut = 0;
    for (unsigned idx = 0; idx < 8; ++idx) {
        if (combValue(type, idx & 1, idx & 2, idx & 4))
            lut |= static_cast<uint8_t>(1u << idx);
    }
    return lut;
}

} // namespace

uint8_t
cellTruthTable(CellType type)
{
    if (isSequential(type))
        panic("cellTruthTable: sequential cell has no truth table");
    return lutFor(type);
}

namespace
{

/** Word-parallel opcode matching the cell's boolean function. */
WordOp
wordOpFor(CellType type)
{
    switch (type) {
      case CellType::INV_X1:
      case CellType::INV_X2:
        return WordOp::Inv;
      case CellType::BUF_X1:
      case CellType::BUF_X2:
        return WordOp::Buf;
      case CellType::NAND2:
        return WordOp::Nand2;
      case CellType::NAND3:
        return WordOp::Nand3;
      case CellType::NOR2:
        return WordOp::Nor2;
      case CellType::NOR3:
        return WordOp::Nor3;
      case CellType::XOR2:
        return WordOp::Xor2;
      case CellType::XNOR2:
        return WordOp::Xnor2;
      case CellType::MUX2:
        return WordOp::Mux2;
      default:
        return WordOp::Lut;
    }
}

} // namespace

Netlist::Netlist(std::string name)
    : s_(std::make_shared<Structure>())
{
    s_->name = std::move(name);
    s_->zero = newNet();
    s_->one = newNet();
}

Netlist::Netlist(const Netlist &other, bool)
    : s_(other.s_), elaborated_(other.elaborated_),
      netVal_(other.netVal_), dffState_(other.dffState_),
      faults_(other.faults_), transients_(other.transients_),
      cycle_(other.cycle_), forceMask_(other.forceMask_),
      forceVal_(other.forceVal_), toggles_(other.toggles_)
{
}

std::unique_ptr<Netlist>
Netlist::clone() const
{
    checkElaborated(true);
    return std::unique_ptr<Netlist>(new Netlist(*this, true));
}

const std::string &
Netlist::name() const
{
    return s_->name;
}

NetId
Netlist::zero() const
{
    return s_->zero;
}

NetId
Netlist::one() const
{
    return s_->one;
}

size_t
Netlist::numCells() const
{
    return s_->cells.size();
}

size_t
Netlist::numNets() const
{
    return s_->nextNet;
}

const std::map<std::string, NetId> &
Netlist::primaryInputs() const
{
    return s_->inputs;
}

const std::map<std::string, NetId> &
Netlist::primaryOutputs() const
{
    return s_->outputs;
}

const std::vector<CellInst> &
Netlist::cells() const
{
    return s_->cells;
}

NetId
Netlist::newNet()
{
    return s_->nextNet++;
}

NetId
Netlist::addInput(const std::string &name)
{
    checkElaborated(false);
    auto [it, inserted] = s_->inputs.emplace(name, kNoNet);
    if (!inserted)
        panic("duplicate input '%s'", name.c_str());
    it->second = newNet();
    return it->second;
}

void
Netlist::addOutput(const std::string &name, NetId net)
{
    checkElaborated(false);
    if (!s_->outputs.emplace(name, net).second)
        panic("duplicate output '%s'", name.c_str());
}

NetId
Netlist::addCell(CellType type, const std::vector<NetId> &inputs,
                 const std::string &module)
{
    checkElaborated(false);
    if (isSequential(type))
        panic("use addDff for sequential cells");
    const CellInfo &info = cellInfo(type);
    if (inputs.size() != info.numInputs)
        panic("%s expects %u inputs, got %zu", info.name,
              info.numInputs, inputs.size());
    CellInst cell;
    cell.type = type;
    cell.inputs = inputs;
    cell.output = newNet();
    cell.module = module;
    s_->cells.push_back(std::move(cell));
    return s_->cells.back().output;
}

NetId
Netlist::addDff(NetId d, const std::string &module, bool init, bool x2)
{
    checkElaborated(false);
    CellInst cell;
    cell.type = x2 ? CellType::DFF_X2 : CellType::DFF_X1;
    cell.inputs = {d, kNoNet};   // D, (implicit clock slot)
    cell.output = newNet();
    cell.module = module;
    s_->cells.push_back(std::move(cell));
    s_->dffCells.push_back(s_->cells.size() - 1);
    s_->dffInit.push_back(init);
    return s_->cells.back().output;
}

void
Netlist::setDffInput(NetId q, NetId d)
{
    checkElaborated(false);
    for (size_t idx : s_->dffCells) {
        if (s_->cells[idx].output == q) {
            s_->cells[idx].inputs[0] = d;
            return;
        }
    }
    panic("setDffInput: net %u is not a DFF output", q);
}

void
Netlist::rewireCellInput(size_t cell, size_t input, NetId net)
{
    checkElaborated(false);
    if (cell >= s_->cells.size())
        panic("rewireCellInput: bad cell %zu", cell);
    if (input >= s_->cells[cell].inputs.size())
        panic("rewireCellInput: cell %zu has no input %zu", cell,
              input);
    if (net != kNoNet && net >= s_->nextNet)
        panic("rewireCellInput: bad net %u", net);
    s_->cells[cell].inputs[input] = net;
}

void
Netlist::rewireCellOutput(size_t cell, NetId net)
{
    checkElaborated(false);
    if (cell >= s_->cells.size())
        panic("rewireCellOutput: bad cell %zu", cell);
    if (net >= s_->nextNet)
        panic("rewireCellOutput: bad net %u", net);
    s_->cells[cell].output = net;
}

void
Netlist::nameNet(NetId net, const std::string &name)
{
    checkElaborated(false);
    if (net >= s_->nextNet)
        panic("nameNet: bad net %u", net);
    auto [it, inserted] = s_->labelToNet.emplace(name, net);
    if (!inserted)
        panic("duplicate net label '%s'", name.c_str());
    if (!s_->netLabels.emplace(net, name).second)
        panic("net %u already labeled '%s'", net,
              s_->netLabels.at(net).c_str());
}

NetId
Netlist::findNet(const std::string &name) const
{
    if (auto it = s_->labelToNet.find(name);
        it != s_->labelToNet.end())
        return it->second;
    if (auto it = s_->inputs.find(name); it != s_->inputs.end())
        return it->second;
    if (auto it = s_->outputs.find(name); it != s_->outputs.end())
        return it->second;
    return kNoNet;
}

std::string
Netlist::netName(NetId net) const
{
    if (net == kNoNet)
        return "<unconnected>";
    if (net == s_->zero)
        return "const0";
    if (net == s_->one)
        return "const1";
    for (const auto &[name, n] : s_->inputs)
        if (n == net)
            return name;
    for (const auto &[name, n] : s_->outputs)
        if (n == net)
            return name;
    if (auto it = s_->netLabels.find(net); it != s_->netLabels.end())
        return it->second;
    return strfmt("n%u", net);
}

std::vector<Netlist::PlanStep>
Netlist::planSteps() const
{
    checkElaborated(true);
    const EvalPlan &plan = s_->plan;
    std::vector<PlanStep> steps(plan.out.size());
    for (size_t i = 0; i < steps.size(); ++i) {
        steps[i].in = {plan.in[3 * i], plan.in[3 * i + 1],
                       plan.in[3 * i + 2]};
        steps[i].out = plan.out[i];
        steps[i].lut = plan.lut[i];
        steps[i].cell = plan.cell[i];
    }
    return steps;
}

std::vector<Netlist::PlanRun>
Netlist::planRuns() const
{
    checkElaborated(true);
    const EvalPlan &plan = s_->plan;
    std::vector<PlanRun> runs(plan.runOp.size());
    for (size_t r = 0; r < runs.size(); ++r) {
        runs[r].begin = plan.runBegin[r];
        runs[r].end = plan.runBegin[r + 1];
        runs[r].op = static_cast<WordOp>(plan.runOp[r]);
    }
    return runs;
}

NetId
Netlist::scratchNet() const
{
    return s_->nextNet;
}

std::vector<Netlist::DffInfo>
Netlist::dffs() const
{
    std::vector<DffInfo> out(s_->dffCells.size());
    for (size_t i = 0; i < out.size(); ++i) {
        size_t idx = s_->dffCells[i];
        out[i].d = s_->cells[idx].inputs[0];
        out[i].q = s_->cells[idx].output;
        out[i].cell = static_cast<uint32_t>(idx);
        out[i].init = s_->dffInit[i] != 0;
    }
    return out;
}

std::vector<NetId>
Netlist::undrivenNets() const
{
    std::vector<bool> driven(s_->nextNet, false);
    driven[s_->zero] = driven[s_->one] = true;
    for (const auto &[name, net] : s_->inputs)
        driven[net] = true;
    for (const auto &cell : s_->cells)
        if (cell.output != kNoNet && cell.output < s_->nextNet)
            driven[cell.output] = true;

    std::vector<bool> seen(s_->nextNet, false);
    std::vector<NetId> undriven;
    auto note = [&](NetId in) {
        if (in == kNoNet || in >= s_->nextNet)
            return;
        if (!driven[in] && !seen[in]) {
            seen[in] = true;
            undriven.push_back(in);
        }
    };
    for (const auto &cell : s_->cells) {
        // inputs[1] of a DFF is the implicit clock slot.
        size_t nin = isSequential(cell.type) ? 1 : cell.inputs.size();
        for (size_t k = 0; k < nin; ++k)
            note(cell.inputs[k]);
    }
    for (const auto &[name, net] : s_->outputs)
        note(net);
    return undriven;
}

std::vector<size_t>
Netlist::findCombCycle() const
{
    const auto &cells = s_->cells;
    // Producer cell for each net; DFF Q outputs are cycle breakers
    // (state, not combinational flow), so only comb cells count.
    std::vector<int64_t> producer(s_->nextNet, -1);
    for (size_t i = 0; i < cells.size(); ++i)
        if (!isSequential(cells[i].type) &&
            cells[i].output != kNoNet && cells[i].output < s_->nextNet)
            producer[cells[i].output] = static_cast<int64_t>(i);

    // Iterative DFS over consumer -> producer edges.
    // color: 0 = unvisited, 1 = on stack, 2 = done.
    std::vector<uint8_t> color(cells.size(), 0);
    for (size_t root = 0; root < cells.size(); ++root) {
        if (color[root] || isSequential(cells[root].type))
            continue;
        std::vector<std::pair<size_t, size_t>> frames;
        std::vector<size_t> path;
        frames.emplace_back(root, 0);
        color[root] = 1;
        path.push_back(root);
        while (!frames.empty()) {
            auto &[c, k] = frames.back();
            if (k < cells[c].inputs.size()) {
                NetId in = cells[c].inputs[k++];
                if (in == kNoNet || in >= s_->nextNet ||
                    producer[in] < 0)
                    continue;
                auto p = static_cast<size_t>(producer[in]);
                if (color[p] == 1) {
                    // Back edge: the cycle is path[p..end], found in
                    // consumer->producer order; reverse it so each
                    // cell's output feeds the next one in the list.
                    auto it = std::find(path.begin(), path.end(), p);
                    std::vector<size_t> cycle(it, path.end());
                    std::reverse(cycle.begin(), cycle.end());
                    return cycle;
                }
                if (color[p] == 0) {
                    color[p] = 1;
                    frames.emplace_back(p, 0);
                    path.push_back(p);
                }
            } else {
                color[c] = 2;
                frames.pop_back();
                path.pop_back();
            }
        }
    }
    return {};
}

void
Netlist::compilePlan()
{
    EvalPlan &plan = s_->plan;
    const auto &cells = s_->cells;
    // Unused input slots point at the scratch net one past the last
    // real net: always 0 and unreachable by injectFault, so a stuck
    // fault on const0/const1 cannot leak into padded truth-table
    // index bits.
    const NetId scratch = s_->nextNet;

    size_t n = s_->evalOrder.size();
    plan.in.assign(3 * n, scratch);
    plan.out.resize(n);
    plan.lut.resize(n);
    std::vector<uint8_t> wop(n);   // WordOp per comb cell
    plan.cell.resize(n);
    for (size_t i = 0; i < n; ++i) {
        size_t idx = s_->evalOrder[i];
        const CellInst &cell = cells[idx];
        for (size_t k = 0; k < cell.inputs.size(); ++k)
            plan.in[3 * i + k] = cell.inputs[k];
        plan.out[i] = cell.output;
        plan.lut[i] = lutFor(cell.type);
        wop[i] = static_cast<uint8_t>(wordOpFor(cell.type));
        plan.cell[i] = static_cast<uint32_t>(idx);
    }

    // Fuse adjacent same-op steps into straight-line runs. The
    // word-parallel evaluator dispatches once per run (threaded
    // dispatch) instead of classifying every step; the runs must
    // partition the plan exactly — planRuns() and the formal
    // word-plan encoding both rely on it.
    plan.runBegin.clear();
    plan.runOp.clear();
    for (size_t i = 0; i < n; ++i) {
        if (i == 0 || wop[i] != wop[i - 1]) {
            plan.runBegin.push_back(static_cast<uint32_t>(i));
            plan.runOp.push_back(wop[i]);
        }
    }
    plan.runBegin.push_back(static_cast<uint32_t>(n));

    size_t nd = s_->dffCells.size();
    plan.dffD.resize(nd);
    plan.dffQ.resize(nd);
    plan.dffCell.resize(nd);
    for (size_t i = 0; i < nd; ++i) {
        size_t idx = s_->dffCells[i];
        plan.dffD[i] = cells[idx].inputs[0];
        plan.dffQ[i] = cells[idx].output;
        plan.dffCell[i] = static_cast<uint32_t>(idx);
    }
}

void
Netlist::elaborate()
{
    checkElaborated(false);
    const auto &cells = s_->cells;

    // Topological sort of combinational cells: a cell is ready once
    // all of its input nets are known (inputs, constants, DFF Q
    // outputs, or outputs of already-ordered cells).
    std::vector<bool> known(s_->nextNet, false);
    known[s_->zero] = known[s_->one] = true;
    for (const auto &[name, net] : s_->inputs)
        known[net] = true;
    for (size_t idx : s_->dffCells)
        known[cells[idx].output] = true;

    // Map net -> consuming comb cells, and count unresolved inputs.
    std::vector<std::vector<size_t>> consumers(s_->nextNet);
    std::vector<unsigned> pendingIn(cells.size(), 0);
    std::queue<size_t> ready;

    for (size_t i = 0; i < cells.size(); ++i) {
        if (isSequential(cells[i].type))
            continue;
        unsigned pending = 0;
        for (NetId in : cells[i].inputs) {
            if (in == kNoNet)
                panic("cell %zu has an unconnected input", i);
            if (!known[in]) {
                consumers[in].push_back(i);
                ++pending;
            }
        }
        pendingIn[i] = pending;
        if (!pending)
            ready.push(i);
    }

    s_->evalOrder.clear();
    while (!ready.empty()) {
        size_t i = ready.front();
        ready.pop();
        s_->evalOrder.push_back(i);
        NetId out = cells[i].output;
        known[out] = true;
        for (size_t c : consumers[out])
            if (--pendingIn[c] == 0)
                ready.push(c);
    }

    size_t comb = 0;
    for (const auto &cell : cells)
        if (!isSequential(cell.type))
            ++comb;
    if (s_->evalOrder.size() != comb) {
        // Name the culprits instead of just counting un-levelized
        // cells: either some nets are driven by nothing (so their
        // consumers never become ready) or there is a real
        // combinational cycle — report the actual path.
        auto cellDesc = [&](size_t i) {
            return strfmt("%s #%zu @%s (%s)",
                          cellInfo(cells[i].type).name, i,
                          cells[i].module.c_str(),
                          netName(cells[i].output).c_str());
        };
        std::vector<NetId> undriven = undrivenNets();
        if (!undriven.empty()) {
            std::string list;
            for (size_t k = 0; k < undriven.size() && k < 8; ++k)
                list += (k ? ", " : "") + netName(undriven[k]);
            if (undriven.size() > 8)
                list += ", ...";
            panic("netlist '%s': %zu net(s) consumed but never "
                  "driven: %s", s_->name.c_str(), undriven.size(),
                  list.c_str());
        }
        std::vector<size_t> cycle = findCombCycle();
        if (!cycle.empty()) {
            std::string path;
            for (size_t i : cycle)
                path += cellDesc(i) + " -> ";
            path += cellDesc(cycle.front());
            panic("netlist '%s' has a combinational loop: %s",
                  s_->name.c_str(), path.c_str());
        }
        panic("netlist '%s' has a combinational loop (%zu of %zu "
              "cells ordered)", s_->name.c_str(),
              s_->evalOrder.size(), comb);
    }

    // Check DFF D inputs are wired.
    for (size_t idx : s_->dffCells)
        if (cells[idx].inputs[0] == kNoNet)
            panic("DFF (net %u) has an unconnected D input",
                  cells[idx].output);

    compilePlan();

    // One extra trailing byte: the always-0 scratch net backing the
    // padded input slots of the plan.
    netVal_.assign(s_->nextNet + 1, 0);
    netVal_[s_->one] = 1;
    dffState_.assign(s_->dffCells.size(), 0);
    forceMask_.assign(s_->nextNet, 0);
    forceVal_.assign(s_->nextNet, 0);
    toggles_.assign(cells.size(), 0);
    elaborated_ = true;
    reset();
}

void
Netlist::checkElaborated(bool want) const
{
    if (elaborated_ != want)
        panic("netlist '%s': %s", s_->name.c_str(),
              want ? "not elaborated yet" : "already elaborated");
}

void
Netlist::setInput(const std::string &name, bool value)
{
    checkElaborated(true);
    auto it = s_->inputs.find(name);
    if (it == s_->inputs.end())
        panic("no input named '%s'", name.c_str());
    netVal_[it->second] = value;
}

void
Netlist::setBus(const std::string &prefix, unsigned width,
                unsigned value)
{
    for (unsigned i = 0; i < width; ++i)
        setInput(prefix + std::to_string(i), (value >> i) & 1u);
}

BusHandle
Netlist::inputBus(const std::string &prefix, unsigned width) const
{
    BusHandle handle;
    handle.input_ = true;
    handle.nets_.reserve(width);
    for (unsigned i = 0; i < width; ++i) {
        auto it = s_->inputs.find(prefix + std::to_string(i));
        if (it == s_->inputs.end())
            panic("no input named '%s%u'", prefix.c_str(), i);
        handle.nets_.push_back(it->second);
    }
    return handle;
}

BusHandle
Netlist::outputBus(const std::string &prefix, unsigned width) const
{
    BusHandle handle;
    handle.nets_.reserve(width);
    for (unsigned i = 0; i < width; ++i) {
        auto it = s_->outputs.find(prefix + std::to_string(i));
        if (it == s_->outputs.end())
            panic("no output named '%s%u'", prefix.c_str(), i);
        handle.nets_.push_back(it->second);
    }
    return handle;
}

void
Netlist::setBus(const BusHandle &bus, unsigned value)
{
    checkElaborated(true);
    if (!bus.input_)
        panic("setBus: handle does not name an input bus");
    for (unsigned i = 0; i < bus.nets_.size(); ++i)
        netVal_[bus.nets_[i]] = (value >> i) & 1u;
}

unsigned
Netlist::bus(const BusHandle &bus) const
{
    checkElaborated(true);
    unsigned v = 0;
    for (unsigned i = 0; i < bus.nets_.size(); ++i)
        v |= static_cast<unsigned>(netVal_[bus.nets_[i]]) << i;
    return v;
}

void
Netlist::applyFaultForces()
{
    // Transient windows open and close against the instance cycle
    // counter: rebuild the force state of every transient-touched
    // net each call (stuck-at faults reassert themselves once a
    // window closes). The rebuild is O(faults + transients), both
    // tiny, and skipped entirely on the fault-free fast path.
    if (!transients_.empty()) {
        for (const auto &t : transients_) {
            forceMask_[t.net] = 0;
            forceVal_[t.net] = 0;
        }
        for (const auto &f : faults_) {
            forceMask_[f.net] = 0xFF;
            forceVal_[f.net] = f.value;
        }
        for (const auto &t : transients_) {
            if (cycle_ >= t.fromCycle && cycle_ < t.untilCycle) {
                forceMask_[t.net] = 0xFF;
                forceVal_[t.net] = t.value;
            }
        }
    }

    // Apply fault forcing to primary/state nets (cell outputs and
    // DFF Q nets are handled by the force-mask blends).
    for (const auto &f : faults_)
        netVal_[f.net] = f.value;
    for (const auto &t : transients_)
        if (cycle_ >= t.fromCycle && cycle_ < t.untilCycle)
            netVal_[t.net] = t.value;
}

void
Netlist::evaluate()
{
    checkElaborated(true);

    applyFaultForces();

    // Expose DFF state on Q nets (force-masked blend).
    const EvalPlan &plan = s_->plan;
    size_t nd = plan.dffQ.size();
    for (size_t i = 0; i < nd; ++i) {
        NetId q = plan.dffQ[i];
        uint8_t m = forceMask_[q];
        netVal_[q] = (dffState_[i] & ~m) | (forceVal_[q] & m);
    }

    const NetId *in = plan.in.data();
    const NetId *out = plan.out.data();
    const uint8_t *lut = plan.lut.data();
    const uint32_t *cell = plan.cell.data();
    uint8_t *val = netVal_.data();
    const uint8_t *mask = forceMask_.data();
    const uint8_t *fval = forceVal_.data();
    uint64_t *toggles = toggles_.data();

    size_t n = plan.out.size();
    for (size_t i = 0; i < n; ++i) {
        unsigned idx = val[in[3 * i]] | (val[in[3 * i + 1]] << 1) |
                       (val[in[3 * i + 2]] << 2);
        uint8_t v = (lut[i] >> idx) & 1;
        NetId o = out[i];
        uint8_t m = mask[o];
        v = static_cast<uint8_t>((v & ~m) | (fval[o] & m));
        toggles[cell[i]] += val[o] ^ v;
        val[o] = v;
    }
}

void
Netlist::evaluateReference()
{
    checkElaborated(true);

    applyFaultForces();

    const auto &cells = s_->cells;
    const auto &dffCells = s_->dffCells;
    for (size_t i = 0; i < dffCells.size(); ++i) {
        NetId q = cells[dffCells[i]].output;
        if (!forceMask_[q])
            netVal_[q] = dffState_[i];
        else
            netVal_[q] = forceVal_[q];
    }

    for (size_t idx : s_->evalOrder) {
        const CellInst &cell = cells[idx];
        auto in = [&](size_t k) {
            return netVal_[cell.inputs[k]] != 0;
        };
        bool v = combValue(cell.type, in(0),
                           cell.inputs.size() > 1 && in(1),
                           cell.inputs.size() > 2 && in(2));
        NetId out = cell.output;
        if (forceMask_[out])
            v = forceVal_[out];
        if ((netVal_[out] != 0) != v)
            ++toggles_[idx];
        netVal_[out] = v;
    }
}

void
Netlist::clockEdge()
{
    checkElaborated(true);
    const EvalPlan &plan = s_->plan;
    size_t nd = plan.dffD.size();
    for (size_t i = 0; i < nd; ++i) {
        uint8_t d = netVal_[plan.dffD[i]];
        NetId q = plan.dffQ[i];
        uint8_t m = forceMask_[q];
        d = static_cast<uint8_t>((d & ~m) | (forceVal_[q] & m));
        toggles_[plan.dffCell[i]] += dffState_[i] ^ d;
        dffState_[i] = d;
    }
    ++cycle_;
}

bool
Netlist::output(const std::string &name) const
{
    auto it = s_->outputs.find(name);
    if (it == s_->outputs.end())
        panic("no output named '%s'", name.c_str());
    return netVal_[it->second];
}

unsigned
Netlist::bus(const std::string &prefix, unsigned width) const
{
    unsigned v = 0;
    for (unsigned i = 0; i < width; ++i)
        v |= static_cast<unsigned>(
                 output(prefix + std::to_string(i))) << i;
    return v;
}

bool
Netlist::netValue(NetId net) const
{
    checkElaborated(true);
    if (net >= s_->nextNet)
        panic("netValue: bad net %u", net);
    return netVal_[net];
}

void
Netlist::reset()
{
    checkElaborated(true);
    for (size_t i = 0; i < dffState_.size(); ++i)
        dffState_[i] = s_->dffInit[i];
    std::fill(netVal_.begin(), netVal_.end(), 0);
    netVal_[s_->one] = 1;
}

void
Netlist::injectFault(const StuckFault &fault)
{
    checkElaborated(true);
    if (fault.net >= s_->nextNet)
        panic("injectFault: bad net %u", fault.net);
    faults_.push_back(fault);
    forceMask_[fault.net] = 0xFF;
    forceVal_[fault.net] = fault.value;
}

void
Netlist::clearFaults()
{
    checkElaborated(true);
    for (const auto &f : faults_) {
        forceMask_[f.net] = 0;
        forceVal_[f.net] = 0;
    }
    faults_.clear();
}

void
Netlist::injectTransient(const TransientFault &fault)
{
    checkElaborated(true);
    if (fault.net >= s_->nextNet)
        panic("injectTransient: bad net %u", fault.net);
    if (fault.untilCycle <= fault.fromCycle)
        panic("injectTransient: empty window [%llu, %llu)",
              static_cast<unsigned long long>(fault.fromCycle),
              static_cast<unsigned long long>(fault.untilCycle));
    transients_.push_back(fault);
}

void
Netlist::clearTransients()
{
    checkElaborated(true);
    // Release any currently forced windows, then let the stuck-at
    // faults reassert their own force state.
    for (const auto &t : transients_) {
        forceMask_[t.net] = 0;
        forceVal_[t.net] = 0;
    }
    transients_.clear();
    for (const auto &f : faults_) {
        forceMask_[f.net] = 0xFF;
        forceVal_[f.net] = f.value;
    }
}

bool
Netlist::dffValue(size_t index) const
{
    checkElaborated(true);
    if (index >= dffState_.size())
        panic("dffValue: bad DFF %zu", index);
    return dffState_[index] != 0;
}

void
Netlist::flipDff(size_t index)
{
    checkElaborated(true);
    if (index >= dffState_.size())
        panic("flipDff: bad DFF %zu", index);
    dffState_[index] ^= 1;
}

std::vector<uint8_t>
Netlist::saveDffState() const
{
    checkElaborated(true);
    return dffState_;
}

void
Netlist::restoreDffState(const std::vector<uint8_t> &state)
{
    checkElaborated(true);
    if (state.size() != dffState_.size())
        panic("restoreDffState: %zu bits, netlist has %zu",
              state.size(), dffState_.size());
    dffState_ = state;
}

unsigned
Netlist::totalDevices() const
{
    unsigned n = 0;
    for (const auto &cell : s_->cells)
        n += cellInfo(cell.type).deviceCount;
    return n;
}

double
Netlist::totalNand2Area() const
{
    double a = 0.0;
    for (const auto &cell : s_->cells)
        a += cellInfo(cell.type).nand2Area;
    return a;
}

double
Netlist::totalStaticCurrentUa() const
{
    double c = 0.0;
    for (const auto &cell : s_->cells)
        c += cellInfo(cell.type).staticCurrentUa;
    return c;
}

std::map<std::string, ModuleStats>
Netlist::moduleBreakdown() const
{
    std::map<std::string, ModuleStats> out;
    for (const auto &cell : s_->cells) {
        const CellInfo &info = cellInfo(cell.type);
        ModuleStats &m = out[cell.module];
        ++m.cells;
        m.devices += info.deviceCount;
        m.nand2Area += info.nand2Area;
        if (isSequential(cell.type))
            m.nand2AreaSeq += info.nand2Area;
        m.staticCurrentUa += info.staticCurrentUa;
    }
    return out;
}

double
Netlist::criticalPathDelayUnits() const
{
    // Longest-path DP in evaluation (topological) order; sources
    // (inputs, constants, DFF Q) start at zero arrival.
    std::vector<double> arrival(s_->nextNet, 0.0);
    double worst = 0.0;
    for (size_t idx : s_->evalOrder) {
        const CellInst &cell = s_->cells[idx];
        double in_max = 0.0;
        for (NetId in : cell.inputs)
            if (in != kNoNet)
                in_max = std::max(in_max, arrival[in]);
        double t = in_max + cellInfo(cell.type).delayUnits;
        arrival[cell.output] = t;
        worst = std::max(worst, t);
    }
    // Include DFF setup path (D arrival + DFF delay weight).
    for (size_t idx : s_->dffCells) {
        const CellInst &cell = s_->cells[idx];
        worst = std::max(worst, arrival[cell.inputs[0]] +
                                cellInfo(cell.type).delayUnits);
    }
    return worst;
}

const std::vector<uint64_t> &
Netlist::toggleCounts() const
{
    return toggles_;
}

void
Netlist::resetToggles()
{
    std::fill(toggles_.begin(), toggles_.end(), 0);
}

uint64_t
Netlist::minCellToggles() const
{
    uint64_t m = ~0ull;
    for (uint64_t t : toggles_)
        m = std::min(m, t);
    return toggles_.empty() ? 0 : m;
}

double
Netlist::meanCellToggles() const
{
    if (toggles_.empty())
        return 0.0;
    double sum = 0.0;
    for (uint64_t t : toggles_)
        sum += static_cast<double>(t);
    return sum / static_cast<double>(toggles_.size());
}

} // namespace flexi
