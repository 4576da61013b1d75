#include "perfbench/layers.hh"

#include <array>
#include <bit>

#include "src/arch/emulator.hh"
#include "src/branch/branch_predictor.hh"
#include "src/cache/cache.hh"
#include "src/core/optimizer.hh"
#include "src/isa/isa.hh"
#include "src/pipeline/machine_config.hh"
#include "src/pipeline/ooo_core.hh"
#include "src/pipeline/phys_reg_file.hh"
#include "src/pipeline/stats_aggregate.hh"
#include "src/sim/session.hh"

namespace perfbench {

using namespace conopt;
using core::invalidPreg;

std::vector<uint64_t>
statsKey(const pipeline::SimStats &s)
{
    const auto &o = s.opt;
    const auto &m = s.mbc;
    return {s.cycles, s.retired, uint64_t(s.halted), s.branches,
            s.condBranches, s.mispredicted, s.earlyResolvedBranches,
            s.earlyRecoveredMispredicts, s.btbResteers, s.loads, s.stores,
            s.loadsForwardedFromStoreQ, s.mbcMisspecFlushes, s.dl1Hits,
            s.dl1Misses, s.il1Misses, s.fetchStallMispredict,
            s.fetchStallIcache, s.fetchStallQueueFull, s.renameStallRob,
            s.renameStallDispatchQ, s.renameStallPregs,
            s.dispatchStallSched, o.instsRenamed, o.earlyExecuted,
            o.movesEliminated, o.branchesResolved, o.memOps, o.loads,
            o.addrKnown, o.loadsRemoved, o.loadsSynthesized, o.mbcMisspecs,
            o.symRewrites, o.depthBlocked, o.strengthReductions,
            o.branchInferences, m.lookups, m.hits, m.inserts, m.evictions,
            m.invalidations, m.flushes};
}

std::vector<LayerJobResult>
layerPass(const std::vector<sim::SimJob> &jobs, sim::ProgramCache &cache,
          SpanRecorder &rec, int32_t parent)
{
    sim::SimSession session;
    std::vector<LayerJobResult> out;
    out.reserve(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        const sim::SimJob &job = jobs[i];
        const sim::ProgramPtr prog = cache.get(job.workload, job.scale);
        LayerJobResult r;
        r.job = job;
        ScopedSpan js(&rec, "job", parent, int64_t(i));
        {
            ScopedSpan s(&rec, "sim.reset", js.id(), int64_t(i));
            session.reset(prog, job.config, job.maxInsts);
        }
        {
            ScopedSpan s(&rec,
                         job.config.opt.enabled ? "sim.run.opt"
                                                : "sim.run.base",
                         js.id(), int64_t(i));
            r.sim = session.run();
            s.setWork(int64_t(r.sim.instructions));
        }
        js.setWork(int64_t(r.sim.instructions));
        r.ticks = session.core().ticksExecuted();
        out.push_back(std::move(r));
    }
    return out;
}

namespace {

/**
 * RenameUnit replay: renames a recorded stream in program order,
 * renameWidth instructions per bundle and one bundle per cycle. Results
 * become ready (and visible to value feedback) at rename + latency, and
 * a 160-entry retire window releases each instruction's register
 * references (destPreg, deps, storeDataDep) in order, as the core's
 * retire stage does.
 */
class RenameProbe
{
  public:
    RenameProbe(const RenameProbe &) = delete;
    RenameProbe &operator=(const RenameProbe &) = delete;

    RenameProbe(const pipeline::MachineConfig &cfg,
                const arch::ArchState &init)
        : cfg_(cfg), intPrf_(cfg.intPhysRegs), fpPrf_(cfg.fpPhysRegs),
          unit_(cfg.opt, intPrf_, fpPrf_), window_(kWindow)
    {
        std::array<uint64_t, isa::numIntRegs> intInit{};
        std::array<uint64_t, isa::numFpRegs> fpInit{};
        for (unsigned r = 0; r < isa::numIntRegs; ++r)
            intInit[r] = init.readInt(isa::RegIndex(r));
        for (unsigned r = 0; r < isa::numFpRegs; ++r)
            fpInit[r] = init.fpRegs[r];
        intPrf_.reset(cfg.intPhysRegs);
        fpPrf_.reset(cfg.fpPhysRegs);
        unit_.reset(cfg.opt, intInit, fpInit);
        for (unsigned r = 0; r < isa::numIntRegs; ++r) {
            if (r == isa::zeroReg)
                continue;
            const auto p = unit_.rat().read(isa::RegIndex(r)).mapping;
            intPrf_.setReadyAt(p, 0);
            intPrf_.setVfbAt(p, 0);
        }
        for (unsigned r = 0; r < isa::numFpRegs; ++r) {
            const auto p = unit_.fpRat().read(isa::RegIndex(r));
            fpPrf_.setReadyAt(p, 0);
            fpPrf_.setVfbAt(p, 0);
        }
    }

    void
    rename(const arch::DynInst &d)
    {
        if (count_ == kWindow)
            retireOldest();
        while ((intPrf_.freeCount() < 2 || fpPrf_.freeCount() < 2) &&
               count_ > 0)
            retireOldest();
        if (inBundle_ == 0)
            unit_.beginBundle();
        const uint64_t optCycle =
            cycle_ + (cfg_.opt.enabled ? cfg_.opt.extraStages : 0);
        const core::OptResult r = unit_.renameInst(d, optCycle);
        if (r.destPreg != invalidPreg && !r.destAliased) {
            const uint64_t ready = r.schedClass == isa::OpClass::None
                                       ? optCycle
                                       : optCycle + r.execLatency;
            prf(r.destIsFp).setReadyAt(r.destPreg, ready);
            prf(r.destIsFp).setVfbAt(r.destPreg, ready);
        }
        if (d.inst.isStore() && !r.addrKnown)
            unit_.onStoreExecuted(d.memAddr, d.memSize, d.seq);
        window_[(head_ + count_) % kWindow] = r;
        ++count_;
        if (++inBundle_ == cfg_.renameWidth) {
            inBundle_ = 0;
            ++cycle_;
        }
    }

    uint64_t earlyExecuted() const { return unit_.stats().earlyExecuted; }

  private:
    static constexpr size_t kWindow = 160;

    pipeline::PhysRegFile &prf(bool fp) { return fp ? fpPrf_ : intPrf_; }

    void
    retireOldest()
    {
        const core::OptResult &r = window_[head_];
        if (r.destPreg != invalidPreg)
            prf(r.destIsFp).release(r.destPreg);
        for (unsigned i = 0; i < r.numDeps; ++i)
            prf(r.deps[i].isFp).release(r.deps[i].reg);
        if (r.storeDataDep.reg != invalidPreg)
            prf(r.storeDataDep.isFp).release(r.storeDataDep.reg);
        head_ = (head_ + 1) % kWindow;
        --count_;
    }

    pipeline::MachineConfig cfg_;
    pipeline::PhysRegFile intPrf_;
    pipeline::PhysRegFile fpPrf_;
    core::RenameUnit unit_; ///< after the register files it references
    std::vector<core::OptResult> window_;
    size_t head_ = 0;
    size_t count_ = 0;
    unsigned inBundle_ = 0;
    uint64_t cycle_ = 0;
};

/** Instructions recorded per chunk: bounds the recording's memory. */
constexpr size_t kChunk = size_t(1) << 16;

} // namespace

ReplayCounts
replayKernels(const std::vector<sim::ProgramPtr> &progs, SpanRecorder &rec,
              int32_t parent)
{
    const auto base = pipeline::MachineConfig::baseline();
    const auto opt = pipeline::MachineConfig::optimized();
    const unsigned ilineShift =
        unsigned(std::countr_zero(base.hier.l1i.lineBytes));
    ReplayCounts c;
    std::vector<arch::DynInst> chunk;
    chunk.reserve(kChunk);
    for (size_t k = 0; k < progs.size(); ++k) {
        const int64_t job = int64_t(k);
        ScopedSpan ks(&rec, "kernel", parent, job);
        // The first run pays the memory image's page allocation; time
        // the second, as a warm sweep worker would run it.
        arch::Emulator emu(progs[k]);
        emu.run();
        emu.reset();
        {
            ScopedSpan s(&rec, "arch.emu_run", ks.id(), job);
            s.setWork(int64_t(emu.run()));
        }
        emu.reset();

        cache::Hierarchy hier(base.hier);
        branch::BranchPredictor bp(base.bp);
        RenameProbe renBase(base, emu.state());
        RenameProbe renOpt(opt, emu.state());
        uint64_t lastLine = ~uint64_t(0);
        uint64_t instAcc = 0, dataAcc = 0;
        while (!emu.done()) {
            chunk.clear();
            {
                ScopedSpan s(&rec, "arch.emu_step", ks.id(), job);
                while (chunk.size() < kChunk && !emu.done())
                    chunk.push_back(emu.step());
                s.setWork(int64_t(chunk.size()));
            }
            {
                ScopedSpan s(&rec, "cache.replay", ks.id(), job);
                const uint64_t before = instAcc + dataAcc;
                for (const auto &d : chunk) {
                    const uint64_t line = d.pc >> ilineShift;
                    if (line != lastLine) {
                        hier.accessInst(d.pc);
                        lastLine = line;
                        ++instAcc;
                    }
                    if (d.inst.isMem()) {
                        hier.accessData(d.memAddr);
                        ++dataAcc;
                    }
                    if (d.taken)
                        lastLine = ~uint64_t(0);
                }
                s.setWork(int64_t(instAcc + dataAcc - before));
            }
            {
                ScopedSpan s(&rec, "branch.replay", ks.id(), job);
                int64_t n = 0;
                for (const auto &d : chunk) {
                    const auto &info = isa::opInfo(d.inst.op);
                    if (!info.isBranch)
                        continue;
                    ++n;
                    const auto pred =
                        bp.predict(d.pc, d.inst, d.pc + isa::instBytes);
                    const bool dirWrong =
                        info.isCondBranch && pred.taken != d.taken;
                    const bool targetWrong =
                        !dirWrong && d.taken && info.isIndirect &&
                        (!pred.targetValid || pred.target != d.nextPc);
                    if (dirWrong || targetWrong) {
                        ++c.mispredicts;
                        if (info.isCondBranch)
                            bp.recover(pred, d.taken);
                    }
                    bp.update(d.pc, d.inst, pred, d.taken, d.nextPc);
                }
                c.branches += uint64_t(n);
                s.setWork(n);
            }
            {
                ScopedSpan s(&rec, "core.rename.base", ks.id(), job);
                for (const auto &d : chunk)
                    renBase.rename(d);
                s.setWork(int64_t(chunk.size()));
            }
            {
                ScopedSpan s(&rec, "core.rename.opt", ks.id(), job);
                for (const auto &d : chunk)
                    renOpt.rename(d);
                s.setWork(int64_t(chunk.size()));
            }
            c.insts += chunk.size();
        }
        ks.setWork(int64_t(emu.instCount()));
        c.dataAccesses += dataAcc;
        c.dl1Misses += hier.l1d().misses();
        c.il1Misses += hier.l1i().misses();
        c.earlyExecBase += renBase.earlyExecuted();
        c.earlyExecOpt += renOpt.earlyExecuted();
    }
    return c;
}

std::vector<Metric>
statsMetrics(const std::vector<LayerJobResult> &jobs,
             const std::map<std::string, uint64_t> &baseCycles)
{
    uint64_t cycles = 0, retired = 0, ticks = 0, branches = 0, mispred = 0,
             earlyRes = 0, dl1Hits = 0, dl1Misses = 0, il1Misses = 0,
             stallMisp = 0, stallRob = 0, stallSched = 0, early = 0,
             loads = 0, loadsRemoved = 0, mbcMisspecs = 0;
    std::vector<double> ipcs, speedups;
    for (const auto &j : jobs) {
        const auto &s = j.sim.stats;
        cycles += s.cycles;
        retired += s.retired;
        ticks += j.ticks;
        branches += s.branches;
        mispred += s.mispredicted;
        earlyRes += s.earlyResolvedBranches;
        dl1Hits += s.dl1Hits;
        dl1Misses += s.dl1Misses;
        il1Misses += s.il1Misses;
        stallMisp += s.fetchStallMispredict;
        stallRob += s.renameStallRob;
        stallSched += s.dispatchStallSched;
        early += s.opt.earlyExecuted;
        loads += s.opt.loads;
        loadsRemoved += s.opt.loadsRemoved;
        mbcMisspecs += s.opt.mbcMisspecs;
        if (s.cycles)
            ipcs.push_back(s.ipc());
        const auto it = baseCycles.find(j.job.workload);
        if (j.job.configName != "base" && s.cycles &&
            it != baseCycles.end())
            speedups.push_back(double(it->second) / double(s.cycles));
    }
    const auto frac = [](uint64_t a, uint64_t b) {
        return b ? double(a) / double(b) : 0.0;
    };
    return {
        {"pipeline.ticked_frac", frac(ticks, cycles), "frac"},
        {"pipeline.ipc_geomean", pipeline::geomean(ipcs), "inst/cycle"},
        {"pipeline.speedup_geomean", pipeline::geomean(speedups), "ratio"},
        {"pipeline.fetch_stall_mispredict_frac", frac(stallMisp, cycles),
         "frac"},
        {"pipeline.rename_stall_rob_frac", frac(stallRob, cycles), "frac"},
        {"pipeline.dispatch_stall_sched_frac", frac(stallSched, cycles),
         "frac"},
        {"branch.mispredict_rate", frac(mispred, branches), "frac"},
        {"branch.early_resolved_frac", frac(earlyRes, branches), "frac"},
        {"cache.dl1_miss_rate", frac(dl1Misses, dl1Hits + dl1Misses),
         "frac"},
        {"cache.il1_misses", double(il1Misses), "count"},
        {"core.early_exec_frac", frac(early, retired), "frac"},
        {"core.loads_removed_frac", frac(loadsRemoved, loads), "frac"},
        {"core.mbc_misspecs", double(mbcMisspecs), "count"},
    };
}

} // namespace perfbench
