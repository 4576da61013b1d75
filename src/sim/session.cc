#include "src/sim/session.hh"

#include "src/arch/emulator.hh"
#include "src/pipeline/ooo_core.hh"
#include "src/util/logging.hh"

namespace conopt::sim {

SimSession::SimSession() = default;

SimSession::~SimSession() = default;

void
SimSession::reset(ProgramPtr program,
                  const pipeline::MachineConfig &config,
                  uint64_t max_insts)
{
    conopt_assert(program != nullptr);
    program_ = std::move(program);
    if (!emu_) {
        // conopt-lint: allow(hotpath-alloc) first reset() only
        emu_ = std::make_unique<arch::Emulator>(program_, max_insts);
        // conopt-lint: allow(hotpath-alloc) first reset() only; warm
        core_ = std::make_unique<pipeline::OooCore>(config, *emu_);
    } else {
        emu_->reset(program_, max_insts);
        core_->reset(config);
    }
    emu_->setPredecode(predecode_);
    core_->setFastForward(fastForward_);
    core_->setStoreWindow(storeWindow_);
    core_->setIpcSampling(ipcInterval_, ipcCapacity_, ipcSeed_);
    armed_ = true;
}

void
SimSession::setFastForward(bool on)
{
    fastForward_ = on;
    if (core_)
        core_->setFastForward(on);
}

void
SimSession::setPredecode(bool on)
{
    predecode_ = on;
    if (emu_)
        emu_->setPredecode(on);
}

void
SimSession::setStoreWindow(bool on)
{
    storeWindow_ = on;
    if (core_)
        core_->setStoreWindow(on);
}

void
SimSession::setIpcSampling(uint64_t interval_insts, size_t reservoir_capacity,
                           uint64_t seed)
{
    ipcInterval_ = interval_insts;
    ipcCapacity_ = reservoir_capacity;
    ipcSeed_ = seed;
    if (core_)
        core_->setIpcSampling(interval_insts, reservoir_capacity, seed);
}

SimResult
SimSession::run()
{
    if (!armed_)
        conopt_fatal("SimSession::run() without a prior reset()");
    armed_ = false;
    SimResult result;
    result.stats = core_->run();
    result.instructions = emu_->instCount();
    result.halted = emu_->halted();
    if (core_->ipcSampleInterval() != 0) {
        result.ipcSamples = core_->ipcSamples().samples();
        result.ipcSamplesSeen = core_->ipcSamples().seen();
    }
    return result;
}

} // namespace conopt::sim
