/**
 * @file
 * Pre-decode trace cache: the static half of Emulator::step(), computed
 * once per program instead of once per dynamic instruction.
 *
 * The functional emulator used to re-derive the same static facts on
 * every dynamic execution of an instruction: the opInfo() property
 * lookup, the operand-routing predicates (readsRa/raIsFp/useImm/...),
 * the class dispatch, the sign-cast of the immediate, and the
 * PC-validity check against the program bounds. All of that depends
 * only on the *static* instruction, so PreDecodedProgram flattens it
 * into one dense record per static instruction (PreInst) that step()
 * consumes with a single indexed load.
 *
 * PredecodeCache shares the flattened tables process-wide, keyed by a
 * fingerprint over the FULL program content (entry pc, every code
 * field, every data byte): every sweep cell over the same workload
 * reuses one decode pass, while any change to the program (a different
 * scale, a regenerated workload) lands on a different key and can
 * never replay stale records. Steady-state lookups are allocation-free
 * (a mutex-guarded ordered-map probe plus a shared_ptr copy);
 * population allocates only at first touch of a new program.
 *
 * Correctness contract: predecode is a host-speed layer only. An
 * emulator stepping through PreInst records produces bit-identical
 * DynInst streams (and therefore bit-identical SimStats) to the
 * re-decoding reference path, which remains available behind
 * Emulator::setPredecode(false); tests/test_predecode.cc pins the
 * equivalence across workloads and machine models.
 */

#ifndef CONOPT_ARCH_PREDECODE_HH
#define CONOPT_ARCH_PREDECODE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/asm/program.hh"
#include "src/isa/isa.hh"

namespace conopt::arch {

/**
 * One pre-decoded static instruction: the verbatim Instruction (copied
 * into every DynInst it spawns) plus every derived fact step() needs,
 * flattened so the hot loop reads one record instead of chasing the
 * opcode property table per dynamic instruction.
 */
struct PreInst
{
    /** Operand-routing and semantic predicates (from isa::OpInfo plus
     *  the instruction's own useImm), packed so the common "does this
     *  instruction read X" tests are single-bit probes. */
    enum : uint16_t {
        kReadsRa = 1u << 0,      ///< srcA is read
        kRaIsFp = 1u << 1,       ///< ...from the fp file
        kReadsRbOrImm = 1u << 2, ///< srcB is read (reg or immediate)
        kRbIsFp = 1u << 3,       ///< reg-form rb names an fp register
        kUseImm = 1u << 4,       ///< srcB comes from the immediate
        kReadsRc = 1u << 5,      ///< srcC is read (store data)
        kRcIsFp = 1u << 6,       ///< rc names an fp register
        kWritesRc = 1u << 7,     ///< result writes back to rc
        kIsLoad = 1u << 8,       ///< memory read
        kSextLoad = 1u << 9,     ///< load result sign-extends (LDL)
        kIsCondBranch = 1u << 10,///< conditional direction
        kIsIndirect = 1u << 11,  ///< target comes from srcA
        kIsCall = 1u << 12,      ///< writes the return address
        kIsHalt = 1u << 13,      ///< terminates the program
    };

    isa::Instruction inst;   ///< verbatim static instruction
    uint64_t immU = 0;       ///< inst.imm pre-cast (branch target /
                             ///< memory displacement / alu operand)
    uint16_t flags = 0;      ///< the predicate bits above
    isa::OpClass cls = isa::OpClass::None; ///< dispatch class
    uint8_t memSize = 0;     ///< access size in bytes (memory ops)

    bool has(uint16_t f) const { return (flags & f) != 0; }
};

/** 64-bit FNV-1a (avalanched) over the full program content: entry pc,
 *  every code field, and every data byte — the PredecodeCache key. */
uint64_t programContentKey(const assembler::Program &prog);

/** The flattened decode of one program, indexed by static-instruction
 *  position ((pc - codeBase) / instBytes). Immutable once built. */
class PreDecodedProgram
{
  public:
    explicit PreDecodedProgram(const assembler::Program &prog);

    size_t size() const { return insts_.size(); }
    const PreInst &at(size_t idx) const { return insts_[idx]; }
    const PreInst *data() const { return insts_.data(); }

    /** The content key this table was built from. */
    uint64_t fingerprint() const { return fingerprint_; }
    /** Cheap identity echo used to detect (astronomically unlikely)
     *  key collisions on cache hits. */
    uint64_t entryPc() const { return entryPc_; }

  private:
    std::vector<PreInst> insts_;
    uint64_t fingerprint_;
    uint64_t entryPc_;
};

/**
 * Process-wide cache of PreDecodedProgram tables keyed by
 * programContentKey(). One instance() shared by every emulator in the
 * process: concurrent sweep workers running the same workload share
 * one decode pass. Entries live for the process
 * (the key space is bounded by distinct (workload, scale) programs,
 * same as sim::ProgramCache); a changed program simply maps to a new
 * key, which is the whole invalidation story.
 */
class PredecodeCache
{
  public:
    static PredecodeCache &instance();

    /** The table for @p prog: a hit is a map probe + shared_ptr copy
     *  (no allocation); a miss builds the table under the key. */
    std::shared_ptr<const PreDecodedProgram>
    get(const assembler::Program &prog);

    /** Tables actually built (process lifetime). */
    uint64_t builds() const { return builds_.load(std::memory_order_relaxed); }
    /** Lookups served without a build. */
    uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
    /** Resident tables. */
    size_t size() const;

    /** Drop every entry (tests only: lets a test observe first-touch
     *  behaviour without depending on what ran before it). */
    void clear();

  private:
    mutable std::mutex mu_;
    std::map<uint64_t, std::shared_ptr<const PreDecodedProgram>> cache_;
    std::atomic<uint64_t> builds_{0};
    std::atomic<uint64_t> hits_{0};
};

} // namespace conopt::arch

#endif // CONOPT_ARCH_PREDECODE_HH
