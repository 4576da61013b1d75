/**
 * @file
 * Property-based tests: randomly generated (but always terminating)
 * programs are run through the functional emulator and the timing model
 * under a sweep of optimizer configurations. Because the optimizer
 * cross-checks every derived value against the oracle (strict checking,
 * paper section 4.2), simply completing these runs is a strong
 * correctness statement; the tests additionally assert structural
 * invariants on the statistics.
 */

#include <gtest/gtest.h>

#include "src/arch/emulator.hh"
#include "src/asm/assembler.hh"
#include "src/sim/simulator.hh"
#include "src/util/rng.hh"

using namespace conopt;
using namespace conopt::assembler;

namespace {

/**
 * Generate a random structured program: an outer counted loop whose body
 * mixes ALU ops, loads/stores into a scratch array (both statically and
 * data-dependently addressed), short forward branches, and occasional
 * multiplies. Always terminates.
 */
Program
randomProgram(uint64_t seed)
{
    Rng rng(seed);
    Assembler a;
    const uint64_t scratch = a.dataQuads([&] {
        std::vector<uint64_t> v(64);
        for (auto &q : v)
            q = rng.next() & 0xffff;
        return v;
    }());

    const Reg base = R16, counter = R17, sum = R18, tmp = R19;
    a.li(base, int64_t(scratch));
    a.li(counter, int64_t(rng.nextRange(40, 120)));
    a.li(sum, 0);

    a.label("outer");
    const int body = int(rng.nextRange(12, 40));
    int fwd_label = 0;
    for (int i = 0; i < body; ++i) {
        const Reg rs = Reg(1 + rng.nextBelow(12));
        const Reg rt = Reg(1 + rng.nextBelow(12));
        const Reg rd = Reg(1 + rng.nextBelow(12));
        switch (rng.nextBelow(10)) {
          case 0:
            a.addq(rs, int64_t(rng.nextRange(-64, 64)), rd);
            break;
          case 1:
            a.subq(rs, int64_t(rng.nextRange(-64, 64)), rd);
            break;
          case 2:
            a.xor_(rs, rt, rd);
            break;
          case 3:
            a.sll(rs, int64_t(rng.nextBelow(4)), rd);
            break;
          case 4: { // statically addressed memory
            const int64_t off = int64_t(rng.nextBelow(64)) * 8;
            if (rng.nextBool())
                a.ldq(rd, off, base);
            else
                a.stq(rs, off, base);
            break;
          }
          case 5: { // data-dependent memory
            a.and_(rs, 63, tmp);
            a.sll(tmp, 3, tmp);
            a.addq(base, tmp, tmp);
            if (rng.nextBool())
                a.ldq(rd, 0, tmp);
            else
                a.stq(rt, 0, tmp);
            break;
          }
          case 6: { // short forward branch
            std::string l = "f";
            l += std::to_string(seed);
            l += '_';
            l += std::to_string(fwd_label++);
            if (rng.nextBool())
                a.beq(rs, l);
            else
                a.bge(rs, l);
            a.addq(sum, 1, sum);
            a.label(l);
            break;
          }
          case 7:
            a.mulq(rs, int64_t(rng.nextRange(1, 16)), rd);
            break;
          case 8:
            a.cmplt(rs, rt, rd);
            break;
          case 9:
            a.mov(rs, rd);
            break;
        }
    }
    a.addq(sum, 1, sum);
    a.subq(counter, 1, counter);
    a.bne(counter, "outer");
    // Publish a checksum so runs can be compared.
    a.li(tmp, 0xf00000);
    a.stq(sum, 0, tmp);
    a.halt();
    return a.finish();
}

struct ConfigCase
{
    const char *name;
    pipeline::MachineConfig config;
};

std::vector<ConfigCase>
configSweep()
{
    std::vector<ConfigCase> cases;
    cases.push_back({"baseline", pipeline::MachineConfig::baseline()});
    cases.push_back({"optimized", pipeline::MachineConfig::optimized()});
    {
        auto oc = core::OptimizerConfig::feedbackOnly();
        cases.push_back(
            {"feedback_only", pipeline::MachineConfig::withOptimizer(oc)});
    }
    {
        auto oc = core::OptimizerConfig::full();
        oc.addChainDepth = 3;
        oc.allowChainedMem = true;
        cases.push_back(
            {"depth3_mem", pipeline::MachineConfig::withOptimizer(oc)});
    }
    {
        auto oc = core::OptimizerConfig::full();
        oc.extraStages = 4;
        cases.push_back(
            {"opt_latency4", pipeline::MachineConfig::withOptimizer(oc)});
    }
    {
        auto cfg = pipeline::MachineConfig::optimized();
        cfg.vfbDelay = 10;
        cases.push_back({"vfb_delay10", cfg});
    }
    {
        auto oc = core::OptimizerConfig::full();
        oc.mbcFlushOnUnknownStore = true;
        cases.push_back(
            {"mbc_flush", pipeline::MachineConfig::withOptimizer(oc)});
    }
    {
        auto oc = core::OptimizerConfig::full();
        oc.mbc.entries = 32;
        oc.mbc.assoc = 2;
        cases.push_back(
            {"small_mbc", pipeline::MachineConfig::withOptimizer(oc)});
    }
    cases.push_back({"exec_bound",
                     pipeline::MachineConfig::execBound(true)});
    cases.push_back({"fetch_bound",
                     pipeline::MachineConfig::fetchBound(true)});
    return cases;
}

class RandomProgramTest : public ::testing::TestWithParam<uint64_t>
{
};

} // namespace

TEST_P(RandomProgramTest, AllConfigsRetireTheArchitecturalStream)
{
    const auto program = randomProgram(GetParam());
    arch::Emulator ref(program, 1u << 22);
    ref.run();
    ASSERT_TRUE(ref.halted());
    const uint64_t ref_count = ref.instCount();
    const uint64_t ref_sum = ref.memory().readQuad(0xf00000);

    for (const auto &c : configSweep()) {
        SCOPED_TRACE(c.name);
        const auto r = sim::simulate(program, c.config, 1u << 22);
        EXPECT_TRUE(r.halted);
        EXPECT_EQ(r.instructions, ref_count);
        EXPECT_EQ(r.stats.retired, ref_count);
        // Structural invariants.
        EXPECT_GE(r.stats.cycles, ref_count / 6)
            << "IPC cannot beat the retire width";
        EXPECT_LE(r.stats.opt.earlyExecuted, r.stats.retired);
        EXPECT_LE(r.stats.opt.loadsRemoved, r.stats.opt.loads);
        EXPECT_LE(r.stats.opt.addrKnown, r.stats.opt.memOps);
        EXPECT_LE(r.stats.earlyRecoveredMispredicts,
                  r.stats.mispredicted);
        EXPECT_LE(r.stats.earlyResolvedBranches, r.stats.branches);
    }
    // Emulator determinism: re-run and compare the checksum.
    arch::Emulator again(program, 1u << 22);
    again.run();
    EXPECT_EQ(again.memory().readQuad(0xf00000), ref_sum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range(uint64_t(1), uint64_t(13)));

TEST(PropertyInvariant, OptimizerNeverSlowsFetchBoundLoopMuch)
{
    // A pathological all-constant loop: the optimizer must never be
    // more than a few percent *slower* than baseline (the cost is just
    // the two extra stages on each misprediction).
    Assembler a;
    a.li(R1, 3000);
    a.label("l");
    a.subq(R1, 1, R1);
    a.bne(R1, "l");
    a.halt();
    Program p = a.finish();
    const auto base =
        sim::simulate(p, pipeline::MachineConfig::baseline());
    const auto opt =
        sim::simulate(p, pipeline::MachineConfig::optimized());
    EXPECT_LT(double(opt.stats.cycles),
              1.05 * double(base.stats.cycles));
}

TEST(PropertyInvariant, MbcSpeculationIsSafeUnderAliasedStores)
{
    // Stores through an unpredictable pointer alias a location that was
    // MBC-forwarded: the speculative-MBC recovery path must keep the
    // machine architecturally correct (strict checking enforces it).
    Assembler a;
    const uint64_t cells = a.dataQuads({5, 6, 7, 8});
    const uint64_t idxs = a.dataQuads([] {
        Rng rng(321);
        std::vector<uint64_t> v(256);
        for (auto &q : v)
            q = rng.nextBelow(4) * 8;
        return v;
    }());
    a.li(R1, int64_t(cells));
    a.li(R2, int64_t(idxs));
    a.li(R3, 256);
    a.li(R9, 0);
    a.label("loop");
    a.ldq(R4, 0, R2);      // random slot offset (unknown at rename)
    a.addq(R1, R4, R5);    // store address: data-dependent
    a.addq(R9, 3, R9);
    a.stq(R9, 0, R5);      // unknown-address store
    a.ldq(R6, 0, R1);      // load that may hit a stale MBC entry
    a.ldq(R7, 8, R1);
    a.addq(R6, R7, R8);
    a.addq(R2, 8, R2);
    a.subq(R3, 1, R3);
    a.bne(R3, "loop");
    a.halt();
    Program p = a.finish();
    arch::Emulator ref(p);
    ref.run();
    const auto r =
        sim::simulate(p, pipeline::MachineConfig::optimized());
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.instructions, ref.instCount());
    // With this much aliasing, some misspeculation should be observed
    // and recovered from.
    EXPECT_GT(r.stats.opt.mbcMisspecs + r.stats.mbc.invalidations, 0u);
}
